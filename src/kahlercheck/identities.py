"""Numerical verification of the ∂∂̄-Bochner identities and their relatives.

Each check computes its two sides along maximally independent paths:
the left side by jet differentiation of the assembled global scalar
(energy, log-volume, log of the stretch barrier), whose pulled-back form
is φ∘f or h∘f evaluated on the map's jets; the right side by tensor
assembly from curvature, adapted frames, and the map Hessian.  The only
shared ingredient is the chart's defining function (potential φ or
metric entries h), so an error in either path shows up as a residual.

Residuals are reported scaled by 1/(1 + |LHS| + |RHS|); the default
tolerance of 1e-6 reflects order-4 jets in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    MultiplicityError,
    RankError,
)
from .functionals import bisectional, ricci
from .geometry import (
    CurvaturePoint,
    curvature_tensor,
    normal_chart,
    pullback_metric_jets,
)
from .jets import derivative, jet_mat_det, jet_mat_inv, jet_mat_mul, jet_mat_trace
from .linalg import check_hermitian, check_positive_definite, frame_normalizer, pencil_eigh, rng_for
from .maps import HoloMap, map_hessian, map_point_data, precompose

DEFAULT_TOL = 1e-6
GAP_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Outcome of one identity check over a batch of points.

    ``max_abs_residual`` is the largest scaled residual
    |LHS − RHS|/(1 + |LHS| + |RHS|); ``passed`` is exactly the claim
    max_abs_residual ≤ tolerance.  Points a check cannot apply to
    (rank drop, tied top stretch) are counted in ``skipped_points``
    and never silently pass; when nothing was checkable the status
    says so.
    """

    kind: str
    points_checked: int
    max_abs_residual: float
    worst_point: np.ndarray | None
    tolerance: float
    passed: bool
    status: str = "ok"  # ok | skipped | not_applicable
    skipped_points: int = 0
    notes: tuple[str, ...] = ()
    details: tuple[float, ...] | None = None


def _as_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ConfigurationError(f"points must have shape (k, {dim}), got {pts.shape}")
    return pts


def _as_vector(v, dim: int) -> np.ndarray:
    vec = np.asarray(v, dtype=complex)
    if vec.shape != (dim,):
        raise ConfigurationError(f"direction must have {dim} components")
    if not np.any(vec):
        raise DegenerateInputError("direction vector is zero")
    return vec


def _scaled_residual(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _aggregate(kind, residuals, pts, tol, skipped, notes) -> CheckReport:
    if not residuals:
        return CheckReport(
            kind=kind,
            points_checked=0,
            max_abs_residual=0.0,
            worst_point=None,
            tolerance=tol,
            passed=True,
            status="skipped",
            skipped_points=skipped,
            notes=tuple(notes) + ("no checkable points",),
            details=(),
        )
    arr = np.asarray(residuals)
    worst = int(np.argmax(arr))
    max_res = float(arr[worst])
    return CheckReport(
        kind=kind,
        points_checked=len(residuals),
        max_abs_residual=max_res,
        worst_point=np.asarray(pts[worst]),
        tolerance=tol,
        passed=max_res <= tol,
        status="ok",
        skipped_points=skipped,
        notes=tuple(notes),
        details=tuple(float(r) for r in arr),
    )


def _hessian_of(jet, dim: int) -> np.ndarray:
    units = np.eye(dim, dtype=int)
    return np.array(
        [[derivative(jet, units[c], units[d]) for d in range(dim)] for c in range(dim)]
    )


def _energy_jet(f: HoloMap, point):
    """Jets of ‖∂f‖² = tr(g^{-1}·f*h) at the point, order 2."""
    a_jets = pullback_metric_jets(f.target, f.component_jets(point, 4), 2)
    g_jets = f.domain.metric_jets(point, 2)
    return jet_mat_trace(jet_mat_mul(jet_mat_inv(g_jets), a_jets))


def _log_volume_jet(f: HoloMap, point):
    """Jets of log D = log det(f*h) − log det g at the point, order 2."""
    a_jets = pullback_metric_jets(f.target, f.component_jets(point, 4), 2)
    g_jets = f.domain.metric_jets(point, 2)
    return jet_mat_det(a_jets).log() - jet_mat_det(g_jets).log()


# -- energy identity -------------------------------------------------------------


def boch1_sides(f: HoloMap, point, v) -> tuple[float, float]:
    """Both sides of the energy identity at one point, direction v.

    LHS: v-complex-Hessian of ‖∂f‖² by jets.  RHS: ‖D_v ∂f‖² minus the
    target curvature acting on the ∂f-image of v, plus the domain
    curvature operator R_{vv̄} paired against f*h.
    """
    v = _as_vector(v, f.m)
    hess_e = _hessian_of(_energy_jet(f, point), f.m)
    lhs = float(np.einsum("cd,c,d->", hess_e, v, np.conj(v)).real)

    data = map_point_data(f, point)
    cp_m = curvature_tensor(f.domain, point)
    cp_n = curvature_tensor(f.target, data.image)
    g_inv = np.linalg.inv(data.g)
    p_mat = data.pushforward
    pv = p_mat @ v

    hess_f = map_hessian(f, point)
    hv = np.einsum("iab,b->ia", hess_f, v)
    t1 = np.einsum("ia,ij,jb->ab", hv, data.h, np.conj(hv))
    term1 = float(np.trace(t1 @ g_inv).real)

    x2 = np.einsum("ijkl,ia,jb,k,l->ab", cp_n.riem, p_mat, np.conj(p_mat), pv, np.conj(pv))
    term2 = float(np.trace(x2 @ g_inv).real)

    s_vv = np.einsum("abcd,a,b->cd", cp_m.riem, v, np.conj(v))
    t3 = np.einsum("ab,gb->ag", s_vv, np.conj(g_inv)) @ data.pullback
    term3 = float(np.trace(t3 @ g_inv).real)

    return lhs, term1 - term2 + term3


def verify_boch1(f: HoloMap, points, v, tol: float = DEFAULT_TOL) -> CheckReport:
    """Energy identity over a batch of points with a fixed direction."""
    pts = _as_points(points, f.m)
    residuals = [_scaled_residual(*boch1_sides(f, p, v)) for p in pts]
    return _aggregate("boch1", residuals, pts, tol, skipped=0, notes=())


# -- log-volume identity ---------------------------------------------------------


def boch2_sides(f: HoloMap, point, v) -> tuple[float, float]:
    """Both sides of the log-volume identity at a full-rank point.

    RHS is assembled in normalized coordinates: adapted frames E, T
    diagonalize ∂f, and the three terms are the normal components of
    the map Hessian weighted by inverse stretches, the partial target
    curvature along the frame, and the domain Ricci form on v.
    """
    if f.m > f.n:
        raise ConfigurationError(f"log-volume identity needs m <= n, got m={f.m}, n={f.n}")
    v = _as_vector(v, f.m)
    data = map_point_data(f, point)
    if data.rank < f.m:
        raise RankError(
            f"rank {data.rank} < {f.m} at {np.asarray(point)}; log D is singular here"
        )

    hess_d = _hessian_of(_log_volume_jet(f, point), f.m)
    lhs = float(np.einsum("cd,c,d->", hess_d, v, np.conj(v)).real)

    cp_m = curvature_tensor(f.domain, point)
    cp_n = curvature_tensor(f.target, data.image)
    e_frame, t_frame = data.domain_frame, data.target_frame
    pv = data.pushforward @ v

    hess_f = map_hessian(f, point)
    f_tilde = np.einsum(
        "ij,jmn,ma,n->ia", np.linalg.inv(t_frame), hess_f, e_frame, v
    )
    term1 = float(
        np.sum(np.abs(f_tilde[f.m :, :]) ** 2 / data.singular_sq[None, :]).real
    )

    t_m = t_frame[:, : f.m]
    term2 = float(
        np.einsum("ijkl,ia,ja,k,l->", cp_n.riem, t_m, np.conj(t_m), pv, np.conj(pv)).real
    )

    term3 = float(np.einsum("cd,c,d->", ricci(cp_m), v, np.conj(v)).real)

    return lhs, term1 - term2 + term3


def verify_boch2(f: HoloMap, points, v, tol: float = DEFAULT_TOL) -> CheckReport:
    """Log-volume identity over a batch; rank-deficient points are skipped loudly."""
    pts = _as_points(points, f.m)
    residuals, kept, notes, skipped = [], [], [], 0
    for p in pts:
        try:
            lhs, rhs = boch2_sides(f, p, v)
        except RankError as err:
            skipped += 1
            notes.append(f"skipped: {err}")
            continue
        residuals.append(_scaled_residual(lhs, rhs))
        kept.append(p)
    return _aggregate("boch2", residuals, kept, tol, skipped, notes)


# -- stretch-barrier identity ----------------------------------------------------


def log_w_sides(f: HoloMap, point, v) -> tuple[float, float]:
    """Both sides of the top-stretch identity at a point with a simple top value.

    The scalar W is expressed in the renormalized domain chart (normal
    coordinates rotated so the first direction carries the top
    stretch); its log is differentiated by jets.  The right side is
    the curvature difference along the top directions plus the normal
    Hessian components weighted by 1/W.
    """
    v = _as_vector(v, f.m)
    data = map_point_data(f, point)
    top = float(data.singular_sq[0])
    if data.rank < 1:
        raise RankError(f"∂f vanishes at {np.asarray(point)}")
    if f.m >= 2:
        gap = (top - float(data.singular_sq[1])) / top
        if gap < GAP_FLOOR:
            raise MultiplicityError(
                f"top stretch nearly repeated at {np.asarray(point)} (relative gap {gap:.2e})"
            )

    e_frame, t_frame = data.domain_frame, data.target_frame
    renormalized = normal_chart(f.domain, point, frame=e_frame)
    pulled = precompose(f, renormalized.change)
    origin = np.zeros(f.m)
    a_jets = pullback_metric_jets(f.target, pulled.component_jets(origin, 4), 2)
    g_jets = renormalized.metric_jets(origin, 2)
    c_jets = [[entry.conj() for entry in row] for row in jet_mat_inv(g_jets)]
    acc = None
    for a in range(f.m):
        for b in range(f.m):
            term = c_jets[0][b] * a_jets[a][b] * c_jets[a][0]
            acc = term if acc is None else acc + term
    w_jet = acc * c_jets[0][0].reciprocal()
    v_tilde = np.linalg.solve(e_frame, v)
    hess_w = _hessian_of(w_jet.log(), f.m)
    lhs = float(np.einsum("cd,c,d->", hess_w, v_tilde, np.conj(v_tilde)).real)

    cp_m = curvature_tensor(f.domain, point)
    cp_n = curvature_tensor(f.target, data.image)
    e1, t1 = e_frame[:, 0], t_frame[:, 0]
    pv = data.pushforward @ v
    r_dom = float(np.einsum("abcd,a,b,c,d->", cp_m.riem, e1, np.conj(e1), v, np.conj(v)).real)
    r_tgt = float(np.einsum("ijkl,i,j,k,l->", cp_n.riem, t1, np.conj(t1), pv, np.conj(pv)).real)
    hess_f = map_hessian(f, point)
    f_tilde = np.einsum("ij,jmn,m,n->i", np.linalg.inv(t_frame), hess_f, e_frame[:, 0], v)
    term3 = float(np.sum(np.abs(f_tilde[1:]) ** 2) / top)

    return lhs, r_dom - r_tgt + term3


def verify_log_w(f: HoloMap, points, v, tol: float = DEFAULT_TOL) -> CheckReport:
    """Top-stretch identity over a batch; tied or rank-0 points are skipped loudly."""
    pts = _as_points(points, f.m)
    residuals, kept, notes, skipped = [], [], [], 0
    for p in pts:
        try:
            lhs, rhs = log_w_sides(f, p, v)
        except (RankError, MultiplicityError) as err:
            skipped += 1
            notes.append(f"skipped: {err}")
            continue
        residuals.append(_scaled_residual(lhs, rhs))
        kept.append(p)
    return _aggregate("log_w", residuals, kept, tol, skipped, notes)


# -- Rayleigh sandwich -----------------------------------------------------------


def sandwich_check(a_mat, g_mat, s: int) -> tuple[float, float, float]:
    """(middle, sup, inf) of the quotient G^{sβ̄}A_{αβ̄}G^{αs̄}/G^{ss̄}.

    The middle quantity is a generalized Rayleigh quotient of the
    pencil (A, G) at the s-th row of G^{-1}, so it always lands
    between the extreme pencil eigenvalues.
    """
    a_mat = check_hermitian(np.asarray(a_mat, dtype=complex), "sandwich numerator")
    g_mat = check_positive_definite(np.asarray(g_mat, dtype=complex), "sandwich metric")
    m = len(g_mat)
    if not 0 <= s < m:
        raise ConfigurationError(f"index {s} out of range for size {m}")
    vals, _ = pencil_eigh(a_mat, g_mat)
    if vals[0] < -1e-10 * max(1.0, float(vals[-1])):
        raise ConfigurationError("sandwich numerator must be positive semidefinite")
    c_inv = np.conj(np.linalg.inv(g_mat))
    middle = float(
        (np.einsum("b,ab,a->", c_inv[s, :], a_mat, c_inv[:, s]) / c_inv[s, s]).real
    )
    sup, inf = float(vals[-1]), float(vals[0])
    slack = 1e-10 * (1.0 + abs(sup))
    if not inf - slack <= middle <= sup + slack:
        raise DegenerateInputError(f"Rayleigh quotient {middle:.6e} outside [{inf:.6e}, {sup:.6e}]")
    return middle, sup, inf


# -- sphere averaging ------------------------------------------------------------


def averaging_form(cp: CurvaturePoint, weights) -> float:
    """Σ R(F_i, F̄_i, F_j, F̄_j)|λ_i|²|λ_j|² over an orthonormal frame."""
    lam = np.asarray(weights, dtype=complex)
    if lam.ndim != 1 or len(lam) > len(cp.g):
        raise ConfigurationError("need at most dim weights in a flat list")
    if not np.any(lam):
        raise DegenerateInputError("all averaging weights are zero")
    frame = frame_normalizer(cp.g)[:, : len(lam)]
    rbis = np.einsum(
        "abcd,ai,bi,cj,dj->ij", cp.riem, frame, np.conj(frame), frame, np.conj(frame)
    ).real
    w2 = np.abs(lam) ** 2
    return float(w2 @ rbis @ w2)


def averaging_identity_check(
    cp: CurvaturePoint,
    weights,
    tol: float = 1e-9,
    count: int = 20000,
    seed: int = 0,
    kappa: float | None = None,
) -> CheckReport:
    """Sphere average of R(Y,Ȳ,Y,Ȳ) against its algebraic form.

    Y = Σ λ_i w_i F_i with w uniform on the unit sphere of the d
    nonzero weights.  The Monte-Carlo mean must match
    2/(d(d+1))·Σ R_{iīȷȷ̄}|λ_i|²|λ_j|² within 3·stderr + tol.  With a
    certified bound H ≤ −κ the quartic-form inequality is asserted in
    the same report.
    """
    lam = np.asarray(weights, dtype=complex)
    if lam.ndim != 1 or len(lam) > len(cp.g):
        raise ConfigurationError("need at most dim weights in a flat list")
    nonzero = np.flatnonzero(np.abs(lam) > 0)
    if nonzero.size == 0:
        raise DegenerateInputError("all averaging weights are zero")
    if count < 2:
        raise ConfigurationError("need at least 2 sphere samples")
    d = int(nonzero.size)
    form = averaging_form(cp, lam)
    algebraic = 2.0 / (d * (d + 1)) * form

    frame = frame_normalizer(cp.g)[:, : len(lam)][:, nonzero]
    rng = rng_for(seed, 57)
    w = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    ys = (w * lam[nonzero]) @ frame.T
    vals = np.einsum(
        "abcd,na,nb,nc,nd->n", cp.riem, ys, np.conj(ys), ys, np.conj(ys)
    ).real
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(count))

    residual = abs(mean - algebraic)
    tolerance = 3.0 * stderr + tol
    notes = [
        f"algebraic={algebraic:.12g}",
        f"monte_carlo={mean:.12g}",
        f"stderr={stderr:.3g}",
        f"d={d}",
    ]
    if kappa is not None:
        energy = float(np.sum(np.abs(lam) ** 2))
        bound = -((d + 1) / (2.0 * d)) * kappa * energy**2
        violation = max(0.0, form - bound)
        notes.append(f"quartic_form={form:.12g} vs bound={bound:.12g} (kappa={kappa})")
        residual = max(residual, violation)
    return CheckReport(
        kind="averaging",
        points_checked=count,
        max_abs_residual=residual,
        worst_point=None,
        tolerance=tolerance,
        passed=residual <= tolerance,
        notes=tuple(notes),
    )


# -- plurisubharmonicity ---------------------------------------------------------

PSH_QUANTITIES = ("log1p_energy", "log_D")


def psh_check(
    quantity: str,
    f: HoloMap,
    points,
    tol: float = 1e-8,
    hypothesis_samples: int = 3,
    seed: int = 0,
) -> CheckReport:
    """Sampled positivity of the complex Hessian of a curvature-protected scalar.

    At every point the m×m Hessian of log(1+‖∂f‖²) or log D is
    computed by jets and its smallest eigenvalue must stay above −tol.
    The curvature hypotheses behind the claim are themselves sampled
    (nonnegative bisectional on the domain, nonpositive on the target,
    Ricci ≥ 0 on the domain for log D); any hypothesis failure
    downgrades the verdict to "not_applicable" instead of failing.
    """
    if quantity not in PSH_QUANTITIES:
        raise ConfigurationError(
            f"unknown quantity {quantity!r}; choose from {PSH_QUANTITIES}"
        )
    pts = _as_points(points, f.m)
    rng = rng_for(seed, 41)
    hypothesis_notes: list[str] = []
    residuals, kept, notes, skipped = [], [], [], 0
    worst_eig = np.inf
    for p in pts:
        data = map_point_data(f, p)
        cp_m = curvature_tensor(f.domain, p)
        cp_n = curvature_tensor(f.target, data.image)
        for _ in range(hypothesis_samples):
            x = rng.normal(size=f.m) + 1j * rng.normal(size=f.m)
            y = rng.normal(size=f.m) + 1j * rng.normal(size=f.m)
            bx = bisectional(cp_m, x, y)
            if bx < -1e-9:
                hypothesis_notes.append(
                    f"domain bisectional {bx:.3e} < 0 at {p}"
                )
            xn = rng.normal(size=f.n) + 1j * rng.normal(size=f.n)
            yn = rng.normal(size=f.n) + 1j * rng.normal(size=f.n)
            bn = bisectional(cp_n, xn, yn)
            if bn > 1e-9:
                hypothesis_notes.append(
                    f"target bisectional {bn:.3e} > 0 at image of {p}"
                )
        if quantity == "log_D":
            ric_vals, _ = pencil_eigh(ricci(cp_m), cp_m.g)
            if ric_vals[0] < -1e-9:
                hypothesis_notes.append(f"domain Ricci eigenvalue {ric_vals[0]:.3e} < 0 at {p}")
            if data.rank < f.m:
                skipped += 1
                notes.append(f"skipped: rank {data.rank} < {f.m} at {p}")
                continue
            scalar = _log_volume_jet(f, p)
        else:
            scalar = (1.0 + _energy_jet(f, p)).log()
        hess = _hessian_of(scalar, f.m)
        hess = 0.5 * (hess + hess.conj().T)
        low = float(np.linalg.eigvalsh(hess)[0])
        worst_eig = min(worst_eig, low)
        residuals.append(max(0.0, -low))
        kept.append(p)
    if np.isfinite(worst_eig):
        notes.append(f"smallest Hessian eigenvalue {worst_eig:.6e}")
    report = _aggregate(f"psh[{quantity}]", residuals, kept, tol, skipped, notes)
    if hypothesis_notes:
        seen = tuple(dict.fromkeys(hypothesis_notes))[:5]
        return CheckReport(
            kind=report.kind,
            points_checked=report.points_checked,
            max_abs_residual=report.max_abs_residual,
            worst_point=report.worst_point,
            tolerance=report.tolerance,
            passed=report.passed,
            status="not_applicable",
            skipped_points=report.skipped_points,
            notes=report.notes + ("hypotheses not satisfied:",) + seen,
            details=report.details,
        )
    return report
