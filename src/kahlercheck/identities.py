"""Numerical verification of the ∂∂̄-Bochner identities and their relatives.

Each check computes its two sides along maximally independent paths:
the left side by jet differentiation of the assembled global scalar
(energy, log-volume, log of the stretch barrier), whose pulled-back form
is φ∘f or h∘f evaluated on the map's jets; the right side by tensor
assembly from curvature, adapted frames, and the map Hessian.  The only
shared ingredient is the chart's defining function (potential φ or
metric entries h), so an error in either path shows up as a residual.
At each point both sides read the point's row of one
:class:`~kahlercheck.maps.PointStack` (see :func:`~kahlercheck.maps.point_stacks`),
shared with the other checks of a scenario, but different fields of it.
log W is a jet in the original chart (see
:attr:`~kahlercheck.maps.PointStack.log_w_jets`); the Levi form is
tensorial under holomorphic chart changes, so every left side reads the
direction v as given.

Residuals are reported scaled by 1/(1 + |LHS| + |RHS|); the default
tolerance of 1e-6 reflects order-4 jets in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    MultiplicityError,
    RankError,
)
from .functionals import _gaussian_vectors, bisectional, ricci
from .geometry import CurvaturePoint
from .jets import derivative_block
from .linalg import frame_normalizer, pencil_eigh, rng_for
from .maps import HoloMap, PointStack, kept_jet, point_stacks

DEFAULT_TOL = 1e-6
# the identities differentiate the pulled-back metric twice, and a
# potential spends two more orders on ∂∂̄
IDENTITY_JET_ORDER = 4


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Outcome of one identity check over a batch of points.

    ``max_abs_residual`` is the largest scaled residual
    |LHS − RHS|/(1 + |LHS| + |RHS|) (0 when no point was checked);
    ``passed`` is read off it: exactly the claim max_abs_residual ≤
    tolerance.  Points a check cannot apply to (rank drop, tied top
    stretch) are counted in ``skipped_points`` and never silently pass.
    ``constants``, ``refuted`` and ``lower_estimate`` are the hypothesis
    ledger that ``BoundReport`` shares; ``status`` and the verdict are
    read off it.
    """

    kind: str
    points_checked: int
    max_abs_residual: float
    worst_point: np.ndarray | None
    tolerance: float
    skipped_points: int = 0
    notes: tuple[str, ...] = ()
    details: tuple[float, ...] | None = None
    constants: tuple = ()  # bounds.Constant entries
    refuted: tuple[str, ...] = ()  # notes of the sampled hypotheses that failed
    lower_estimate: bool = False  # the observed value is a sampled maximum

    @property
    def passed(self) -> bool:
        return self.max_abs_residual <= self.tolerance

    @property
    def status(self) -> str:  # ok | skipped | not_applicable
        return "not_applicable" if self.refuted else "ok" if self.points_checked else "skipped"


def _as_vector(v, dim: int) -> np.ndarray:
    vec = np.asarray(v, dtype=complex)
    if vec.shape != (dim,):
        raise ConfigurationError(f"direction must have {dim} components")
    if not np.any(vec):
        raise DegenerateInputError("direction vector is zero")
    return vec


def _verify(kind, residual, f, points, tol) -> CheckReport:
    """Residuals ``residual(stack, k)`` at the points; a point the stack skips (its
    ``RankError`` or ``MultiplicityError``) is skipped loudly, with a note, and a residual
    that is not finite raises ``DomainError`` naming its point."""
    residuals, kept, notes = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is reported below
        for stack in point_stacks(f, points, IDENTITY_JET_ORDER):
            for k, point in enumerate(stack.points):
                try:
                    value = residual(stack, k)
                except (RankError, MultiplicityError) as err:
                    notes.append(f"skipped: {err}")
                    continue
                if not np.isfinite(value):
                    raise DomainError(f"{f.label}: the {kind} residual is not finite at the "
                                      f"domain point {point.tolist()}")
                residuals.append(value)
                kept.append(point)
    worst = int(np.argmax(residuals)) if residuals else None
    return CheckReport(
        kind=kind,
        points_checked=len(residuals),
        max_abs_residual=0.0 if worst is None else float(residuals[worst]),
        worst_point=None if worst is None else np.asarray(kept[worst]),
        tolerance=tol,
        skipped_points=len(notes),  # one note per skipped point
        notes=tuple(notes) + (() if residuals else ("no checkable points",)),
        details=tuple(float(r) for r in residuals),
    )


def _scaled(sides, v):
    """The row residual |LHS − RHS|/(1 + |LHS| + |RHS|) of ``sides(stack, k, v)``."""
    def residual(stack, k):
        lhs, rhs = sides(stack, k, v)
        return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
    return residual


def _levi_form(jet, v) -> float:
    """Complex Hessian of a jet at its base point applied to (v, v̄)."""
    return float(np.einsum("cd,c,d->", derivative_block(jet, "levi"), v, np.conj(v)).real)


# -- energy identity -------------------------------------------------------------


def boch1_sides(f: HoloMap, point, v) -> tuple[float, float]:
    """Both sides of the energy identity at one point, direction v.

    LHS: v-complex-Hessian of ‖∂f‖² by jets.  RHS: ‖D_v ∂f‖² minus the
    target curvature acting on the ∂f-image of v, plus the domain
    curvature operator R_{vv̄} paired against f*h.
    """
    return _boch1(point_stacks(f, point, IDENTITY_JET_ORDER)[0], 0, v)


def _boch1(stack: PointStack, k: int, v) -> tuple[float, float]:
    v = _as_vector(v, stack.map.m)
    lhs = _levi_form(stack.energy_jet.at(k), v)

    data = stack.stretch.at(k)
    g_inv = stack.curvature("domain").g_inv[k]
    p_mat = data.pushforward
    pv = p_mat @ v

    hv = np.einsum("iab,b->ia", stack.map_hessian[k], v)
    t1 = np.einsum("ia,ij,jb->ab", hv, data.h, np.conj(hv))
    term1 = float(np.trace(t1 @ g_inv).real)

    x2 = np.einsum("ijkl,ia,jb,k,l->ab", stack.curvature("target").riem[k], p_mat,
                   np.conj(p_mat), pv, np.conj(pv))
    term2 = float(np.trace(x2 @ g_inv).real)

    s_vv = np.einsum("abcd,a,b->cd", stack.curvature("domain").riem[k], v, np.conj(v))
    t3 = np.einsum("ab,gb->ag", s_vv, np.conj(g_inv)) @ data.pullback
    term3 = float(np.trace(t3 @ g_inv).real)

    return lhs, term1 - term2 + term3


def verify_boch1(f: HoloMap, points, v, tol: float = DEFAULT_TOL) -> CheckReport:
    """Energy identity over a batch of points (or stacks) with a fixed direction."""
    return _verify("boch1", _scaled(_boch1, v), f, points, tol)


# -- log-volume identity ---------------------------------------------------------


def boch2_sides(f: HoloMap, point, v) -> tuple[float, float]:
    """Both sides of the log-volume identity at a full-rank point.

    RHS is assembled in normalized coordinates: adapted frames E, T
    diagonalize ∂f, and the three terms are the normal components of
    the map Hessian weighted by inverse stretches, the partial target
    curvature along the frame, and the domain Ricci form on v.
    """
    return _boch2(point_stacks(f, point, IDENTITY_JET_ORDER)[0], 0, v)


def _boch2(stack: PointStack, k: int, v) -> tuple[float, float]:
    f = stack.map
    if f.m > f.n:
        raise ConfigurationError(f"log-volume identity needs m <= n, got m={f.m}, n={f.n}")
    v = _as_vector(v, f.m)
    data = stack.stretch.at(k)
    lhs = _levi_form(kept_jet(stack.log_volume_jets[k]), v)

    e_frame, t_frame = data.domain_frame, data.target_frame
    pv = data.pushforward @ v

    f_tilde = np.einsum(
        "ij,jmn,ma,n->ia", np.linalg.inv(t_frame), stack.map_hessian[k], e_frame, v
    )
    term1 = float(
        np.sum(np.abs(f_tilde[f.m :, :]) ** 2 / data.singular_sq[None, :]).real
    )

    t_m = t_frame[:, : f.m]
    term2 = float(
        np.einsum("ijkl,ia,ja,k,l->", stack.curvature("target").riem[k], t_m, np.conj(t_m),
                  pv, np.conj(pv)).real
    )

    term3 = float(np.einsum("cd,c,d->", ricci(stack.curvature("domain").at(k)), v,
                            np.conj(v)).real)

    return lhs, term1 - term2 + term3


def verify_boch2(f: HoloMap, points, v, tol: float = DEFAULT_TOL) -> CheckReport:
    """Log-volume identity over a batch; rank-deficient points are skipped loudly."""
    return _verify("boch2", _scaled(_boch2, v), f, points, tol)


# -- stretch-barrier identity ----------------------------------------------------


def log_w_sides(f: HoloMap, point, v) -> tuple[float, float]:
    """Both sides of the top-stretch identity at a point with a simple top value.

    W is the Rayleigh quotient of (f*h, g) at the first row of G^{-1} in
    the normal chart whose first axis carries the top stretch, written in
    the original chart from f*h, g^{-1} and that chart's covector dw¹; the
    Levi form of log W is taken in the direction v.  The right side is
    the curvature difference along the top directions plus the normal
    Hessian components weighted by 1/W.
    """
    return _log_w(point_stacks(f, point, IDENTITY_JET_ORDER)[0], 0, v)


def _log_w(stack: PointStack, k: int, v) -> tuple[float, float]:
    v = _as_vector(v, stack.map.m)
    data = stack.stretch.at(k)
    e_frame, t_frame = data.domain_frame, data.target_frame
    lhs = _levi_form(kept_jet(stack.log_w_jets[k]), v)

    e1, t1 = e_frame[:, 0], t_frame[:, 0]
    pv = data.pushforward @ v
    r_dom = float(np.einsum("abcd,a,b,c,d->", stack.curvature("domain").riem[k], e1,
                            np.conj(e1), v, np.conj(v)).real)
    r_tgt = float(np.einsum("ijkl,i,j,k,l->", stack.curvature("target").riem[k], t1,
                            np.conj(t1), pv, np.conj(pv)).real)
    f_tilde = np.einsum("ij,jmn,m,n->i", np.linalg.inv(t_frame), stack.map_hessian[k],
                        e_frame[:, 0], v)
    term3 = float(np.sum(np.abs(f_tilde[1:]) ** 2) / data.singular_sq[0])

    return lhs, r_dom - r_tgt + term3


def verify_log_w(f: HoloMap, points, v, tol: float = DEFAULT_TOL) -> CheckReport:
    """Top-stretch identity over a batch; tied or rank-0 points are skipped loudly."""
    return _verify("log_w", _scaled(_log_w, v), f, points, tol)


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
    form = averaging_form(cp, lam)  # rejects misshapen or all-zero weights
    if count < 2:
        raise ConfigurationError("need at least 2 sphere samples")
    nonzero = np.flatnonzero(np.abs(lam) > 0)
    d = int(nonzero.size)
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
        notes=tuple(notes),
    )


# -- plurisubharmonicity ---------------------------------------------------------

PSH_QUANTITIES = ("log1p_energy", "log_D")
# random bisectional samples per point and chart that psh draws for its hypotheses
PSH_HYPOTHESIS_SAMPLES = 3


def _psh_hypotheses(quantity: str, stacks, rng) -> list[str]:
    """Notes of the sampled hypotheses psh's claim rests on that fail at the points."""
    refuted = []
    for stack in stacks:
        cp_m, cp_n = stack.curvature("domain"), stack.curvature("target")
        x_m, y_m, x_n, y_n = _gaussian_vectors(rng, (len(stack), PSH_HYPOTHESIS_SAMPLES),
                                               (stack.map.m,) * 2 + (stack.map.n,) * 2)
        bx = bisectional(cp_m.at(np.s_[:, None]), x_m, y_m)  # with a sample axis
        bn = bisectional(cp_n.at(np.s_[:, None]), x_n, y_n)
        low = (pencil_eigh(ricci(cp_m), cp_m.g)[0][:, 0] if quantity == "log_D"
               else np.zeros(len(stack)))
        for p, bx_p, bn_p, low_p in zip(stack.points, bx, bn, low):
            for b_m, b_n in zip(bx_p, bn_p):
                if b_m < -1e-9:
                    refuted.append(f"domain bisectional {b_m:.3e} < 0 at {p}")
                if b_n > 1e-9:
                    refuted.append(f"target bisectional {b_n:.3e} > 0 at image of {p}")
            if low_p < -1e-9:
                refuted.append(f"domain Ricci eigenvalue {low_p:.3e} < 0 at {p}")
    return refuted


def psh_check(quantity: str, f: HoloMap, points, tol: float = 1e-8, seed: int = 0) -> CheckReport:
    """Sampled positivity of the complex Hessian of a curvature-protected scalar.

    At every point the m×m Hessian of log(1+‖∂f‖²) or log D is
    computed by jets and its smallest eigenvalue must stay above −tol.
    The curvature hypotheses behind the claim are themselves sampled
    (nonnegative bisectional on the domain, nonpositive on the target,
    Ricci ≥ 0 on the domain for log D); a failed one goes into the
    report's ``refuted`` ledger (see the verdict table in the README).
    """
    if quantity not in PSH_QUANTITIES:
        raise ConfigurationError(
            f"unknown quantity {quantity!r}; choose from {PSH_QUANTITIES}"
        )
    stacks = point_stacks(f, points, IDENTITY_JET_ORDER)
    refuted = _psh_hypotheses(quantity, stacks, rng_for(seed, 41))
    lows = []

    def residual(stack, k):
        scalar = (kept_jet(stack.log_volume_jets[k]) if quantity == "log_D"
                  else stack.log1p_energy_jet.at(k))
        hess = derivative_block(scalar, "levi")
        low = float(np.linalg.eigvalsh(0.5 * (hess + hess.conj().T))[0])
        lows.append(low)
        return 0.0 if low >= 0.0 else -low  # a NaN stays NaN, for _verify to reject

    report = _verify(f"psh[{quantity}]", residual, f, stacks, tol)
    lowest = (f"smallest Hessian eigenvalue {min(lows):.6e}",) if lows else ()
    return replace(report, notes=report.notes + lowest, refuted=tuple(refuted))
