"""Oracles and fixtures the tests compare the package against.

Nothing here is reached by a check, the CLI or the benchmark:

- :func:`fd_cross_check`, a finite-difference oracle for jet derivatives
  that shares no code with the jets;
- :func:`point_data` and :func:`point_hessian`, the stretch data and the
  covariant Hessian of a map at one point: row 0 of a one-point stack;
- :func:`apply_point` and :func:`jacobian`, a chart change
  (:class:`~kahlercheck.geometry.ChartMap`) at one point in closed form;
- :func:`postcompose` and :func:`catalog_isometry`, which build g ∘ f and
  the catalog charts' isometries for invariance tests;
- :func:`rayleigh_quotient`, the pencil's quotient at one row of G^{-1},
  on numbers or on jets, and :class:`StretchBarrier`, the quotient W that
  log W is taken of, in the normal chart at single points;
- :func:`k_scalar_quadrature`, a Monte-Carlo cross-check of
  :func:`~kahlercheck.functionals.k_scalar`;
- :func:`sandwich_check`, the Rayleigh sandwich behind an acceptance
  criterion;
- :func:`jet_mat_trace`, the trace of a matrix of jets, and
  :func:`mul_table_by_pairs`, a jet space's multiplication table built
  pair by pair;
- :func:`expression_twin`, an expression chart with a catalog family's
  potential or metric, whose Γ and R come from its metric jets where the
  catalog chart's come from its closed form;
- :func:`psh_hypotheses`, :func:`three_circle_refuted` and
  :func:`sampled_range`, the curvature sampling of psh, three_circle and
  sampled constants point by point and sample by sample, one functional
  call each: the reference for the order in which the stacked code draws.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from kahlercheck.errors import ConfigurationError, DegenerateInputError, MetricError
from kahlercheck.bounds import HYPOTHESIS_SAMPLES, _sphere_points
from kahlercheck.cli import CURVATURE_STREAM
from kahlercheck.functionals import (
    SubspaceFrame,
    _check_frame,
    bisectional,
    holo_sectional,
    ricci,
    scalar_curvature,
)
from kahlercheck.geometry import (
    Ball,
    ChartMap,
    ComponentChart,
    CurvaturePoint,
    FullSpace,
    KahlerChart,
    PotentialChart,
    Polydisk,
    _normal_chart_at,
)
from kahlercheck.jets import JetMatrix, WirtingerJet, jet_constant
from kahlercheck.linalg import (
    check_hermitian,
    check_positive_definite,
    haar_unitary,
    pencil_eigh,
    rng_for,
)
from kahlercheck.identities import PSH_HYPOTHESIS_SAMPLES
from kahlercheck.maps import HoloMap, MapPointData, point_stacks

# -- independent finite-difference oracle ----------------------------------------------


def _wirtinger_op(f: Callable, k: int, h: float, sign: float) -> Callable:
    """Central-difference d/dz^k (sign=-1) or d/dzbar^k (sign=+1).

    One Richardson step knocks the stencil error down to O(h^4), which
    is what lets the default step hold 1e-6 relative agreement on
    strongly curved fields.
    """

    def single(p: np.ndarray, hh: float) -> complex:
        e = np.zeros(len(p), dtype=complex)
        e[k] = 1.0
        fx = (f(p + hh * e) - f(p - hh * e)) / (2 * hh)
        fy = (f(p + 1j * hh * e) - f(p - 1j * hh * e)) / (2 * hh)
        return 0.5 * (fx + sign * 1j * fy)

    def op(p: np.ndarray) -> complex:
        return (4.0 * single(p, h / 2) - single(p, h)) / 3.0

    return op


def fd_cross_check(
    field: Callable[[np.ndarray], complex],
    point: Sequence[complex],
    a: Sequence[int],
    b: Sequence[int],
    step: float = 1e-3,
) -> complex:
    """Central-difference estimate of a mixed Wirtinger partial.

    ``field`` is any scalar-valued callable of a complex point; nothing
    here touches jets, so the result is an independent oracle for
    :func:`~kahlercheck.jets.derivative`.  Only totals |a|+|b| <= 2 are
    supported (the stencil error grows too fast beyond that).
    """
    pt = np.asarray(point, dtype=complex)
    ta, tb = tuple(map(int, a)), tuple(map(int, b))
    if len(ta) != len(pt) or len(tb) != len(pt) or min(ta + tb) < 0:
        raise ConfigurationError(f"multi-indices {a!r}, {b!r} invalid for m={len(pt)}")
    if step <= 0:
        raise ConfigurationError("finite-difference step must be positive")
    if sum(ta) + sum(tb) > 2:
        raise ConfigurationError("fd_cross_check supports derivative orders <= 2 only")
    f = field
    for k, reps in enumerate(ta):
        for _ in range(reps):
            f = _wirtinger_op(f, k, step, -1.0)
    for k, reps in enumerate(tb):
        for _ in range(reps):
            f = _wirtinger_op(f, k, step, +1.0)
    return f(pt)


# -- one point of a stack ------------------------------------------------------------------


def point_data(f: HoloMap, point) -> MapPointData:
    """The stretch data of ``f`` at one point: row 0 of its one-point stack."""
    return point_stacks(f, point, 1)[0].stretch.at(0)


def point_hessian(f: HoloMap, point) -> np.ndarray:
    """The covariant Hessian f^i_{α,β} of ``f`` at one point: row 0 of its one-point stack."""
    return point_stacks(f, point, 2)[0].map_hessian[0]


# -- a chart change at one point ----------------------------------------------------------


def apply_point(change: ChartMap, w) -> np.ndarray:
    """z = ψ(w) at one point w."""
    w = np.asarray(w, dtype=complex)
    return change.base + change.linear @ w + 0.5 * np.einsum("imk,m,k->i", change.quad, w, w)


def jacobian(change: ChartMap, w) -> np.ndarray:
    """∂z^i/∂w^μ at one point w."""
    w = np.asarray(w, dtype=complex)
    return change.linear + np.einsum("imk,k->im", change.quad, w)


# -- composition ---------------------------------------------------------------


def postcompose(g_map: HoloMap, f: HoloMap, label: str | None = None) -> HoloMap:
    """g ∘ f; the charts must be compatible (f maps into g's domain chart)."""
    if f.target.dim != g_map.domain.dim:
        raise ConfigurationError("postcomposition needs matching dimensions")

    def component(j):
        def fn(zs):
            return g_map._components[j]([c(zs) for c in f._components])

        return fn

    return HoloMap(
        f.domain,
        g_map.target,
        [component(j) for j in range(g_map.n)],
        label=label or f"{g_map.label}∘{f.label}",
    )


def catalog_isometry(chart: KahlerChart, seed: int = 0) -> HoloMap:
    """A nontrivial isometry of a catalog chart onto itself, drawn from seed.

    Rotations for the ball and projective models, Möbius automorphisms
    for the disk (factorwise on the polydisk), unitary motions for the
    flat chart.
    """
    family = chart.family
    m = chart.dim
    rng = rng_for(seed, 929)

    def mobius_component(k, b, phase):
        b_conj = np.conj(b)

        def fn(zs):
            return phase * ((zs[k] - b) * (1.0 - b_conj * zs[k]).reciprocal())

        return fn

    if family == "flat":
        u_mat = haar_unitary(m, rng)
        shift = 0.3 * (rng.normal(size=m) + 1j * rng.normal(size=m))

        def linear_component(i):
            def fn(zs):
                acc = jet_constant(shift[i], zs[0].num_vars, zs[0].order, zs[0].points)
                for j in range(m):
                    acc = acc + u_mat[i, j] * zs[j]
                return acc

            return fn

        comps = [linear_component(i) for i in range(m)]
    elif family == "poincare_disk" or (family == "complex_hyperbolic_ball" and m == 1):
        b = 0.4 * (rng.normal() + 1j * rng.normal()) / np.sqrt(2.0)
        theta = rng.uniform(0, 2 * np.pi)
        comps = [mobius_component(0, b, np.exp(1j * theta))]
    elif family in ("complex_hyperbolic_ball", "fubini_study"):
        u_mat = haar_unitary(m, rng)

        def rotation_component(i):
            def fn(zs):
                acc = jet_constant(0.0, zs[0].num_vars, zs[0].order, zs[0].points)
                for j in range(m):
                    acc = acc + u_mat[i, j] * zs[j]
                return acc

            return fn

        comps = [rotation_component(i) for i in range(m)]
    elif family == "poincare_polydisk":
        comps = []
        for k in range(m):
            b = 0.4 * (rng.normal() + 1j * rng.normal()) / np.sqrt(2.0)
            theta = rng.uniform(0, 2 * np.pi)
            comps.append(mobius_component(k, b, np.exp(1j * theta)))
    else:
        raise ConfigurationError(f"no isometry family known for chart {chart.label!r}")
    return HoloMap(chart, chart, comps, label=f"isometry[{chart.label}]")


def rayleigh_quotient(a, c, s: int):
    """c^{sβ̄}·A_{αβ̄}·c^{αs̄} / c^{ss̄}, with ``c`` the conjugated inverse of the metric.

    This is the Rayleigh quotient of the pencil (A, G) at row s of G^{-1}.
    ``a`` and ``c`` are square grids of numbers or of jets; one body serves
    both, since it only adds, multiplies and divides entries.
    """
    total = None
    for alpha in range(len(a)):
        for beta in range(len(a)):
            term = c[s][beta] * a[alpha][beta] * c[alpha][s]
            total = term if total is None else total + term
    return total / c[s][s]


# -- the stretch barrier ---------------------------------------------------------


class StretchBarrier:
    """Smooth minorant of ‖∂f‖²_m anchored at a point.

    Coordinates are renormalized at the anchor so the first frame
    direction realizes the top stretch; then
    W = g^{1β̄} A_{αβ̄} g^{α1̄} / g^{11̄} is a Rayleigh quotient of the
    pencil (A, g), so W ≤ ‖∂f‖²_m everywhere with equality at the
    anchor.
    """

    def __init__(self, holo_map: HoloMap, anchor):
        self.map = holo_map
        (stack,) = point_stacks(holo_map, anchor, 1)
        curvature = stack.curvature("domain").at(0)
        self.anchor_data = stack.stretch.at(0)
        self.domain_chart = _normal_chart_at(holo_map.domain, curvature,
                                             self.anchor_data.domain_frame)

    def chart_point(self, w) -> np.ndarray:
        """Anchored coordinates → original chart coordinates."""
        return apply_point(self.domain_chart.change, w)

    def value(self, w) -> float:
        """W at the anchored coordinates w."""
        change = self.domain_chart.change
        w = np.asarray(w, dtype=complex)
        data = point_data(self.map, apply_point(change, w))
        jac = jacobian(change, w)
        a_here = jac.T @ data.pullback @ np.conj(jac)
        g_here = jac.T @ data.g @ np.conj(jac)
        val = complex(rayleigh_quotient(a_here, np.conj(np.linalg.inv(g_here)), 0))
        if abs(val.imag) > 1e-10 * (1.0 + abs(val)):
            raise MetricError(f"barrier value has spurious imaginary part {val.imag:.3e}")
        return float(val.real)

    def max_norm_at(self, w) -> float:
        """True ‖∂f‖²_m at the chart point behind w (pencil invariant)."""
        return float(point_data(self.map, self.chart_point(w)).singular_sq[0])


# -- k-scalar quadrature -------------------------------------------------------------


def k_scalar_quadrature(
    cp: CurvaturePoint, frame: SubspaceFrame, count: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo spherical average of normalized H over the subspace.

    Returns (estimate, stderr) where the estimate is scaled by
    k(k+1)/2 so it targets the algebraic
    :func:`~kahlercheck.functionals.k_scalar` value.  Directions are
    drawn uniformly on the unit sphere of the subspace via normalized
    complex Gaussians.
    """
    if count < 100:
        raise ConfigurationError(f"quadrature needs at least 100 samples, got {count}")
    e = _check_frame(cp, frame)
    k = frame.k
    rng = rng_for(seed, 83)
    w = (rng.normal(size=(count, k)) + 1j * rng.normal(size=(count, k))) / np.sqrt(2.0)
    # normalized H is scale-invariant, so the Gaussians need no normalization
    dirs = w @ e.T  # rows are tangent vectors
    raw = np.einsum("abcd,na,nb,nc,nd->n", cp.riem, dirs, np.conj(dirs), dirs, np.conj(dirs))
    norms = np.einsum("na,ab,nb->n", dirs, cp.g, np.conj(dirs)).real
    samples = raw.real / norms**2
    scale = k * (k + 1) / 2.0
    estimate = scale * float(np.mean(samples))
    stderr = scale * float(np.std(samples, ddof=1) / np.sqrt(count))
    return estimate, stderr


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
    middle = float(rayleigh_quotient(a_mat, np.conj(np.linalg.inv(g_mat)), s).real)
    sup, inf = float(vals[-1]), float(vals[0])
    slack = 1e-10 * (1.0 + abs(sup))
    if not inf - slack <= middle <= sup + slack:
        raise DegenerateInputError(f"Rayleigh quotient {middle:.6e} outside [{inf:.6e}, {sup:.6e}]")
    return middle, sup, inf


# -- matrices of jets ----------------------------------------------------------


def jet_mat_trace(A: JetMatrix) -> WirtingerJet:
    acc = A[0][0]
    for i in range(1, len(A)):
        acc = acc + A[i][i]
    return acc


def mul_table_by_pairs(space) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I, J, K) of ``space.mul_table``, one pair of monomials at a time: each rank i
    paired with every rank j whose degree fits, and K looked up by exponent tuple."""
    I, J, K = [], [], []
    arr = np.array(space.monomials, dtype=np.intp)
    for i, ei in enumerate(space.monomials):
        cut = space._deg_start[space.order - sum(ei) + 1]
        sums = arr[:cut] + np.array(ei, dtype=np.intp)
        for j in range(cut):
            I.append(i)
            J.append(j)
            K.append(space.index[tuple(sums[j])])
    return tuple(np.array(t, dtype=np.intp) for t in (I, J, K))


# -- catalog families as expression charts -------------------------------------------


def expression_twin(family: str, dim: int = 1, scale: float = 1.0) -> KahlerChart:
    """The catalog ``family`` (with ``dim`` and a or c = ``scale``) as an expression chart:
    the same potential or metric, and the same domain."""
    abs2 = " + ".join(f"abs2(z{k})" for k in range(1, dim + 1))
    label = f"{family}_expr"
    if family == "flat":
        return PotentialChart(dim, abs2, FullSpace(dim), label)
    if family == "complex_hyperbolic_ball":
        return PotentialChart(dim, f"-{scale!r}*log(1 - ({abs2}))", Ball(dim), label)
    if family == "fubini_study":
        return PotentialChart(dim, f"{scale!r}*log(1 + {abs2})", FullSpace(dim), label)
    entries = [[f"{scale!r}/(1 - abs2(z{i + 1}))^2" if i == j else "0" for j in range(dim)]
               for i in range(dim)]
    return ComponentChart(dim, entries, Polydisk(dim, (1.0,) * dim), label)


# -- curvature sampling, one point and one sample at a time ------------------------


def sampled_bisectional(cp: CurvaturePoint, rng) -> float:
    """R(x, x̄, y, ȳ) at one point, at complex Gaussian x, then y, drawn from ``rng``."""
    dim = len(cp.g)
    x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return bisectional(cp, x, y)


def psh_hypotheses(quantity: str, stacks, seed: int) -> list[str]:
    """The refuted notes of :func:`~kahlercheck.identities.psh_check` at ``seed``."""
    rng = rng_for(seed, 41)
    refuted = []
    for stack in stacks:
        for k, p in enumerate(stack.points):
            cp_m, cp_n = stack.curvature("domain").at(k), stack.curvature("target").at(k)
            for _ in range(PSH_HYPOTHESIS_SAMPLES):
                if (bx := sampled_bisectional(cp_m, rng)) < -1e-9:
                    refuted.append(f"domain bisectional {bx:.3e} < 0 at {p}")
                if (bn := sampled_bisectional(cp_n, rng)) > 1e-9:
                    refuted.append(f"target bisectional {bn:.3e} > 0 at image of {p}")
            if quantity == "log_D" and (low := pencil_eigh(ricci(cp_m), cp_m.g)[0][0]) < -1e-9:
                refuted.append(f"domain Ricci eigenvalue {low:.3e} < 0 at {p}")
    return refuted


def three_circle_refuted(f: HoloMap, radii, seed: int) -> list[str]:
    """The refuted notes of :func:`~kahlercheck.bounds.three_circle_check` at ``seed``."""
    r2 = float(radii[1])
    rng = rng_for(seed, 73)
    probe = point_stacks(f, _sphere_points(r2, f.m, HYPOTHESIS_SAMPLES, seed + 1), 0)
    return [f"target bisectional {bn:.3e} > 0 near radius {r2}"
            for stack in probe for k in range(len(stack))
            if (bn := sampled_bisectional(stack.curvature("target").at(k), rng)) > 1e-9]


def sampled_range(stacks, role: str, quantity: str, seed: int) -> tuple[float, float]:
    """The (lo, hi) that a sampled constant or ``kahlercheck curvature`` reads."""
    lo, hi = np.inf, -np.inf
    rng = rng_for(seed, CURVATURE_STREAM)
    for cp in (stack.curvature(role).at(k) for stack in stacks for k in range(len(stack))):
        if quantity.startswith("hol_sec"):
            dim = len(cp.g)
            for _ in range(8):
                z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                value = holo_sectional(cp, z)[1]
                lo, hi = min(lo, value), max(hi, value)
        elif quantity.startswith("ricci"):
            vals = pencil_eigh(ricci(cp), cp.g)[0]
            lo, hi = min(lo, vals[0]), max(hi, vals[-1])
        else:
            value = scalar_curvature(cp)
            lo, hi = min(lo, value), max(hi, value)
    return lo, hi
