"""Holomorphic maps between charts and their pointwise invariants.

A map is stored as jet callables for its target components, so the
same object yields the pushforward, the pulled-back metric form, the
covariant Hessian, and the composition operations the identity checks
rely on.

Sample points are handled in stacks.  :func:`point_contexts` groups
consecutive points into stacks (:class:`PointStack`) of at most
``STACK_CHUNK`` points, and a stack owns the local data of f at its
points.  On first use it evaluates, once for all of its points, the
map's component jets, each chart's metric jets (and, for the identity
orders, the pulled-back form f*h) as jets with a trailing point axis
(see the jets module), and validates them at every point, naming the
first bad one.  Its stretch data, the stretch spectrum of ∂f as the
Hermitian-definite pencil (A, g) with adapted unitary frames in which
∂f is diagonal, runs f*h, the Cholesky frames, the solve and the SVD
once over the stack; only the phase normalization and the rank rule go
row by row.  One :class:`PointContext` per point reads its rows and
builds the rest of the local data on them: the curvature, the covariant
map Hessian, the energy and log-volume jets and the normal chart log_w
renormalizes in.  A context built alone is a stack of one point, so
there is one path, and a point's data is the same alone or in any
stack.  The contexts are shared by the checks of a scenario.

Frame conventions follow the linalg module: metric matrices pair as
``u @ G @ conj(v)``, frames are matrix columns, and a frame ``E`` is
g-unitary when ``E.T @ G @ conj(E) = I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expressions
from .errors import ConfigurationError, DomainError, HolomorphyError, MetricError
from .geometry import (
    ChartMap,
    CurvaturePoint,
    KahlerChart,
    PulledBackChart,
    _as_jet_function,
    _curvature_point,
    _metric_matrix,
    _normal_chart_at,
    _validated_metric,
    pullback_metric_jets,
)
from .jets import (
    WirtingerJet,
    at_point,
    derivative_block,
    first_bad,
    jet_constant,
    jet_mat_det,
    jet_mat_inv,
    jet_mat_mul,
    jet_mat_trace,
    jet_values,
    variable_jets,
)
from .linalg import cholesky_frame, haar_unitary, rayleigh_quotient, rng_for

HOLOMORPHY_TOL = 1e-12
RANK_RELATIVE_FLOOR = 1e-10
RANK_ABSOLUTE_FLOOR = 1e-30
# sample points per stack: bounds the jets and product temporaries alive at once
STACK_CHUNK = 1024


class HoloMap:
    """Holomorphic map f: domain chart (dim m) → target chart (dim n)."""

    def __init__(self, domain: KahlerChart, target: KahlerChart, components,
                 label: str = "f"):
        components = list(components)
        if len(components) != target.dim:
            raise ConfigurationError(
                f"{label}: target has dimension {target.dim}, got {len(components)} components"
            )
        self.domain = domain
        self.target = target
        self.label = label
        self._components = [
            _as_jet_function(c, domain.dim, f"{label} component {i + 1}",
                             expressions.check_holomorphic)
            for i, c in enumerate(components)
        ]

    @property
    def m(self) -> int:
        return self.domain.dim

    @property
    def n(self) -> int:
        return self.target.dim

    def component_jets(self, point, order: int) -> list[WirtingerJet]:
        """Jets of the target components at ``point``, or stacked at a (k, m) stack of points.

        Holomorphy and the image are validated at every point; an error
        names the first bad point of a stack.
        """
        pt = self.domain.require_inside(point)
        zs = variable_jets(pt, self.m, order)
        jets = []
        for i, fn in enumerate(self._components):
            val = fn(zs)
            bar_mass = _antiholomorphic_mass(val)
            bad = first_bad(bar_mass > HOLOMORPHY_TOL * (1.0 + np.max(np.abs(val.coeffs), axis=0)))
            if bad is not None:
                raise HolomorphyError(
                    f"{self.label} component {i + 1} is not holomorphic (antiholomorphic "
                    f"coefficient {np.ravel(bar_mass)[bad]:.3e}){at_point(val.points, bad)}"
                )
            jets.append(val)
        images = jet_values(jets).reshape(-1, self.n)
        bad = first_bad(~self.target.domain.inside(images))
        if bad is not None:
            raise DomainError(
                f"{self.label}: image {images[bad]} leaves the target domain "
                f"({self.target.domain}){at_point(jets[0].points, bad)}"
            )
        return jets

    def __repr__(self) -> str:
        return f"<HoloMap {self.label!r} {self.domain.label} -> {self.target.label}>"


def _antiholomorphic_mass(jet: WirtingerJet):
    """Largest barred coefficient, one per point of a stack."""
    ranks = jet.space.antiholomorphic
    return np.max(np.abs(jet.coeffs[ranks]), axis=0) if ranks.size else np.zeros(jet.points)


def pushforward(f: HoloMap, point) -> np.ndarray:
    """Matrix of first derivatives, P[i, α] = ∂f^i/∂z^α."""
    return PointContext(f, point, 1).pushforward


@dataclass(frozen=True)
class MapPointData:
    """Stretch data of ∂f at one point.

    ``singular_sq`` holds |λ_α|² in descending order (length m, padded
    with zeros when n < m).  ``domain_frame``/``target_frame`` are the
    adapted unitary frames: columns are g- resp. h-orthonormal and
    ``inv(T) @ P @ E`` is diag(λ) padded with zero rows.  Deterministic
    up to exactly repeated singular values: each domain-frame column
    has its first significant entry rotated to the positive real axis.
    """

    point: np.ndarray
    image: np.ndarray
    pushforward: np.ndarray
    pullback: np.ndarray
    singular_sq: np.ndarray
    domain_frame: np.ndarray
    target_frame: np.ndarray
    g: np.ndarray
    h: np.ndarray
    rank: int
    threshold: float


def _phase_normalized(u: np.ndarray, vh: np.ndarray, paired: int):
    """First significant entry of each right vector made real positive."""
    v = vh.conj().T.copy()
    u = u.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size == 0:
            continue
        phase = col[nz[0]] / abs(col[nz[0]])
        v[:, j] = col / phase
        if j < paired:
            u[:, j] = u[:, j] / phase
    for j in range(paired, u.shape[1]):
        col = u[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            u[:, j] = col / (col[nz[0]] / abs(col[nz[0]]))
    return u, v


def map_point_data(f: HoloMap, point) -> MapPointData:
    """Pullback form, stretch spectrum, and adapted frames at a point."""
    return PointContext(f, point, 1).data


def volume_ratio(f: HoloMap, point) -> float:
    """D = det(f*h)/det(g) = Π|λ_α|²; exactly 0 at rank-deficient points."""
    if f.m > f.n:
        raise ConfigurationError(
            f"volume ratio needs m <= n, got m={f.m}, n={f.n}"
        )
    data = map_point_data(f, point)
    if data.rank < f.m:
        return 0.0
    return float(np.prod(data.singular_sq))


def energy_density(f: HoloMap, point) -> float:
    """‖∂f‖² = g^{αβ̄}A_{αβ̄} = Σ|λ_α|²."""
    data = map_point_data(f, point)
    return float(np.trace(data.pullback @ np.linalg.inv(data.g)).real)


def max_norm(f: HoloMap, point) -> float:
    """‖∂f‖²_m = |λ_1|², the squared top stretch of ∂f."""
    return float(map_point_data(f, point).singular_sq[0])


def sigma_k(values: Sequence[float], k: int) -> float:
    """Elementary symmetric polynomial of degree k in the given values."""
    vals = [float(v) for v in values]
    if not 0 <= k <= len(vals):
        raise ConfigurationError(f"sigma_{k} undefined for {len(vals)} values")
    coeffs = np.zeros(k + 1)
    coeffs[0] = 1.0
    for v in vals:
        top = min(k, len(vals))
        for j in range(top, 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return float(coeffs[k])


def map_hessian(f: HoloMap, point) -> np.ndarray:
    """Covariant Hessian f^i_{α,β}, symmetric in (α, β); zero iff totally geodesic here.

    f^i_{α,β} = ∂²f^i/∂z^α∂z^β − Γ^γ_{αβ} ∂f^i/∂z^γ + Γ^i_{jk} f^j_α f^k_β,
    with the target symbols contracted symmetrically on both derivative slots.
    """
    return PointContext(f, point, 2).map_hessian


# -- the local data of a map at a stack of points -----------------------------------


class PointStack:
    """The local data of one map at up to ``STACK_CHUNK`` domain points, evaluated once for all.

    On first use the stack evaluates, as stacked jets, the map's component
    jets of order ``order`` at its points, each chart's metric jets (the
    domain's at the points, the target's at the images) and for identity
    orders the pulled-back form f*h.  Every validity check runs at every
    point and names the first bad one: holomorphy and the image with the
    component jets, the potential's realness with the metric jets, and the
    metric's Hermitian property and positive definiteness as soon as the
    metric jets exist, before any check reads them.  A :class:`PointContext`
    reads its row.
    """

    def __init__(self, f: HoloMap, points: np.ndarray, order: int):
        self.map = f
        self.points = points
        self.order = order
        self._metrics: dict[str, tuple[list, np.ndarray]] = {}

    @cached_property
    def component_jets(self) -> list[WirtingerJet]:
        return self.map.component_jets(self.points, self.order)

    @cached_property
    def image(self) -> np.ndarray:
        return jet_values(self.component_jets)

    @cached_property
    def pushforward(self) -> np.ndarray:
        """P[j, i, α] = ∂f^i/∂z^α at point j."""
        return derivative_block(self.component_jets, "grad")

    def metric(self, role: str, order: int = 0) -> tuple[list[list[WirtingerJet]], np.ndarray]:
        """Metric jets of the domain at the points or of the target at the images, of
        order ``max(order, self.order - 2)``, with the validated stack of metric matrices;
        asking for more than the stack holds evaluates the whole stack again."""
        have = self._metrics.get(role)
        if have is None or have[0][0][0].order < order:
            chart, at = ((self.map.domain, self.points) if role == "domain"
                         else (self.map.target, self.image))
            jets = chart.metric_jets(at, max(order, self.order - 2, 0))
            have = self._metrics[role] = (jets, _validated_metric(chart, _metric_matrix(jets)))
        return have

    @cached_property
    def pullback_jets(self) -> list[list[WirtingerJet]]:
        """Jets of f*h, order 2."""
        return pullback_metric_jets(self.map.target, self.component_jets, 2)

    @cached_property
    def stretch(self) -> list[MapPointData]:
        """Pullback form, stretch spectrum and adapted frames of ∂f at every point.

        f*h, the Cholesky frames, the solve and the SVD run once over the
        stack; the phase normalization and the rank rule stay per row, so a
        point's data does not depend on the points stacked with it.
        """
        m = self.map.m
        p_mat = self.pushforward
        g = self.metric("domain")[1]
        h = self.metric("target")[1]
        pullback = p_mat.swapaxes(-1, -2) @ h @ np.conj(p_mat)
        pullback = 0.5 * (pullback + np.conj(pullback).swapaxes(-1, -2))
        cg = cholesky_frame(g)
        ch = cholesky_frame(h)
        u_all, s_all, vh_all = np.linalg.svd(np.linalg.solve(ch, p_mat @ cg))
        data = []
        for k, s in enumerate(s_all):
            u, v = _phase_normalized(u_all[k], vh_all[k], paired=len(s))
            singular_sq = np.zeros(m)
            singular_sq[: len(s)] = s[:m] ** 2
            threshold = RANK_RELATIVE_FLOOR * max(float(singular_sq[0]) if m else 0.0,
                                                  RANK_ABSOLUTE_FLOOR)
            data.append(MapPointData(
                point=self.points[k],
                image=self.image[k],
                pushforward=p_mat[k],
                pullback=pullback[k],
                singular_sq=singular_sq,
                domain_frame=cg[k] @ v,
                target_frame=ch[k] @ u,
                g=g[k],
                h=h[k],
                rank=int(np.count_nonzero(singular_sq > threshold)),
                threshold=threshold,
            ))
        return data


class PointContext:
    """Everything the checks read of one map at one domain point.

    Each piece is computed on first use and kept.  The component jets
    (of order ``order``), the image, g and h, the stretch data, the metric
    jets and the pulled-back form f*h are the context's row of its
    :class:`PointStack`; a context built alone is a stack of one point.
    Both curvature points, the covariant map Hessian, the energy and
    log-volume jets and the normal chart that log_w renormalizes in are
    built per point on those rows.  Curvature reads metric jets of order 2,
    so asking it of a context of order below 4 raises its stack's metric
    order, for all of the stack's points.

    A context belongs to whoever built it: ``run_scenario`` builds one per
    sample point, hands the list to every check and drops it on return.
    """

    def __init__(self, f: HoloMap, point, order: int, stack: PointStack | None = None,
                 row: int = 0):
        self.map = f
        self.point = np.asarray(point, dtype=complex)
        self.order = order
        self.stack = stack if stack is not None else PointStack(f, self.point[None, :], order)
        self.row = row

    def _row(self, grid) -> list[list[WirtingerJet]]:
        return [[entry.at(self.row) for entry in line] for line in grid]

    def _metric_row(self, role: str) -> list[list[WirtingerJet]]:
        """Order-2 metric jets of the domain at the point or of the target at the image."""
        return self._row(self.stack.metric(role, 2)[0])

    @cached_property
    def component_jets(self) -> list[WirtingerJet]:
        return [jet.at(self.row) for jet in self.stack.component_jets]

    @cached_property
    def image(self) -> np.ndarray:
        return self.stack.image[self.row]

    @cached_property
    def pushforward(self) -> np.ndarray:
        """P[i, α] = ∂f^i/∂z^α."""
        return self.stack.pushforward[self.row]

    @cached_property
    def g(self) -> np.ndarray:
        return self.stack.metric("domain")[1][self.row]

    @cached_property
    def h(self) -> np.ndarray:
        return self.stack.metric("target")[1][self.row]

    @property
    def data(self) -> MapPointData:
        """Pullback form, stretch spectrum and adapted frames of ∂f."""
        return self.stack.stretch[self.row]

    @cached_property
    def domain_curvature(self) -> CurvaturePoint:
        return _curvature_point(self.map.domain, self.point, self._metric_row("domain"), self.g)

    @cached_property
    def target_curvature(self) -> CurvaturePoint:
        return _curvature_point(self.map.target, self.image, self._metric_row("target"), self.h)

    @cached_property
    def map_hessian(self) -> np.ndarray:
        p_mat = self.pushforward
        raw = derivative_block(self.component_jets, "hess")
        correction_dom = np.einsum("gab,ig->iab", self.domain_curvature.gamma, p_mat)
        correction_tgt = np.einsum("ijk,ja,kb->iab", self.target_curvature.gamma, p_mat, p_mat)
        return raw - correction_dom + correction_tgt

    @cached_property
    def pullback_jets(self) -> list[list[WirtingerJet]]:
        """Jets of f*h, order 2."""
        return self._row(self.stack.pullback_jets)

    @cached_property
    def energy_jet(self) -> WirtingerJet:
        """Jet of ‖∂f‖² = tr(g^{-1}·f*h), order 2."""
        g_jets = self._metric_row("domain")
        return jet_mat_trace(jet_mat_mul(jet_mat_inv(g_jets), self.pullback_jets))

    @cached_property
    def log_volume_jet(self) -> WirtingerJet:
        """Jet of log D = log det(f*h) − log det g, order 2."""
        g_jets = self._metric_row("domain")
        return jet_mat_det(self.pullback_jets).log() - jet_mat_det(g_jets).log()

    @cached_property
    def normal_chart(self) -> PulledBackChart:
        """Normal coordinates at the point whose axes are the adapted domain frame."""
        return _normal_chart_at(self.map.domain, self.domain_curvature, self.data.domain_frame)


def point_contexts(f: HoloMap, points, order: int) -> list[PointContext]:
    """One context per sample point, for checks that need jets of order ``order``.

    ``points`` is a (k, m) array (one point may be given as a flat row)
    or a list of contexts already built for ``f`` at that order or above.
    New contexts share stacks of at most ``STACK_CHUNK`` consecutive points.
    """
    if isinstance(points, (list, tuple)) and points and isinstance(points[0], PointContext):
        for ctx in points:
            if not isinstance(ctx, PointContext) or ctx.map is not f:
                raise ConfigurationError(f"contexts were built for another map than {f.label}")
            if ctx.order < order:
                raise ConfigurationError(
                    f"contexts carry jets of order {ctx.order}, this check needs {order}"
                )
        return list(points)
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != f.m or len(pts) == 0:
        raise ConfigurationError(f"points must have shape (k, {f.m}) with k >= 1, got {pts.shape}")
    contexts = []
    for start in range(0, len(pts), STACK_CHUNK):
        stack = PointStack(f, pts[start:start + STACK_CHUNK], order)
        contexts.extend(PointContext(f, point, order, stack, row)
                        for row, point in enumerate(stack.points))
    return contexts


# -- composition ---------------------------------------------------------------


def precompose(f: HoloMap, change: ChartMap, label: str | None = None) -> HoloMap:
    """f ∘ ψ as a map from the pulled-back domain chart."""
    new_domain = PulledBackChart(f.domain, change, label=f"pulled[{f.domain.label}]")

    def component(i):
        def fn(ws):
            return f._components[i](change.on_jets(ws))

        return fn

    return HoloMap(
        new_domain,
        f.target,
        [component(i) for i in range(f.n)],
        label=label or f"{f.label}∘ψ",
    )


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
    family = getattr(chart, "family", None)
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
        anchor_ctx = PointContext(holo_map, anchor, 1)
        self.anchor_data = anchor_ctx.data
        self.domain_chart = anchor_ctx.normal_chart

    def chart_point(self, w) -> np.ndarray:
        """Anchored coordinates → original chart coordinates."""
        return self.domain_chart.change.apply_point(np.asarray(w, dtype=complex))

    def value(self, w) -> float:
        """W at the anchored coordinates w."""
        change = self.domain_chart.change
        w = np.asarray(w, dtype=complex)
        data = map_point_data(self.map, change.apply_point(w))
        jac = change.jacobian(w)
        a_here = jac.T @ data.pullback @ np.conj(jac)
        g_here = jac.T @ data.g @ np.conj(jac)
        val = complex(rayleigh_quotient(a_here, np.conj(np.linalg.inv(g_here)), 0))
        if abs(val.imag) > 1e-10 * (1.0 + abs(val)):
            raise MetricError(f"barrier value has spurious imaginary part {val.imag:.3e}")
        return float(val.real)

    def max_norm_at(self, w) -> float:
        """True ‖∂f‖²_m at the chart point behind w (pencil invariant)."""
        return max_norm(self.map, self.chart_point(w))


def barrier_w(f: HoloMap, anchor, w) -> float:
    """One-shot evaluation of the anchored barrier at offset w."""
    return StretchBarrier(f, anchor).value(w)
