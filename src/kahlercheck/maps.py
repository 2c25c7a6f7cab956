"""Holomorphic maps between charts and their pointwise invariants.

A map is stored as jet callables for its target components, so one
object yields the pushforward, f*h, the covariant Hessian and compositions.

Sample points are handled in stacks.  :func:`point_stacks` groups
consecutive points into stacks (:class:`PointStack`) of at most
``STACK_CHUNK`` points.  A stack evaluates the local data of f once for
all of its points, as jets with a trailing point axis (see the jets
module) or arrays with a leading one, validated at every point; the
checks read a point's row, and the curvature and stretch data give one
point's data by ``.at(k)``.  A one-point stack holds the same data as
that row of any stack, bit for bit.

Frame conventions follow the linalg module: metric matrices pair as
``u @ G @ conj(v)``, frames are matrix columns, and a frame ``E`` is
g-unitary when ``E.T @ G @ conj(E) = I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from . import expressions
from .errors import (ConfigurationError, DomainError, HolomorphyError, MetricError,
                     MultiplicityError, RankError)
from .geometry import (
    ChartMap,
    CurvaturePoint,
    KahlerChart,
    _as_jet_function,
    _checked_metric,
    _curvature_point,
    _normal_chart_at,
    pullback_metric_jets,
)
from .jets import (
    SINGULAR_FLOOR,
    WirtingerJet,
    all_finite,
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
# relative gap below which the top stretch counts as repeated and log W is not taken
GAP_FLOOR = 1e-8
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
        """Jets of the target components at ``point``, or stacked at a (k, m) stack of points."""
        return self.on_jets(variable_jets(self.domain.require_inside(point), self.m, order))

    def on_jets(self, zs) -> list[WirtingerJet]:
        """The target components on jets ``zs`` of the domain coordinates, finite, with
        holomorphy and the image validated at every point; an error names the first bad one."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            jets = [fn(zs) for fn in self._components]
        bad = first_bad(~all_finite(jets))
        if bad is not None:
            raise DomainError(f"{self.label}: the map overflows at the domain point "
                              f"{jet_values(zs).reshape(-1, self.m)[bad].tolist()}")
        for i, val in enumerate(jets):
            bar_mass = _antiholomorphic_mass(val)
            bad = first_bad(bar_mass > HOLOMORPHY_TOL * (1.0 + np.max(np.abs(val.coeffs), axis=0)))
            if bad is not None:
                raise HolomorphyError(
                    f"{self.label} component {i + 1} is not holomorphic (antiholomorphic "
                    f"coefficient {np.ravel(bar_mass)[bad]:.3e}){at_point(val.points, bad)}"
                )
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


@dataclass(frozen=True)
class MapPointData:
    """Stretch data of ∂f at every point of a stack, the point axis first.

    ``singular_sq`` holds |λ_α|² in descending order (length m, padded
    with zeros when n < m).  ``domain_frame``/``target_frame`` are the
    adapted unitary frames: columns are g- resp. h-orthonormal and
    ``inv(T) @ P @ E`` is diag(λ) padded with zero rows.  Deterministic
    up to exactly repeated singular values: each domain-frame column
    has its first significant entry rotated to the positive real axis.
    :meth:`at` gives one point's data.
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
    rank: np.ndarray
    threshold: np.ndarray

    def at(self, index: int) -> "MapPointData":
        """The data at point ``index`` of a stack."""
        return MapPointData(*(getattr(self, name)[index] for name in self.__dataclass_fields__))


def _lead_phases(cols: np.ndarray) -> np.ndarray:
    """Per column of a stack of matrices, the phase of its first entry above 1e-12 in
    modulus, and 1 for a column with none."""
    significant = np.abs(cols) > 1e-12
    lead = np.take_along_axis(cols, significant.argmax(axis=-2)[..., None, :], axis=-2)[..., 0, :]
    lead = np.where(significant.any(axis=-2), lead, 1.0)
    # hypot rounds like abs() of one complex number; np.abs of an array may not
    return lead / np.hypot(lead.real, lead.imag)


def _phase_normalized(u: np.ndarray, vh: np.ndarray, paired: int):
    """First significant entry of each right vector made real positive, over a stack of SVDs;
    the left vectors turn with their right vector or, unpaired, by their own first entry."""
    v = vh.conj().swapaxes(-1, -2)
    v_phases = _lead_phases(v)
    u_phases = np.concatenate([v_phases[..., :paired], _lead_phases(u[..., paired:])], axis=-1)
    return u / u_phases[..., None, :], v / v_phases[..., None, :]


def map_point_data(f: HoloMap, point) -> MapPointData:
    """Pullback form, stretch spectrum, and adapted frames at a point."""
    return point_stacks(f, point, 1)[0].stretch.at(0)


def map_hessian(f: HoloMap, point) -> np.ndarray:
    """Covariant Hessian f^i_{α,β}, symmetric in (α, β); zero iff totally geodesic here.

    f^i_{α,β} = ∂²f^i/∂z^α∂z^β − Γ^γ_{αβ} ∂f^i/∂z^γ + Γ^i_{jk} f^j_α f^k_β,
    with the target symbols contracted symmetrically on both derivative slots.
    """
    return point_stacks(f, point, 2)[0].map_hessian[0]


# -- the local data of a map at a stack of points -----------------------------------


class PointStack:
    """The local data of one map at up to ``STACK_CHUNK`` domain points, evaluated once for all.

    Each piece is computed on first use for every point and kept: the
    component jets of order ``order``, each chart's metric jets (the domain's
    at the points, the target's at the images) and curvature, f*h, the
    covariant Hessian of f, the stretch data, and the energy, log-volume and
    log-W jets.  Arrays and jets carry the point axis (first for arrays, last
    for jet coefficients); only the skip rules of log D and log W and the
    normal-chart changes go row by row.  Every validity check runs at every
    point and names the first bad one.  Curvature reads metric jets of order
    2, so asking it of a stack of order below 4 raises the stack's metric order.
    """

    def __init__(self, f: HoloMap, points: np.ndarray, order: int):
        self.map = f
        self.points = points
        self.order = order
        self._metrics: dict[str, tuple[list, np.ndarray]] = {}
        self._curvature: dict[str, CurvaturePoint] = {}

    def __len__(self) -> int:
        return len(self.points)

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

    def _chart(self, role: str) -> tuple[KahlerChart, np.ndarray]:
        return ((self.map.domain, self.points) if role == "domain"
                else (self.map.target, self.image))

    def metric(self, role: str, order: int = 0) -> tuple[list[list[WirtingerJet]], np.ndarray]:
        """Metric jets of the domain at the points or of the target at the images, of
        order ``max(order, self.order - 2)``, with the validated stack of metric matrices;
        asking for more than the stack holds evaluates the whole stack again."""
        have = self._metrics.get(role)
        if have is None or have[0][0][0].order < order:
            chart, at = self._chart(role)
            have = self._metrics[role] = _checked_metric(
                chart, at, max(order, self.order - 2, 0), f"{role} point")
        return have

    def curvature(self, role: str) -> CurvaturePoint:
        """Curvature of the domain at the points or of the target at the images."""
        if role not in self._curvature:
            jets, g = self.metric(role, 2)
            self._curvature[role] = _curvature_point(*self._chart(role), jets, g)
        return self._curvature[role]

    @cached_property
    def map_hessian(self) -> np.ndarray:
        """H[j, i, α, β] = f^i_{α,β} at point j (see :func:`map_hessian`)."""
        p_mat = self.pushforward
        raw = derivative_block(self.component_jets, "hess")
        correction_dom = np.einsum("...gab,...ig->...iab", self.curvature("domain").gamma, p_mat)
        correction_tgt = np.einsum("...ijk,...ja,...kb->...iab", self.curvature("target").gamma,
                                   p_mat, p_mat)
        return raw - correction_dom + correction_tgt

    @cached_property
    def pullback_jets(self) -> list[list[WirtingerJet]]:
        """Jets of f*h, order 2."""
        return pullback_metric_jets(self.map.target, self.component_jets, 2)

    @cached_property
    def energy_jet(self) -> WirtingerJet:
        """Jet of ‖∂f‖² = tr(g^{-1}·f*h), order 2."""
        return jet_mat_trace(jet_mat_mul(jet_mat_inv(self.metric("domain", 2)[0]),
                                         self.pullback_jets))

    @cached_property
    def log_volume_jets(self) -> list:
        """Per point, the jet of log D = log det(f*h) − log det g (order 2), or why not."""
        m = self.map.m
        skips = [None if rank >= m else
                 (RankError, f"rank {rank} < {m} at {point}; log D is singular here")
                 for rank, point in zip(self.stretch.rank, self.points)]
        return self._logs(skips, "log D", lambda a, b: a.log() - b.log(), lambda rows: [
            jet_mat_det([[entry.at(rows) for entry in line] for line in grid])
            for grid in (self.pullback_jets, self.metric("domain", 2)[0])])

    @cached_property
    def log_w_jets(self) -> list:
        """Per point, the jet of log W (order 2), or why its top stretch is not simple and nonzero.

        W is :class:`StretchBarrier`'s quotient, in the normal chart with the adapted
        domain frame as axes; the charts' changes are stacked, each checked alone."""
        f = self.map

        def w_jet(rows):
            curvature, frames = self.curvature("domain"), self.stretch.domain_frame
            changes = [_normal_chart_at(f.domain, curvature.at(k), frames[k]).change for k in rows]
            change = ChartMap(*(np.stack(parts, axis=-1) for parts in
                                zip(*((c.base, c.linear, c.quad) for c in changes))))
            zs = change.on_jets(variable_jets(np.zeros((len(rows), f.m)), f.m, self.order))
            a_jets = pullback_metric_jets(f.target, f.on_jets(zs), 2)
            c_jets = [[entry.conj() for entry in line]
                      for line in jet_mat_inv(f.domain.pullback_jets(zs, 2))]
            return [rayleigh_quotient(a_jets, c_jets, 0)]

        return self._logs([_log_w_skip(self.stretch.at(k), f.m) for k in range(len(self))],
                          "log W", WirtingerJet.log, w_jet)

    def _logs(self, skips: list, what: str, log, build) -> list:
        """``skips`` with ``log(*build(rows))`` filled in at the rows it leaves None, where
        ``build`` stacks the log's arguments.  A row where an argument's constant term is
        at or below ``SINGULAR_FLOOR`` is skipped as singular, so the log meets none."""
        rows = [k for k, skip in enumerate(skips) if skip is None]
        if rows:
            stacked = build(rows)
            low = np.min([np.abs(arg.value) for arg in stacked], axis=0)
            for j in np.flatnonzero(low <= SINGULAR_FLOOR):
                skips[rows[j]] = (RankError, f"{what} is singular at {self.points[rows[j]]} "
                                             f"(log argument {low[j]:.3e} <= {SINGULAR_FLOOR:g})")
            kept = np.flatnonzero(low > SINGULAR_FLOOR)
            jet = log(*(arg.at(kept) for arg in stacked)) if kept.size else None
            for j, col in enumerate(kept):
                skips[rows[col]] = jet.at(j)
        return skips

    @cached_property
    def stretch(self) -> MapPointData:
        """Pullback form, stretch spectrum and adapted frames of ∂f at every point.

        f*h, the Cholesky frames, the solve, the SVD, the phase normalization and
        the rank rule each run once over the stack and treat every point alike, so
        a point's data does not depend on the points stacked with it.
        """
        m = self.map.m
        p_mat = self.pushforward
        g = self.metric("domain")[1]
        h = self.metric("target")[1]
        cg = cholesky_frame(g)
        ch = cholesky_frame(h)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            pullback = p_mat.swapaxes(-1, -2) @ h @ np.conj(p_mat)
            pullback = 0.5 * (pullback + np.conj(pullback).swapaxes(-1, -2))
            scaled = np.linalg.solve(ch, p_mat @ cg)
            # the Frobenius norm bounds the top singular value, so |λ_1|² is finite below it
            size = np.abs(pullback).sum(axis=(-2, -1)) + (np.abs(scaled) ** 2).sum(axis=(-2, -1))
        bad = first_bad(~np.isfinite(size))
        if bad is not None:
            raise DomainError(f"{self.map.label}: the stretch of ∂f overflows at the domain "
                              f"point {self.points[bad].tolist()}")
        u, s, vh = np.linalg.svd(scaled)
        u, v = _phase_normalized(u, vh, paired=s.shape[-1])
        singular_sq = np.zeros((len(self), m))
        singular_sq[:, : s.shape[-1]] = s[:, :m] ** 2
        threshold = RANK_RELATIVE_FLOOR * np.maximum(singular_sq[:, 0], RANK_ABSOLUTE_FLOOR)
        return MapPointData(
            point=self.points,
            image=self.image,
            pushforward=p_mat,
            pullback=pullback,
            singular_sq=singular_sq,
            domain_frame=cg @ v,
            target_frame=ch @ u,
            g=g,
            h=h,
            rank=np.count_nonzero(singular_sq > threshold[:, None], axis=-1),
            threshold=threshold,
        )


def _log_w_skip(data: MapPointData, m: int):
    """The rule for log W: why ∂f vanishes or its top stretch is not simple, else None."""
    if data.rank < 1:
        return RankError, f"∂f vanishes at {data.point}"
    top = float(data.singular_sq[0])
    gap = (top - float(data.singular_sq[1])) / top if m >= 2 else 1.0
    if gap < GAP_FLOOR:
        return (MultiplicityError,
                f"top stretch nearly repeated at {data.point} (relative gap {gap:.2e})")
    return None


def kept_jet(entry) -> WirtingerJet:
    """A point's entry of :attr:`PointStack.log_volume_jets` or ``log_w_jets``: its jet, or
    the error that says why its stack skipped the point (RankError, MultiplicityError)."""
    if isinstance(entry, WirtingerJet):
        return entry
    raise entry[0](entry[1])


def point_stacks(f: HoloMap, points, order: int) -> list[PointStack]:
    """The sample points in stacks of at most ``STACK_CHUNK`` consecutive points, for checks
    that need jets of order ``order``.

    ``points`` is a (k, m) array (one point may be given as a flat row)
    or a list of stacks already built for ``f`` at that order or above.
    """
    if isinstance(points, (list, tuple)) and points and isinstance(points[0], PointStack):
        for stack in points:
            if not isinstance(stack, PointStack) or stack.map is not f:
                raise ConfigurationError(f"stacks were built for another map than {f.label}")
            if stack.order < order:
                raise ConfigurationError(
                    f"stacks carry jets of order {stack.order}, this check needs {order}"
                )
        return list(points)
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != f.m or len(pts) == 0:
        raise ConfigurationError(f"points must have shape (k, {f.m}) with k >= 1, got {pts.shape}")
    return [PointStack(f, pts[start:start + STACK_CHUNK], order)
            for start in range(0, len(pts), STACK_CHUNK)]


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
        self.anchor_data = stack.stretch.at(0)
        self.domain_chart = _normal_chart_at(holo_map.domain, stack.curvature("domain").at(0),
                                             self.anchor_data.domain_frame)

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
        return float(map_point_data(self.map, self.chart_point(w)).singular_sq[0])
