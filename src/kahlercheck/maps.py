"""Holomorphic maps between charts and their pointwise invariants.

A map is stored as jet callables for its target components, so one
object yields the pushforward, f*h and the covariant Hessian.  A map
whose components are all polynomials also keeps their monomials
(``HoloMap.monomials``), and its component jets at sample points come
from them in closed form (:func:`~kahlercheck.jets.polynomial_jets`);
any other map is evaluated as expression trees or callables on
coordinate jets.  Either way the jets are checked finite, holomorphic
and inside the target at every point.

Sample points are handled in stacks.  :func:`point_stacks` groups
consecutive points into stacks (:class:`PointStack`) of at most
``STACK_CHUNK`` points.  A stack evaluates the local data of f once for
all of its points, as jets with a trailing point axis (see the jets
module) or arrays with a leading one, validated at every point; the
checks read a point's row, and the curvature and stretch data give one
point's data by ``.at(k)``.  A one-point stack holds the same data as
that row of any stack, bit for bit.  Its stretch data, covariant Hessian
and curvature are :func:`map_point_data`, :func:`map_hessian` and
:func:`~kahlercheck.geometry.curvature_tensor`, called by module name.
A catalog chart's ``model`` gives its metric matrices, its curvature
and, as a domain, its g⁻¹ and log det g jets in closed form, so a stack
evaluates metric jets only on expression charts.

Frame conventions follow the linalg module: metric matrices pair as
``u @ G @ conj(v)``, frames are matrix columns, and a frame ``E`` is
g-unitary when ``E.T @ G @ conj(E) = I``.  The adapted frames are the
SVD's own, each column fixed only up to a unit phase that no check reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
import numpy as np

from . import expressions
from .errors import (ConfigurationError, DomainError, HolomorphyError, MultiplicityError,
                     RankError)
from .geometry import (
    CurvaturePoint,
    KahlerChart,
    _as_jet_function,
    _checked_metric,
    _closed_inverse_jets,
    _normal_chart_parts,
    curvature_tensor,
    pullback_metric_jets,
)
from .jets import (
    SINGULAR_FLOOR,
    WirtingerJet,
    at_point,
    derivative_block,
    first_bad,
    jet_constant,
    jet_mat_det,
    jet_mat_inv,
    jet_mat_mul,
    jet_values,
    polynomial_jets,
    quadratic_jet,
    variable_jets,
)
from .linalg import cholesky_frame

HOLOMORPHY_TOL = 1e-12
RANK_RELATIVE_FLOOR = 1e-10
RANK_ABSOLUTE_FLOOR = 1e-30
# relative gap below which the top stretch counts as repeated and log W is not taken
GAP_FLOOR = 1e-8
# sample points per stack: bounds the jets and product temporaries alive at once
STACK_CHUNK = 1024


class HoloMap:
    """Holomorphic map f: domain chart (dim m) → target chart (dim n).

    When every component is a polynomial (expression text :func:`expressions.polynomial`
    expands, or a number), ``monomials`` holds each one as ``{exponent tuple: coefficient}``
    with one exponent per domain variable, and the component jets at sample points come from
    them in closed form.  Otherwise ``monomials`` is None and every component is evaluated
    as an expression tree or a callable.
    """

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
        labels = [f"{label} component {i + 1}" for i in range(len(components))]
        monomials = []
        for source, what in zip(components, labels):
            poly = _monomials(source, domain.dim, what)
            if poly is None:  # the tree path reports the components' errors in order
                break
            monomials.append(poly)
        if len(monomials) == len(components):
            self.monomials: list[dict] | None = monomials
            self._components = [partial(_monomial_jet, poly) for poly in monomials]
        else:
            self.monomials = None
            self._components = [_as_jet_function(c, domain.dim, what, holomorphic=True)
                                for c, what in zip(components, labels)]

    @property
    def m(self) -> int:
        return self.domain.dim

    @property
    def n(self) -> int:
        return self.target.dim

    def component_jets(self, point, order: int) -> list[WirtingerJet]:
        """Jets of the target components at ``point``, or stacked at a (k, m) stack of points:
        a polynomial map's from its monomials, any other's on coordinate jets."""
        point = self.domain.require_inside(point)
        if self.monomials is None:
            return self.on_jets(variable_jets(point, self.m, order))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            jets = polynomial_jets(self.monomials, point, order)
        return self._validated(jets, point)

    def on_jets(self, zs) -> list[WirtingerJet]:
        """The target components on jets ``zs`` of the domain coordinates (see
        :meth:`_validated`)."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            jets = [fn(zs) for fn in self._components]
        return self._validated(jets, jet_values(zs))

    def _validated(self, jets: list[WirtingerJet], points) -> list[WirtingerJet]:
        """``jets`` of the components at the domain ``points``, finite, with holomorphy and
        the image validated at every point; an error names the first bad one."""
        coeffs = np.stack([jet.coeffs for jet in jets])  # (n, size, *points)
        bad = first_bad(~np.isfinite(coeffs).all(axis=(0, 1)))
        if bad is not None:
            raise DomainError(f"{self.label}: the map overflows at the domain point "
                              f"{np.reshape(points, (-1, self.m))[bad].tolist()}")
        bar_mass = np.max(np.abs(coeffs[:, jets[0].space.antiholomorphic]), axis=1,
                          initial=0.0)  # (n, *points)
        if bar_mass.any():  # a holomorphic expression gives exact zeros
            unholomorphic = bar_mass > HOLOMORPHY_TOL * (1.0 + np.max(np.abs(coeffs), axis=1))
            bad_components = np.flatnonzero(unholomorphic.reshape(len(jets), -1).any(axis=1))
            if bad_components.size:
                i = bad_components[0]
                bad = first_bad(unholomorphic[i])
                raise HolomorphyError(
                    f"{self.label} component {i + 1} is not holomorphic (antiholomorphic "
                    f"coefficient {np.ravel(bar_mass[i])[bad]:.3e}){at_point(jets[i].points, bad)}"
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


def _monomials(source, dim: int, label: str) -> dict | None:
    """A component's monomials with one exponent per domain variable, or None if it is not a
    polynomial: a callable, an AST, or text :func:`expressions.polynomial` does not expand."""
    if isinstance(source, (int, float, complex)) and not isinstance(source, bool):
        return {(0,) * dim: complex(source)}
    poly = expressions.polynomial(source, label) if isinstance(source, str) else None
    if poly is None:
        return None
    count = len(next(iter(poly)))
    expressions.require_dimension(count - 1, dim, label)
    pad = (0,) * (dim - count)
    return {beta + pad: c for beta, c in poly.items()}


def _monomial_jet(poly: dict, zs) -> WirtingerJet:
    """Σ c_β z^β on coordinate jets ``zs``, from jet products."""
    powers: dict = {}
    acc = jet_constant(0.0, zs[0].num_vars, zs[0].order, zs[0].points)
    for beta, c in poly.items():
        monomial = None
        for k, e in enumerate(beta):
            if e:
                if (k, e) not in powers:
                    powers[k, e] = zs[k] ** e
                monomial = powers[k, e] if monomial is None else monomial * powers[k, e]
        acc = acc + (c if monomial is None else monomial * c)
    return acc


@dataclass(frozen=True)
class MapPointData:
    """Stretch data of ∂f at every point of a stack, the point axis first.

    ``singular_sq`` holds |λ_α|² in descending order (length m, padded
    with zeros when n < m).  ``domain_frame``/``target_frame`` are the
    adapted unitary frames: columns are g- resp. h-orthonormal and
    ``inv(T) @ P @ E`` is diag(λ) padded with zero rows; each column is
    fixed only up to a unit phase, shared by a paired domain and target
    column.  :meth:`at` gives one point's data.
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

    def at(self, index: int) -> "MapPointData":
        """The data at point ``index`` of a stack."""
        return MapPointData(*(getattr(self, name)[index] for name in self.__dataclass_fields__))


def map_point_data(stack: "PointStack") -> MapPointData:
    """Pullback form, stretch spectrum and adapted frames of ∂f at every point of a stack.

    f*h, the Cholesky frames, the solve, the SVD and the rank rule each run once
    over the stack and treat every point alike, so a point's data does not depend
    on the points stacked with it.
    """
    m = stack.map.m
    p_mat = stack.pushforward
    g = stack.metric("domain")[1]
    h = stack.metric("target")[1]
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
        raise DomainError(f"{stack.map.label}: the stretch of ∂f overflows at the domain "
                          f"point {stack.points[bad].tolist()}")
    u, s, vh = np.linalg.svd(scaled)
    singular_sq = np.zeros((len(stack), m))
    singular_sq[:, : s.shape[-1]] = s[:, :m] ** 2
    threshold = RANK_RELATIVE_FLOOR * np.maximum(singular_sq[:, 0], RANK_ABSOLUTE_FLOOR)
    return MapPointData(
        point=stack.points,
        image=stack.image,
        pushforward=p_mat,
        pullback=pullback,
        singular_sq=singular_sq,
        domain_frame=cg @ vh.conj().swapaxes(-1, -2),
        target_frame=ch @ u,
        g=g,
        h=h,
        rank=np.count_nonzero(singular_sq > threshold[:, None], axis=-1),
    )


def map_hessian(stack: "PointStack") -> np.ndarray:
    """Covariant Hessian H[j, i, α, β] = f^i_{α,β} at every point j of a stack, symmetric in
    (α, β); zero at a point iff f is totally geodesic there.

    f^i_{α,β} = ∂²f^i/∂z^α∂z^β − Γ^γ_{αβ} ∂f^i/∂z^γ + Γ^i_{jk} f^j_α f^k_β,
    with the target symbols contracted symmetrically on both derivative slots.
    """
    p_mat = stack.pushforward
    raw = derivative_block(stack.component_jets, "hess")
    correction_dom = np.einsum("...gab,...ig->...iab", stack.curvature("domain").gamma, p_mat)
    correction_tgt = np.einsum("...ijk,...ja,...kb->...iab", stack.curvature("target").gamma,
                               p_mat, p_mat)
    return raw - correction_dom + correction_tgt


# -- the local data of a map at a stack of points -----------------------------------


class PointStack:
    """The local data of one map at up to ``STACK_CHUNK`` domain points, evaluated once for all.

    Each piece is computed on first use for every point and kept: the
    component jets of order ``order``, each chart's metric matrices, metric jets
    and curvature (the domain's at the points, the target's at the images), f*h,
    the covariant Hessian of f, the stretch data, the jets of g^{-1}, and the
    energy, log(1 + energy), log-volume and log-W jets.  Arrays and jets carry the point
    axis (first for arrays, last for jet coefficients); only the skip rules of
    log D and log W go row by row.  Every validity check runs at every point and
    names the first bad one.  An expression chart's metric jets are of order
    ``max(order - 2, 0)``, or 2 when its curvature reads them first.  A catalog
    chart's matrices, g⁻¹, Γ and R come from its model, and so do a catalog
    domain's jets of g⁻¹ and log det g: no catalog chart evaluates metric jets.
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

    def metric(self, role: str, least: int = 0) -> tuple[list | None, np.ndarray]:
        """Metric jets of the domain at the points or of the target at the images, of
        order ``max(self.order - 2, least)`` when first asked for, with the validated stack
        of metric matrices.  A catalog chart's matrices come from its model, and
        its jets are None."""
        if role not in self._metrics:
            chart, at = self._chart(role)
            self._metrics[role] = _checked_metric(chart, at, max(self.order - 2, least),
                                                  f"{role} point")
        return self._metrics[role]

    def curvature(self, role: str) -> CurvaturePoint:
        """Curvature of the domain at the points or of the target at the images; an
        expression chart's reads the stack's metric jets when they reach order 2."""
        if role not in self._curvature:
            self._curvature[role] = curvature_tensor(*self._chart(role), self.metric(role, 2),
                                                     f"{role} point")
        return self._curvature[role]

    @cached_property
    def map_hessian(self) -> np.ndarray:
        """The covariant Hessian at every point (see :func:`map_hessian`)."""
        return map_hessian(self)

    @cached_property
    def pullback_jets(self) -> list[list[WirtingerJet]]:
        """Jets of f*h, order 2."""
        return pullback_metric_jets(self.map.target, self.component_jets, 2)

    @cached_property
    def _closed_domain_jets(self) -> tuple | None:
        """A catalog domain's g^{-1} grid and log det g jet (order 2) from its model;
        None on an expression chart."""
        if self.map.domain.model is None:
            return None
        return _closed_inverse_jets(self.map.domain, self.points, max(self.order - 2, 0),
                                    "domain point")

    @cached_property
    def metric_inverse_jets(self) -> list[list[WirtingerJet]]:
        """Jets of the domain's g^{-1} (order 2): a catalog chart's from its model, any other
        chart's the matrix inverse of its metric jets."""
        closed = self._closed_domain_jets
        return closed[0] if closed else jet_mat_inv(self.metric("domain")[0])

    @cached_property
    def energy_jet(self) -> WirtingerJet:
        """Jet of ‖∂f‖² = tr(g^{-1}·f*h), order 2, from the diagonal products alone."""
        a, b = self.metric_inverse_jets, self.pullback_jets
        diagonal = [sum((a[i][t] * b[t][i] for t in range(1, len(a))), a[i][0] * b[0][i])
                    for i in range(len(a))]
        return sum(diagonal[1:], diagonal[0])

    @cached_property
    def log1p_energy_jet(self) -> WirtingerJet:
        """Jet of log(1 + ‖∂f‖²), order 2."""
        return (1.0 + self.energy_jet).log()

    @cached_property
    def log_volume_jets(self) -> list:
        """Per point, the jet of log D = log det(f*h) − log det g (order 2), or why not.

        A catalog domain's log det g is its closed form, so only det(f*h) can be singular."""
        m = self.map.m
        skips = [None if rank >= m else
                 (RankError, f"rank {rank} < {m} at {point}; log D is singular here")
                 for rank, point in zip(self.stretch.rank, self.points)]
        closed = self._closed_domain_jets
        grids = [self.pullback_jets] + ([] if closed else [self.metric("domain")[0]])

        def log_d(rows, det_h, det_g=None):
            return det_h.log() - (closed[1].at(rows) if det_g is None else det_g.log())

        return self._logs(skips, "log D", log_d, lambda rows: [
            jet_mat_det([[entry.at(rows) for entry in line] for line in grid]) for grid in grids])

    @cached_property
    def log_w_jets(self) -> list:
        """Per point, the jet of log W (order 2), or why its top stretch is not simple and nonzero.

        W = (ȳ·f*h·y)/(ȳ·θ) with y = g^{-1}θ, where θ = dw¹ is the first coordinate
        covector of the normal chart whose axes are the adapted domain frame: the Rayleigh
        quotient of the pencil (f*h, g) at row 1 of that chart's G^{-1}, seen in the
        original chart.  At the point ȳ·θ = 1 and W = |λ_1|²."""
        def w_jet(rows):
            theta = self._top_covector_jets(rows)
            g_inv, a = ([[entry.at(rows) for entry in line] for line in grid]
                        for grid in (self.metric_inverse_jets, self.pullback_jets))
            y_bar = jet_mat_mul([[t.conj() for t in theta]], g_inv)  # one row
            numerator = jet_mat_mul(jet_mat_mul(y_bar, a), [[y.conj()] for y in y_bar[0]])
            return [numerator[0][0] / jet_mat_mul(y_bar, [[t] for t in theta])[0][0]]

        return self._logs([_log_w_skip(self.stretch.at(k), self.map.m) for k in range(len(self))],
                          "log W", lambda rows, w: w.log(), w_jet)

    def _top_covector_jets(self, rows) -> list[WirtingerJet]:
        """θ_b = ∂w¹/∂z^b at the given rows, as holomorphic order-2 jets in z.

        The normal chart is z = p + E·w + ½·Q(w, w) with E the adapted domain frame.  With
        M = E^{-1}, q = M·Q and u = M(z − p), w = u − ½q(u, u) + ½q(u, q(u, u)) + O(|u|⁴), so
        θ_b = Σ_μ M_{μb}·[δ_{1μ} − q¹_{μκ}u^κ + (½q¹_{μκ}q^κ_{αβ} + q¹_{ακ}q^κ_{μβ})u^α u^β]."""
        e, quad = _normal_chart_parts(self.curvature("domain").at(rows),
                                      self.stretch.domain_frame[rows])
        m_inv = np.linalg.inv(e)
        q = np.einsum("rij,rjab->riab", m_inv, quad)
        q1 = q[:, 0]
        lin = -np.einsum("rub,ruk,rkc->rbc", m_inv, q1, m_inv)
        t = 0.5 * np.einsum("ruk,rkxy->ruxy", q1, q) + np.einsum("rxk,rkuy->ruxy", q1, q)
        sq = np.einsum("rub,ruxy,rxc,ryd->rbcd", m_inv, t, m_inv, m_inv)
        return [quadratic_jet(m_inv[:, 0, b], lin[:, b], sq[:, b]) for b in range(self.map.m)]

    def _logs(self, skips: list, what: str, log, build) -> list:
        """``skips`` with the log filled in at the rows it leaves None: ``build(rows)`` stacks
        the log's arguments, and ``log(kept, *arguments)`` takes them at the stack rows
        ``kept``.  A row where an argument's constant term is at or below ``SINGULAR_FLOOR``
        is skipped as singular, so the log meets none."""
        rows = [k for k, skip in enumerate(skips) if skip is None]
        if rows:
            stacked = build(rows)
            low = np.min([np.abs(arg.value) for arg in stacked], axis=0)
            for j in np.flatnonzero(low <= SINGULAR_FLOOR):
                skips[rows[j]] = (RankError, f"{what} is singular at {self.points[rows[j]]} "
                                             f"(log argument {low[j]:.3e} <= {SINGULAR_FLOOR:g})")
            kept = np.flatnonzero(low > SINGULAR_FLOOR)
            jet = log(np.asarray(rows)[kept], *(a.at(kept) for a in stacked)) if kept.size else None
            for j, col in enumerate(kept):
                skips[rows[col]] = jet.at(j)
        return skips

    @cached_property
    def stretch(self) -> MapPointData:
        """The stretch data at every point (see :func:`map_point_data`)."""
        return map_point_data(self)


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
