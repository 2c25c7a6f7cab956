"""Kähler charts, curvature, normal coordinates, and the model catalog.

A chart is a single coordinate patch carrying a Hermitian metric, given
either by a real potential (g is its mixed Hessian) or by an explicit
matrix of component functions.  On such a chart the metric values,
Christoffel symbols and curvature are read off the metric's jets.  The
model charts of the catalog give theirs in closed form: each family has
its metric matrices, g⁻¹, Γ and R from them, and the jets of g⁻¹ and
log det g that the identity checks read on a domain, so no catalog chart
evaluates metric jets.  :func:`curvature_tensor` takes a point or a
stack of points, and a stack's metric.

Index conventions for the arrays produced here::

    g[a, b]          g_{a b̄}
    gamma[b, a, c]   Γ^b_{a c}                (symmetric in a, c)
    riem[a, b, c, d] R_{a b̄ c d̄}  (lowered)

The curvature sign is fixed so the hyperbolic models come out negative:
at points where the first metric derivatives vanish,
R_{a b̄ c d̄} = −∂²g_{a b̄}/∂z^c ∂z̄^d.  Away from such points the
quadratic first-derivative correction enters with the sign that makes
the tensor invariant under passage to normal coordinates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import expressions
from .errors import ConfigurationError, DomainError, FrameError, MetricError, SingularJetError
from .jets import (
    MAX_HOLOMORPHIC_VARS,
    WirtingerJet,
    all_finite,
    at_point,
    derivative_block,
    first_bad,
    jet_constant,
    jet_mat_mul,
    jet_values,
    variable_jets,
)
from .linalg import check_positive_definite, cholesky_frame

KAHLER_TOL = 1e-8
REALNESS_TOL = 1e-10
FRAME_TOL = 1e-8


# -- domains -------------------------------------------------------------------


class Domain:
    """Region-of-validity predicate for a chart."""

    dim: int

    def inside(self, points: np.ndarray) -> np.ndarray:
        """One bool per row of a (k, dim) array of points."""
        raise NotImplementedError


@dataclass(frozen=True)
class FullSpace(Domain):
    dim: int

    def inside(self, points: np.ndarray) -> np.ndarray:
        return np.ones(len(points), dtype=bool)

    def __str__(self) -> str:
        return "all of C^%d" % self.dim


@dataclass(frozen=True)
class Ball(Domain):
    dim: int
    radius: float = 1.0

    def inside(self, points: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # a square that overflows is outside
            return np.sum(np.abs(points) ** 2, axis=-1) < self.radius**2

    def __str__(self) -> str:
        return "|z| < %g" % self.radius


@dataclass(frozen=True)
class Polydisk(Domain):
    dim: int
    radii: tuple[float, ...]

    def inside(self, points: np.ndarray) -> np.ndarray:
        return np.all(np.abs(points) < np.asarray(self.radii), axis=-1)

    def __str__(self) -> str:
        return "polydisk with radii %s" % (self.radii,)


# -- charts --------------------------------------------------------------------


def _as_jet_function(source, dim: int, what: str, check: Callable) -> Callable:
    """Normalize an expression AST / text / number / callable to a callable
    returning jets; ``check(ast, dim, what)`` validates expressions."""
    if isinstance(source, (int, float, complex)) and not isinstance(source, bool):
        value = complex(source)
        return lambda zs: jet_constant(value, zs[0].num_vars, zs[0].order, zs[0].points)
    if isinstance(source, str):
        source = expressions.parse(source)
    if isinstance(source, expressions.Node):
        check(source, dim, what)

        def fn(zs):
            return expressions.evaluate(source, zs)
    elif callable(source):
        fn = source
    else:
        raise ConfigurationError(f"{what} must be an expression or a callable")

    def as_jet(zs) -> WirtingerJet:
        val = fn(zs)
        if isinstance(val, WirtingerJet):
            return val
        return jet_constant(complex(val), zs[0].num_vars, zs[0].order, zs[0].points)

    return as_jet


class KahlerChart:
    """One coordinate patch with a Kähler metric.

    Immutable after construction; all evaluation methods are pure, so
    concurrent use at distinct points is safe.
    """

    # the catalog family, its closed-form facts and, in closed form, its metric matrices and
    # g⁻¹, Γ and R (given the matrices) on a (k, dim) stack of points, and its g⁻¹ grid and
    # log det g jet on coordinate jets; None off the catalog
    family: str | None = None
    facts: CurvatureFacts | None = None
    _closed_metric: Callable[[np.ndarray], np.ndarray] | None = None
    _closed_curvature: Callable[[np.ndarray, np.ndarray], tuple] | None = None
    _closed_jets: Callable[[list[WirtingerJet]], tuple] | None = None

    def __init__(self, dim: int, domain: Domain | None, label: str):
        if not 1 <= dim <= MAX_HOLOMORPHIC_VARS:
            raise ConfigurationError(
                f"chart dimension must be between 1 and {MAX_HOLOMORPHIC_VARS}, got {dim}"
            )
        self.dim = dim
        self.domain = domain if domain is not None else FullSpace(dim)
        self.label = label

    def require_inside(self, point) -> np.ndarray:
        """``point`` of shape (dim,), or a stack of shape (k, dim), checked inside the domain."""
        pt = np.asarray(point, dtype=complex)
        if pt.ndim not in (1, 2) or pt.shape[-1] != self.dim:
            raise DomainError(
                f"{self.label}: point has {pt.shape} coordinates, chart has dimension {self.dim}"
            )
        rows = pt.reshape(-1, self.dim)
        bad = first_bad(~self.domain.inside(rows))
        if bad is not None:
            raise DomainError(f"{self.label}: point {rows[bad]} is outside the domain "
                              f"({self.domain}){at_point(pt.shape[:-1], bad)}")
        return pt

    def metric_jets(self, point, order: int) -> list[list[WirtingerJet]]:
        """m×m nested list of g_{a b̄} jets of the given order at ``point``.

        ``point`` may be a stack of shape (k, dim); the jets are then stacked
        too, evaluated in one sweep and validated at every point.
        """
        raise NotImplementedError

    def pullback_jets(self, fjets: Sequence[WirtingerJet], order: int) -> list[list[WirtingerJet]]:
        """Jets of f*ω: the chart's defining function evaluated on ``fjets``, the
        components of a holomorphic f as jets of order >= ``order + 2``, at one
        point or stacked."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label!r} dim={self.dim}>"


class PotentialChart(KahlerChart):
    """Chart whose metric is the mixed Hessian of a real potential."""

    def __init__(self, dim: int, potential, domain: Domain | None = None, label: str = "chart"):
        super().__init__(dim, domain, label)
        self._potential = _as_jet_function(potential, dim, "potential", expressions.check_dimension)

    def _potential_on(self, zs: Sequence[WirtingerJet]) -> WirtingerJet:
        phi = self._potential(zs)
        defect = np.max(np.abs((phi - phi.conj()).coeffs), axis=0)
        bad = first_bad(defect > REALNESS_TOL * (1.0 + np.max(np.abs(phi.coeffs), axis=0)))
        if bad is not None:
            raise MetricError(f"{self.label}: potential is not real-valued "
                              f"(defect {np.ravel(defect)[bad]:.3e}){at_point(phi.points, bad)}")
        return phi

    def potential_jet(self, point, order: int) -> WirtingerJet:
        pt = self.require_inside(point)
        return self._potential_on(variable_jets(pt, self.dim, order))

    def pullback_jets(self, fjets, order: int) -> list[list[WirtingerJet]]:
        # f*ω = √−1 ∂∂̄(φ∘f) for holomorphic f
        self.require_inside(jet_values(fjets))
        phi = self._potential_on([fj.truncated(order + 2) for fj in fjets])
        m = phi.num_vars
        dphi = [phi.d_dz(a) for a in range(m)]
        return [[dphi[a].d_dzbar(b) for b in range(m)] for a in range(m)]

    def metric_jets(self, point, order: int) -> list[list[WirtingerJet]]:
        pt = self.require_inside(point)
        return self.pullback_jets(variable_jets(pt, self.dim, order + 2), order)


class ComponentChart(KahlerChart):
    """Chart whose metric entries are given directly as functions of (z, z̄)."""

    def __init__(self, dim: int, entries, domain: Domain | None = None, label: str = "chart"):
        super().__init__(dim, domain, label)
        entries = list(entries)
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise ConfigurationError(f"{label}: component matrix must be {dim}x{dim}")
        self._entries = [
            [_as_jet_function(entry, dim, f"metric component ({a + 1},{b + 1})",
                              expressions.check_dimension)
             for b, entry in enumerate(row)]
            for a, row in enumerate(entries)
        ]

    def pullback_jets(self, fjets, order: int) -> list[list[WirtingerJet]]:
        # (f*h)_{μν̄} = Σ_{i,j} ∂_μ f^i · (h_{i ȷ̄} ∘ f) · conj(∂_ν f^j)
        self.require_inside(jet_values(fjets))
        zs = [fj.truncated(order) for fj in fjets]
        h = [[fn(zs) for fn in row] for row in self._entries]
        df = [[fj.d_dz(mu).truncated(order) for fj in fjets] for mu in range(fjets[0].num_vars)]
        df_bar = [[d.conj() for d in row] for row in zip(*df)]
        return jet_mat_mul(jet_mat_mul(df, h), df_bar)

    def metric_jets(self, point, order: int) -> list[list[WirtingerJet]]:
        zs = variable_jets(self.require_inside(point), self.dim, order)
        return [[fn(zs) for fn in row] for row in self._entries]


def pullback_metric_jets(
    target: KahlerChart, component_jets: Sequence[WirtingerJet], order: int
) -> list[list[WirtingerJet]]:
    """Jets of the pulled-back form f*h given jets of the map components.

    ``component_jets`` are the target coordinates of the map as jets in
    the source variables, of order at least ``order + 2`` (a potential
    spends two orders on ∂∂̄).  The target chart evaluates its defining
    function on them; see :meth:`KahlerChart.pullback_jets`.
    """
    fjets = list(component_jets)
    if len(fjets) != target.dim:
        raise ConfigurationError(
            f"map has {len(fjets)} components, target dimension is {target.dim}"
        )
    if fjets[0].order < order + 2:
        raise ConfigurationError(
            f"pullback to order {order} needs component jets of order {order + 2}"
        )
    return target.pullback_jets(fjets, order)


@dataclass(frozen=True)
class ChartMap:
    """Polynomial coordinate change z = base + linear·w + ½·quad(w, w).

    ``quad[i, μ, κ]`` is symmetric in (μ, κ).  This is exactly the family
    normal-coordinate constructions live in, so the map is stored in
    closed form and all of its derivatives are exact.  In :meth:`on_jets`
    each array may carry a trailing point axis, a stack of changes as in jets.
    """

    base: np.ndarray
    linear: np.ndarray
    quad: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.base)

    def on_jets(self, ws: Sequence[WirtingerJet]) -> list[WirtingerJet]:
        """z = ψ(w) evaluated on jets ``ws`` of the w coordinates."""
        num_vars, order = ws[0].num_vars, ws[0].order
        out = []
        for i in range(self.dim):
            acc = jet_constant(self.base[i], num_vars, order, ws[0].points)
            for mu in range(self.dim):
                if np.any(self.linear[i, mu]):
                    acc = acc + self.linear[i, mu] * ws[mu]
                for k in range(self.dim):
                    if np.any(self.quad[i, mu, k]):
                        acc = acc + 0.5 * self.quad[i, mu, k] * ws[mu] * ws[k]
            out.append(acc)
        return out


class PulledBackChart(KahlerChart):
    """A chart seen through a polynomial coordinate change.

    Valid only near w = 0; the stored domain is unrestricted and points
    are checked against the source domain after mapping.
    """

    def __init__(self, source: KahlerChart, change: ChartMap, label: str):
        super().__init__(source.dim, FullSpace(source.dim), label)
        self.source = source
        self.change = change

    def pullback_jets(self, fjets, order: int) -> list[list[WirtingerJet]]:
        self.require_inside(jet_values(fjets))
        return self.source.pullback_jets(self.change.on_jets(fjets), order)

    def metric_jets(self, point, order: int) -> list[list[WirtingerJet]]:
        pt = self.require_inside(point)
        return self.pullback_jets(variable_jets(pt, self.dim, order + 2), order)


# -- pointwise curvature data ----------------------------------------------------


@dataclass(frozen=True)
class CurvaturePoint:
    """Metric, Christoffel symbols, and lowered curvature at one point, or stacked over
    a stack of points with the point axis first."""

    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray  # gamma[b, a, c] = Γ^b_{a c}
    riem: np.ndarray  # riem[a, b, c, d] = R_{a b̄ c d̄}

    def at(self, index) -> "CurvaturePoint":
        """The data at point ``index`` of a stack (any numpy index of its leading axes)."""
        return CurvaturePoint(*(getattr(self, name)[index] for name in self.__dataclass_fields__))


def _metric_matrix(gjets) -> np.ndarray:
    """The metric matrix read off a grid of metric jets, not yet validated.

    Stacked jets give the stack of matrices, of shape (k, m, m).
    """
    values = np.array([[entry.coeffs[0] for entry in row] for row in gjets])
    return np.ascontiguousarray(np.moveaxis(values, -1, 0)) if gjets[0][0].points else values


def _checked_metric(chart: KahlerChart, at, order: int, where: str = "point"):
    """Metric jets of ``order`` at a point or a (k, dim) stack of points, checked finite and,
    from order 1, Kähler, and the metric matrices, checked positive definite and symmetrized;
    an overflow, a singular metric or a failed matrix names the first ``where`` it happens at.

    A catalog chart's matrices come from its closed form, and its jets are None."""
    rows = np.reshape(at, (-1, chart.dim))
    closed = chart._closed_metric
    jets = None
    if closed is None:
        # a potential's own value may overflow, unread; its derivatives are checked below
        jets = _named_singular(chart, rows, where, chart.metric_jets, at, order)
        _require_finite(chart, all_finite([entry for line in jets for entry in line]), rows, where)
        if order >= 1:
            _metric_gradient(chart, jets)  # the Kähler check
        values = _metric_matrix(jets)
    else:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values = closed(np.reshape(chart.require_inside(at), (-1, chart.dim)))
        _require_finite(chart, np.isfinite(values).all(axis=(-2, -1)), rows, where)
        if np.ndim(at) == 1:
            values = values[0]
    try:
        return jets, check_positive_definite(values, f"{chart.label}: metric")
    except MetricError as err:
        raise MetricError(f"{err} at the {where} {rows[err.index].tolist()}",
                          err.index) from None


def _closed_inverse_jets(chart: KahlerChart, at, order: int, where: str = "point") -> tuple:
    """A catalog chart's g⁻¹ grid and log det g jet of ``order`` at a point or a (k, dim) stack
    of points, from its closed form, checked finite; an overflow or a singular jet names the
    first ``where`` it happens at."""
    rows = np.reshape(at, (-1, chart.dim))
    zs = variable_jets(chart.require_inside(at), chart.dim, order)
    g_inv, log_det = _named_singular(chart, rows, where, chart._closed_jets, zs)
    _require_finite(chart, all_finite([entry for line in g_inv for entry in line] + [log_det]),
                    rows, where)
    return g_inv, log_det


def _named_singular(chart: KahlerChart, rows: np.ndarray, where: str, evaluate, *args):
    """``evaluate(*args)``, its overflows left to a finiteness check and a singular jet named
    by the first ``where`` it happens at."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return evaluate(*args)
        except SingularJetError as err:
            raise SingularJetError(f"{chart.label}: the metric is singular at the {where} "
                                   f"{rows[err.index].tolist()} ({err})", err.index) from None


def _require_finite(chart: KahlerChart, finite, rows: np.ndarray, where: str) -> None:
    """An overflow at the first point of ``rows`` whose ``finite`` flag is False."""
    bad = first_bad(~finite)
    if bad is not None:
        raise DomainError(f"{chart.label}: the metric overflows at the {where} "
                          f"{rows[bad].tolist()}")


def _metric_gradient(chart: KahlerChart, gjets) -> np.ndarray:
    """dg[..., c, a, b] = ∂g_{a b̄}/∂z^c, after the Kähler symmetry check at every point."""
    dg = np.ascontiguousarray(np.moveaxis(derivative_block(gjets, "grad"), -1, -3))
    defect = np.max(np.abs(dg - dg.swapaxes(-2, -3)), axis=(-3, -2, -1))
    bad = first_bad(defect > KAHLER_TOL)
    if bad is not None:
        raise MetricError(
            f"{chart.label}: metric violates the Kähler condition "
            f"(defect {np.ravel(defect)[bad]:.3e}){at_point(gjets[0][0].points, bad)}"
        )
    return dg


def curvature_tensor(chart: KahlerChart, at, metric=None, where: str = "point") -> CurvaturePoint:
    """Curvature data, with the lowered tensor R_{a b̄ c d̄}, at a point or at every point of
    a (k, dim) stack: a catalog chart's g⁻¹, Γ and R from its closed form, any other chart's
    from its metric jets of order 2.  ``metric``, the (jets, g) pair of :func:`_checked_metric`
    at ``at``, is reused when the chart reads no jets or its jets reach order 2; an overflow
    names the first ``where`` it happens at."""
    at = np.asarray(at, dtype=complex)
    closed = chart._closed_curvature
    if metric is None or not (closed or metric[0][0][0].order >= 2):
        metric = _checked_metric(chart, at, 2, where)
    gjets, g = metric
    if closed is not None:
        rows = np.reshape(at, (-1, chart.dim))
        with np.errstate(over="ignore", invalid="ignore"):
            data = closed(rows, np.reshape(g, (-1, chart.dim, chart.dim)))
        # g⁻¹ and Γ are finite where g is finite and positive definite; R ~ g²/c may overflow
        _require_finite(chart, np.isfinite(data[2]).all(axis=(1, 2, 3, 4)), rows, where)
        g_inv, gamma, riem = data if at.ndim == 2 else (v[0] for v in data)
        return CurvaturePoint(point=at, g=g, g_inv=g_inv, gamma=gamma, riem=riem)
    dg = _metric_gradient(chart, gjets)
    g_inv = np.linalg.inv(g)
    ddg = derivative_block(gjets, "levi")
    correction = np.einsum("...gam,...mr,...dbr->...abgd", dg, g_inv, np.conj(dg))
    return CurvaturePoint(point=at, g=g, g_inv=g_inv,
                          gamma=np.einsum("...gad,...db->...bag", dg, g_inv),
                          riem=-ddg + correction)


def normal_chart(chart: KahlerChart, point, frame: np.ndarray | None = None) -> PulledBackChart:
    """Chart in normal coordinates centered at ``point``.

    In the returned chart the metric is the identity at 0 and all its
    first derivatives vanish there.  ``frame`` may supply the columns of
    the linear part (any g-orthonormal frame); by default the Cholesky
    normalizer of g(point) is used.  The coordinate change is available
    as the ``change`` attribute of the result.
    """
    return _normal_chart_at(chart, curvature_tensor(chart, point), frame)


def _normal_chart_at(chart: KahlerChart, cp: CurvaturePoint, frame) -> PulledBackChart:
    b, quad = _normal_chart_parts(cp, frame)
    change = ChartMap(base=cp.point, linear=b, quad=quad)
    return PulledBackChart(chart, change, label=f"normal[{chart.label}]")


def _normal_chart_parts(cp: CurvaturePoint, frame) -> tuple[np.ndarray, np.ndarray]:
    """(E, Q) of the normal chart z = p + E·w + ½·Q(w, w) at a point, or at every point of
    stacked curvature data with a stack of frames: E is ``frame`` (the Cholesky normalizer
    of g when None), checked g-orthonormal at every point, and Q = −Γ(E·, E·)."""
    dim = cp.g.shape[-1]
    if frame is None:
        b = cholesky_frame(cp.g)
    else:
        b = np.asarray(frame, dtype=complex)
        if b.shape != cp.g.shape:
            raise FrameError(f"frame must be {dim}x{dim}")
        defect = np.max(np.abs(b.swapaxes(-1, -2) @ cp.g @ b.conj() - np.eye(dim)), axis=(-2, -1))
        bad = first_bad(defect > FRAME_TOL)
        if bad is not None:
            raise FrameError(f"frame is not g-orthonormal (defect {np.ravel(defect)[bad]:.3e})")
    return b, -np.einsum("...irs,...rm,...sk->...imk", cp.gamma, b, b)


# -- model catalog ----------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureFacts:
    """Closed-form curvature constants of a model chart.

    ``hol_sec_min``/``hol_sec_max`` bound the normalized holomorphic
    sectional curvature R(v, v̄, v, v̄)/|v|⁴; ``ricci_min``/``ricci_max``
    bound the Ricci form against the metric; ``ricci_m_max[m - 1]`` is the
    largest Σ_γ R(E_γ, Ē_γ, v, v̄) over m orthonormal E_γ and unit v in their
    span.  Bound modules treat these as certified hypotheses.
    """

    hol_sec_min: float
    hol_sec_max: float
    ricci_min: float
    ricci_max: float
    scalar: float
    ricci_m_max: tuple[float, ...]

    @property
    def constant_hol_sec(self) -> bool:
        return self.hol_sec_min == self.hol_sec_max

    @property
    def einstein(self) -> bool:
        return self.ricci_min == self.ricci_max


def _finite(value, what: str, positive: bool = False) -> float:
    """The one validator of a real number read from a manifest, a flag or chart parameters."""
    # the magnitude limit also rejects NaN, inf and integers too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not abs(value) <= sys.float_info.max or (positive and not value > 0)):
        sign = "positive " if positive else ""
        raise ConfigurationError(f"{what} must be a finite {sign}number, got {value!r}")
    return float(value)


def _count(value, what: str, minimum: int, maximum: int | None = None) -> int:
    """The one validator of an integer read from a manifest, a flag or chart parameters."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum
            or (maximum is not None and value > maximum)):
        limit = f" and <= {maximum}" if maximum is not None else ""
        raise ConfigurationError(f"{what} must be an integer >= {minimum}{limit}, got {value!r}")
    return int(value)


def _abs2_sum(zs) -> WirtingerJet:
    acc = zs[0] * zs[0].conj()
    for z in zs[1:]:
        acc = acc + z * z.conj()
    return acc


def _abs2_columns(z: np.ndarray) -> np.ndarray:
    """|z_k|² per coordinate of a (k, dim) stack, rounded as the constant term of the jet
    z·z̄ is: near a bounded edge 1 − |z|² magnifies a one-ulp difference a millionfold."""
    return (z * np.conj(z)).real


def _row_sum(columns: np.ndarray) -> np.ndarray:
    """Σ_k of a (k, dim) stack's columns, added in coordinate order as ``_abs2_sum`` adds."""
    return sum(columns.T[1:], columns.T[0])


def _constant_jet(zs, value) -> WirtingerJet:
    """The constant ``value`` as a jet of the coordinate jets' variables, order and points."""
    return jet_constant(value, zs[0].num_vars, zs[0].order, zs[0].points)


# Each family maps its parameters to its chart, the chart's closed-form facts and, in closed
# form, its metric matrices, g⁻¹, Γ and R (given the matrices), and the jets of g⁻¹ and
# log det g on coordinate jets.  Every entry is computed point by point, so a point's data
# is the same bit for bit alone or in any stack.

Family = tuple[KahlerChart, CurvatureFacts, Callable, Callable, Callable]


def _flat(dim: int = 1) -> Family:
    def matrices(z):
        return np.broadcast_to(np.eye(dim, dtype=complex), (len(z), dim, dim))

    def curvature(z, g):  # g⁻¹ = g = I, Γ = 0 and R = 0
        return (g, *(np.zeros((len(z),) + (dim,) * n, complex) for n in (3, 4)))

    def jets(zs):  # g⁻¹ = I and log det g = 0
        one, zero = _constant_jet(zs, 1.0), _constant_jet(zs, 0.0)
        return [[one if a == b else zero for b in range(dim)] for a in range(dim)], zero

    return (PotentialChart(dim, _abs2_sum, FullSpace(dim), label=f"flat({dim})"),
            CurvatureFacts(0.0, 0.0, 0.0, 0.0, 0.0, (0.0,) * dim), matrices, curvature, jets)


def _disk_entry(a: float, k: int) -> Callable:
    """g_{k k̄} = a/(1 − |z_k|²)², the disk's metric and each polydisk factor's."""
    def entry(zs):
        return a * ((1.0 - zs[k] * zs[k].conj()) ** 2).reciprocal()

    return entry


def _polydisk_matrices(a: float) -> Callable[[np.ndarray], np.ndarray]:
    """diag(a/(1 − |z_k|²)²), the matrices of ``_disk_entry`` on the diagonal."""
    def matrices(z):
        dim = z.shape[-1]
        g = np.zeros((len(z), dim, dim), dtype=complex)
        g[:, range(dim), range(dim)] = a / (1.0 - _abs2_columns(z)) ** 2
        return g

    return matrices


def _polydisk_curvature(a: float, z: np.ndarray, g: np.ndarray) -> tuple:
    """g⁻¹ = diag((1 − |z_k|²)²/a), Γ^k_{kk} = 2z̄_k/(1 − |z_k|²) and R_{kk̄kk̄} = −(2/a)·g_{kk̄}²;
    every other entry of Γ and R is 0."""
    d = range(z.shape[-1])
    g_inv, gamma, riem = (np.zeros((len(z),) + (len(d),) * n, complex) for n in (2, 3, 4))
    gap = 1.0 - _abs2_columns(z)
    g_inv[:, d, d] = gap**2 / a
    gamma[:, d, d, d] = 2.0 * np.conj(z) / gap
    riem[:, d, d, d, d] = (-2.0 / a) * g[:, d, d] * g[:, d, d]
    return g_inv, gamma, riem


def _polydisk_jets(a: float, zs) -> tuple:
    """Jets of g⁻¹ = diag((1 − |z_k|²)²/a) and log det g = Σ_k (log a − 2·log(1 − |z_k|²))."""
    gaps = [1.0 - z * z.conj() for z in zs]
    zero = _constant_jet(zs, 0.0)
    g_inv = [[gap * gap * (1.0 / a) if j == k else zero for k in range(len(zs))]
             for j, gap in enumerate(gaps)]
    logs = sum((gap.log() for gap in gaps[1:]), gaps[0].log())
    return g_inv, logs * -2.0 + len(zs) * math.log(a)


def _poincare_disk(a: float = 1.0) -> Family:
    h = -2.0 / a
    return (ComponentChart(1, [[_disk_entry(a, 0)]], Ball(1), label=f"poincare_disk(a={a:g})"),
            CurvatureFacts(h, h, h, h, h, (h,)), _polydisk_matrices(a),
            partial(_polydisk_curvature, a), partial(_polydisk_jets, a))


def _poincare_polydisk(dim: int = 2, a: float = 1.0) -> Family:
    entries = [[_disk_entry(a, i) if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    chart = ComponentChart(dim, entries, Polydisk(dim, (1.0,) * dim),
                           label=f"poincare_polydisk({dim}, a={a:g})")
    # H is minimized on a single factor and maximized on the diagonal; Ric_m
    # is largest on m − 1 axes plus the diagonal of the remaining factors
    ricci_m = tuple(-2.0 / (a * (dim - m + 1)) for m in range(1, dim + 1))
    return (chart, CurvatureFacts(-2.0 / a, -2.0 / (dim * a), -2.0 / a, -2.0 / a, -2.0 * dim / a,
                                  ricci_m), _polydisk_matrices(a), partial(_polydisk_curvature, a),
            partial(_polydisk_jets, a))


def _ball_matrices(c: float) -> Callable[[np.ndarray], np.ndarray]:
    """g_{a b̄} = c·(δ_ab·s + w̄_a·w_b) with s = 1/(1 − |z|²) and w = s·z, the mixed Hessian
    of −c·log(1 − |z|²)."""
    def matrices(z):
        s = 1.0 / (1.0 - _row_sum(_abs2_columns(z)))
        w = s[:, None] * z
        outer = np.conj(w)[:, :, None] * w[:, None, :]
        return c * (np.eye(z.shape[-1]) * s[:, None, None] + outer)

    return matrices


def _fubini_study_matrices(c: float) -> Callable[[np.ndarray], np.ndarray]:
    """g_{a b̄} = c·(δ_ab·s − w̄_a·w_b) with s = 1/(1 + |z|²) and w = s·z, the mixed Hessian
    of c·log(1 + |z|²).

    w is formed first, so a far point's metric underflows to zero, not to NaN.  The
    diagonal s − |w_a|² is summed as s² + Σ_{k≠a} |w_k|², from terms that do not cancel;
    the difference would lose six digits at |z| = 1e3, where it is a millionth of s."""
    def matrices(z):
        s = 1.0 / (1.0 + _row_sum(_abs2_columns(z)))
        w = s[:, None] * z
        g = -(np.conj(w)[:, :, None] * w[:, None, :])
        w2 = _abs2_columns(w)
        dim = z.shape[-1]
        for a in range(dim):
            g[:, a, a] = sum((w2[:, k] for k in range(dim) if k != a), s * s)
        return c * g

    return matrices


def _constant_h_curvature(c: float, sign: int, z: np.ndarray, g: np.ndarray) -> tuple:
    """g⁻¹, Γ and R of the ball (sign −1) and Fubini–Study (sign +1), H = 2·sign/c: with
    s = 1/(1 + sign·|z|²), g⁻¹ = (δ_ab + sign·z̄_a·z_b)/(c·s), Γ^b_{ac} = −sign·s·(z̄_a·δ_bc +
    z̄_c·δ_ab) and R_{ab̄cd̄} = (H/2)·(g_{ab̄}·g_{cd̄} + g_{ad̄}·g_{cb̄}), none of which cancels."""
    gap = 1.0 + sign * _row_sum(_abs2_columns(z))  # 1/s, as the metric's s rounds it
    z_bar = np.conj(z)
    eye = np.eye(z.shape[-1])
    g_inv = (gap / c)[:, None, None] * (eye + sign * (z_bar[:, :, None] * z[:, None, :]))
    t = (-sign / gap)[:, None] * z_bar
    gamma = t[:, None, :, None] * eye[:, None, :] + eye[:, :, None] * t[:, None, None, :]
    h = (sign / c) * g  # scaled first, so R ~ g²/c overflows only where it is that large
    riem = np.einsum("kab,kcd->kabcd", h, g) + np.einsum("kad,kcb->kabcd", h, g)
    return g_inv, gamma, riem


def _constant_h_jets(c: float, sign: int, zs) -> tuple:
    """Jets of g⁻¹ = (1 + sign·|z|²)·(δ_ab + sign·z̄_a·z_b)/c and log det g = m·log c −
    (m + 1)·log(1 + sign·|z|²), on the ball (sign −1) and Fubini–Study (sign +1)."""
    dim = len(zs)
    gap = 1.0 + sign * _abs2_sum(zs)
    scaled = gap * (1.0 / c)
    signed_bar = [z.conj() * sign for z in zs]
    g_inv = [[scaled * (float(a == b) + signed_bar[a] * zs[b]) for b in range(dim)]
             for a in range(dim)]
    return g_inv, gap.log() * -(dim + 1.0) + dim * math.log(c)


def _complex_hyperbolic_ball(dim: int = 1, c: float = 1.0) -> Family:
    def potential(zs):
        return (1.0 - _abs2_sum(zs)).log() * (-c)

    ric = -(dim + 1.0) / c
    # constant H: Ric_m = (m + 1)·H/2 on every m-dimensional subspace
    ricci_m = tuple(-(m + 1.0) / c for m in range(1, dim + 1))
    chart = PotentialChart(dim, potential, Ball(dim),
                           label=f"complex_hyperbolic_ball({dim}, c={c:g})")
    return (chart, CurvatureFacts(-2.0 / c, -2.0 / c, ric, ric, dim * ric, ricci_m),
            _ball_matrices(c), partial(_constant_h_curvature, c, -1),
            partial(_constant_h_jets, c, -1))


def _fubini_study(dim: int = 1, c: float = 1.0) -> Family:
    def potential(zs):
        return (1.0 + _abs2_sum(zs)).log() * c

    ric = (dim + 1.0) / c
    ricci_m = tuple((m + 1.0) / c for m in range(1, dim + 1))
    return (PotentialChart(dim, potential, FullSpace(dim), label=f"fubini_study({dim}, c={c:g})"),
            CurvatureFacts(2.0 / c, 2.0 / c, ric, ric, dim * ric, ricci_m),
            _fubini_study_matrices(c), partial(_constant_h_curvature, c, 1),
            partial(_constant_h_jets, c, 1))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    params: str
    build: Callable[..., Family]


CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry("flat", "flat metric on C^dim, potential |z|^2", "dim (default 1)", _flat),
        CatalogEntry("poincare_disk", "unit disk with g = a/(1-|z|^2)^2", "a > 0 (default 1)",
                     _poincare_disk),
        CatalogEntry("poincare_polydisk", "product of dim Poincaré disks",
                     "dim (default 2), a > 0 (default 1)", _poincare_polydisk),
        CatalogEntry("complex_hyperbolic_ball", "unit ball with potential -c*log(1-|z|^2)",
                     "dim (default 1), c > 0 (default 1)", _complex_hyperbolic_ball),
        CatalogEntry("fubini_study", "C^dim chart of projective space, potential c*log(1+|z|^2)",
                     "dim (default 1), c > 0 (default 1)", _fubini_study),
    )
}


def catalog(name: str, **params) -> KahlerChart:
    """Build a model chart by name, its parameters checked once; see ``CATALOG`` for the choices."""
    if name not in CATALOG:
        raise ConfigurationError(
            f"unknown catalog chart {name!r}; known: {', '.join(sorted(CATALOG))}"
        )
    if "m" in params and "dim" not in params:
        params["dim"] = params.pop("m")
    if "dim" in params:
        params["dim"] = _count(params["dim"], "parameter dim", 1, MAX_HOLOMORPHIC_VARS)
    for key in ("a", "c"):
        if key in params:
            params[key] = _finite(params[key], f"parameter {key}", positive=True)
    try:
        chart, facts, matrices, curvature, jets = CATALOG[name].build(**params)
    except TypeError:
        raise ConfigurationError(
            f"invalid parameters {sorted(params)} for catalog chart {name!r}"
        ) from None
    chart.family, chart.facts = name, facts
    chart._closed_metric, chart._closed_curvature, chart._closed_jets = matrices, curvature, jets
    return chart
