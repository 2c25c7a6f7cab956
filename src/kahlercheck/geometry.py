"""Kähler charts, curvature, normal coordinates, and the model catalog.

A chart is a single coordinate patch carrying a Hermitian metric, given
either by a real potential (g is its mixed Hessian) or by an explicit
matrix of component functions.  Everything downstream evaluates through
jets, so the same chart object serves metric values, Christoffel
symbols, curvature, and the higher derivatives the identity checks
need.

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

import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expressions
from .errors import ConfigurationError, DomainError, FrameError, MetricError
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

    def contains(self, point) -> bool:
        pt = np.asarray(point, dtype=complex)
        return pt.shape == (self.dim,) and bool(self.inside(pt[None, :])[0])

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
        fn = expressions.compiled(source)
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

    # the catalog family and its closed-form facts; None for a chart not built by ``catalog``
    family: str | None = None
    facts: CurvatureFacts | None = None

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

    def apply_point(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        return self.base + self.linear @ w + 0.5 * np.einsum("imk,m,k->i", self.quad, w, w)

    def jacobian(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        return self.linear + np.einsum("imk,k->im", self.quad, w)

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

    def at(self, index: int) -> "CurvaturePoint":
        """The data at point ``index`` of a stack."""
        return CurvaturePoint(*(getattr(self, name)[index] for name in self.__dataclass_fields__))


def _metric_matrix(gjets) -> np.ndarray:
    """The metric matrix read off a grid of metric jets, not yet validated.

    Stacked jets give the stack of matrices, of shape (k, m, m).
    """
    values = np.array([[entry.coeffs[0] for entry in row] for row in gjets])
    return np.ascontiguousarray(np.moveaxis(values, -1, 0)) if gjets[0][0].points else values


def _checked_metric(chart: KahlerChart, at, order: int, where: str = "point"):
    """Metric jets of ``order`` at a point or a (k, dim) stack of points, checked finite, and
    the metric matrices, checked positive definite and symmetrized; an overflow names the
    first ``where`` it happens at."""
    # a potential's own value may overflow, unread; its derivatives are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        jets = chart.metric_jets(at, order)
    bad = first_bad(~all_finite([entry for line in jets for entry in line]))
    if bad is not None:
        raise DomainError(f"{chart.label}: the metric overflows at the {where} "
                          f"{np.reshape(at, (-1, chart.dim))[bad].tolist()}")
    return jets, check_positive_definite(_metric_matrix(jets), f"{chart.label}: metric")


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


def _curvature_point(chart: KahlerChart, point, gjets, g: np.ndarray) -> CurvaturePoint:
    """Curvature data from metric jets of order >= 2 and the validated metric ``g``, at one
    point or at every point of stacked jets."""
    dg = _metric_gradient(chart, gjets)
    g_inv = np.linalg.inv(g)
    ddg = derivative_block(gjets, "levi")
    correction = np.einsum("...gam,...mr,...dbr->...abgd", dg, g_inv, np.conj(dg))
    return CurvaturePoint(point=np.asarray(point, dtype=complex), g=g, g_inv=g_inv,
                          gamma=np.einsum("...gad,...db->...bag", dg, g_inv),
                          riem=-ddg + correction)


def curvature_tensor(chart: KahlerChart, point) -> CurvaturePoint:
    """Curvature data at a point, with the lowered tensor R_{a b̄ c d̄}."""
    return _curvature_point(chart, point, *_checked_metric(chart, point, 2))


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
    if frame is None:
        b = cholesky_frame(cp.g)
    else:
        b = np.asarray(frame, dtype=complex)
        if b.shape != (chart.dim, chart.dim):
            raise FrameError(f"frame must be {chart.dim}x{chart.dim}")
        defect = np.max(np.abs(b.T @ cp.g @ b.conj() - np.eye(chart.dim)))
        if defect > FRAME_TOL:
            raise FrameError(f"frame is not g-orthonormal (defect {defect:.3e})")
    quad = -np.einsum("irs,rm,sk->imk", cp.gamma, b, b)
    change = ChartMap(base=cp.point, linear=b, quad=quad)
    return PulledBackChart(chart, change, label=f"normal[{chart.label}]")


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


# Each family maps its parameters to its chart and the chart's closed-form facts.


def _flat(dim: int = 1) -> tuple[KahlerChart, CurvatureFacts]:
    return (PotentialChart(dim, _abs2_sum, FullSpace(dim), label=f"flat({dim})"),
            CurvatureFacts(0.0, 0.0, 0.0, 0.0, 0.0, (0.0,) * dim))


def _disk_entry(a: float, k: int) -> Callable:
    """g_{k k̄} = a/(1 − |z_k|²)², the disk's metric and each polydisk factor's."""
    def entry(zs):
        return a * ((1.0 - zs[k] * zs[k].conj()) ** 2).reciprocal()

    return entry


def _poincare_disk(a: float = 1.0) -> tuple[KahlerChart, CurvatureFacts]:
    h = -2.0 / a
    return (ComponentChart(1, [[_disk_entry(a, 0)]], Ball(1), label=f"poincare_disk(a={a:g})"),
            CurvatureFacts(h, h, h, h, h, (h,)))


def _poincare_polydisk(dim: int = 2, a: float = 1.0) -> tuple[KahlerChart, CurvatureFacts]:
    entries = [[_disk_entry(a, i) if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    chart = ComponentChart(dim, entries, Polydisk(dim, (1.0,) * dim),
                           label=f"poincare_polydisk({dim}, a={a:g})")
    # H is minimized on a single factor and maximized on the diagonal; Ric_m
    # is largest on m − 1 axes plus the diagonal of the remaining factors
    ricci_m = tuple(-2.0 / (a * (dim - m + 1)) for m in range(1, dim + 1))
    return chart, CurvatureFacts(-2.0 / a, -2.0 / (dim * a), -2.0 / a, -2.0 / a, -2.0 * dim / a,
                                 ricci_m)


def _complex_hyperbolic_ball(dim: int = 1, c: float = 1.0) -> tuple[KahlerChart, CurvatureFacts]:
    def potential(zs):
        return (1.0 - _abs2_sum(zs)).log() * (-c)

    ric = -(dim + 1.0) / c
    # constant H: Ric_m = (m + 1)·H/2 on every m-dimensional subspace
    ricci_m = tuple(-(m + 1.0) / c for m in range(1, dim + 1))
    chart = PotentialChart(dim, potential, Ball(dim),
                           label=f"complex_hyperbolic_ball({dim}, c={c:g})")
    return chart, CurvatureFacts(-2.0 / c, -2.0 / c, ric, ric, dim * ric, ricci_m)


def _fubini_study(dim: int = 1, c: float = 1.0) -> tuple[KahlerChart, CurvatureFacts]:
    def potential(zs):
        return (1.0 + _abs2_sum(zs)).log() * c

    ric = (dim + 1.0) / c
    ricci_m = tuple((m + 1.0) / c for m in range(1, dim + 1))
    return (PotentialChart(dim, potential, FullSpace(dim), label=f"fubini_study({dim}, c={c:g})"),
            CurvatureFacts(2.0 / c, 2.0 / c, ric, ric, dim * ric, ricci_m))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    params: str
    build: Callable[..., tuple[KahlerChart, CurvatureFacts]]


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
        chart, facts = CATALOG[name].build(**params)
    except TypeError:
        raise ConfigurationError(
            f"invalid parameters {sorted(params)} for catalog chart {name!r}"
        ) from None
    chart.family, chart.facts = name, facts
    return chart
