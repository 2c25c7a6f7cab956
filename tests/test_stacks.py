"""Jets evaluated once per stack of sample points.

Oracles: the same jets evaluated at each point alone (bit for bit), the
curvature, map Hessian, stretch data, identity checks' scalar jets and
chart changes of each point alone (bit for bit), the point named by a
validation error, the same stretch data however the points are cut into
stacks, and the energy jet as the trace of the whole product g⁻¹·f*h.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlercheck import maps
from kahlercheck.errors import DomainError, HolomorphyError, MetricError, SingularJetError
from kahlercheck.geometry import (
    CATALOG,
    ChartMap,
    ComponentChart,
    PotentialChart,
    _checked_metric,
    catalog,
    pullback_metric_jets,
)
from kahlercheck.jets import jet_mat_mul, variable_jets
from kahlercheck.linalg import rng_for
from kahlercheck.maps import HoloMap, PointStack, point_stacks
from reference import jet_mat_trace, point_data

FLAT1 = catalog("flat", dim=1)
DATA_FIELDS = ("point", "image", "pushforward", "pullback", "singular_sq", "domain_frame",
               "target_frame", "g", "h", "rank")

# holomorphic terms for map components and real terms for potentials; at |z_k| <= 0.25
# and coefficients of at most 0.12 (maps) or 0.2 (potentials, at most two terms beside
# the flat base) every image stays well inside the unit ball and every metric positive
HOLOMORPHIC_TERMS = ("z{a}", "z{a}*z{b}", "z{a}^3", "exp(0.3*z{a})", "1/(2 - z{a})",
                     "log(2 + z{a})")
REAL_TERMS = ("abs2(z{a})^2", "abs2(z{a})*abs2(z{b})", "log(1 + abs2(z{a}))",
              "exp(0.3*abs2(z{a}))", "abs2(z{a} + 0.5*z{b})", "z{a}*conj(z{b}) + z{b}*conj(z{a})")


def _number(x: float) -> str:
    # the grammar takes a leading '-' only at the head of an expression
    text = f"{abs(x):.4f}"
    return text if x >= 0 else f"(0 - {text})"


def _term(draw, pool, dim):
    a, b = draw(st.integers(1, dim)), draw(st.integers(1, dim))
    return draw(st.sampled_from(pool)).format(a=a, b=b)


@st.composite
def charts(draw):
    family = draw(st.sampled_from(sorted(CATALOG) + ["expression"]))
    scale = draw(st.sampled_from([0.8, 1.0, 1.3]))
    if family == "poincare_disk":
        return catalog(family, a=scale)
    dim = draw(st.integers(1, 3))
    if family == "flat":
        return catalog(family, dim=dim)
    if family == "poincare_polydisk":
        return catalog(family, dim=dim, a=scale)
    if family != "expression":
        return catalog(family, dim=dim, c=scale)
    terms = [" + ".join(f"abs2(z{k})" for k in range(1, dim + 1))]
    for _ in range(draw(st.integers(0, 2))):
        coefficient = draw(st.floats(0.0, 0.2))
        terms.append(f"{coefficient:.4f}*({_term(draw, REAL_TERMS, dim)})")
    return PotentialChart(dim, " + ".join(terms), None, "random_potential")


@st.composite
def stacked_cases(draw, orders=st.integers(0, 4)):
    domain, target = draw(charts()), draw(charts())
    components = []
    for _ in range(target.dim):
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            re, im = draw(st.floats(-0.12, 0.12)), draw(st.floats(-0.12, 0.12))
            terms.append(f"({_number(re)} + {_number(im)}*i)*{_term(draw, HOLOMORPHIC_TERMS, domain.dim)}")
        components.append(" + ".join(terms))
    count = draw(st.sampled_from([1, 2, 7]))
    rng = rng_for(draw(st.integers(0, 2**16)), 5)
    radius = 0.25 * np.sqrt(rng.uniform(size=(count, domain.dim)))
    points = radius * np.exp(2j * np.pi * rng.uniform(size=(count, domain.dim)))
    return HoloMap(domain, target, components), points, draw(orders)


def _same_rows(stacked, alone, row):
    """Stacked jets (a grid or a list) at ``row`` equal the jets evaluated alone, bit for bit."""
    if isinstance(stacked, list):
        return all(_same_rows(s, a, row) for s, a in zip(stacked, alone, strict=True))
    return stacked.order == alone.order and np.array_equal(stacked.coeffs[:, row], alone.coeffs)


@settings(max_examples=100, deadline=None)
@given(stacked_cases())
def test_stacked_jets_equal_per_point_jets_bit_for_bit(case):
    f, points, order = case
    stack = PointStack(f, points, order)
    metric_order = max(order - 2, 0)
    roles = {"domain": (f.domain, points), "target": (f.target, stack.image)}
    metrics = {role: stack.metric(role) for role in roles}
    for row, point in enumerate(points):
        alone = f.component_jets(point, order)
        assert _same_rows(stack.component_jets, alone, row)
        image = np.array([jet.value for jet in alone])
        assert np.array_equal(stack.image[row], image)
        for role, (chart, at) in roles.items():
            jets, matrices = metrics[role]
            # a catalog chart's matrices come from its closed form, and its jets are read
            # only by the domain's g^{-1} and log det g jets
            if chart.family is not None and (metric_order == 0 or role == "target"):
                assert jets is None
            else:
                assert _same_rows(jets, chart.metric_jets(at[row], metric_order), row)
            assert np.array_equal(matrices[row], _checked_metric(chart, at[row], metric_order)[1])
        if order == 4:
            assert _same_rows(stack.pullback_jets, pullback_metric_jets(f.target, alone, 2), row)
    # an expression chart's curvature reads order-2 metric jets (below order 4 its own), a
    # catalog chart's its closed form, and its g is bit for bit the stack's metric matrices
    fresh = PointStack(f, points, order)
    for role in roles:
        assert np.array_equal(fresh.curvature(role).g, metrics[role][1])


@settings(max_examples=30, deadline=None)
@given(stacked_cases(orders=st.just(4)))
def test_the_energy_jet_is_the_trace_of_the_whole_product_bit_for_bit(case):
    # it sums only the diagonal products, in the order the full product and its trace do
    stack = PointStack(*case)
    whole = jet_mat_trace(jet_mat_mul(stack.metric_inverse_jets, stack.pullback_jets))
    assert np.array_equal(stack.energy_jet.coeffs, whole.coeffs)


def test_curvature_read_after_the_stretch_equals_curvature_read_first():
    f = HoloMap(catalog("poincare_disk"), catalog("complex_hyperbolic_ball", dim=2),
                ["z1/2", "z1^2/3"])
    late = PointStack(f, np.array([[0.1], [0.2j]]), 1)
    late.stretch  # an order-1 stack's metric jets are of order 0
    early = PointStack(f, late.points, 1)
    for role in ("domain", "target"):
        got, want = late.curvature(role), early.curvature(role)
        for name in ("point", "g", "g_inv", "gamma", "riem"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (role, name)
    assert np.array_equal(early.stretch.singular_sq, late.stretch.singular_sq)


def test_an_order_one_stack_evaluates_metric_jets_on_expression_charts_only(monkeypatch):
    calls = []
    for cls in (PotentialChart, ComponentChart):
        def counted(self, point, order, original=cls.metric_jets):
            calls.append((self.label, order))
            return original(self, point, order)

        monkeypatch.setattr(cls, "metric_jets", counted)
    points = np.array([[0.1, 0.2j], [0.3, -0.1]])
    models = HoloMap(catalog("fubini_study", dim=2), catalog("complex_hyperbolic_ball", dim=2),
                     ["z1/2", "z1*z2/3"])
    (stack,) = point_stacks(models, points, 1)
    assert stack.stretch.rank.tolist() == [2, 2]
    assert point_data(models, points[0]).rank == 2
    assert calls == []  # the catalog charts' g and h come from their closed forms
    potential = PotentialChart(2, "abs2(z1) + abs2(z2) + 0.1*abs2(z1)^2", None, "bumped")
    entries = ComponentChart(2, [["1/(1 - abs2(z1))^2", "0"], ["0", "1/(1 - abs2(z2))^2"]],
                             None, "bidisk_by_metric")
    (stack,) = point_stacks(HoloMap(potential, entries, ["z1/2", "z1*z2/3"]), points, 1)
    assert stack.stretch.rank.tolist() == [2, 2]
    assert calls == [("bumped", 0), ("bidisk_by_metric", 0)]  # one per expression chart


def test_catalog_charts_evaluate_metric_jets_only_for_the_domains_jets(monkeypatch):
    calls = []
    for cls in (PotentialChart, ComponentChart):
        def counted(self, point, order, original=cls.metric_jets):
            calls.append((self.label, order))
            return original(self, point, order)

        monkeypatch.setattr(cls, "metric_jets", counted)
    points = np.array([[0.1, 0.2j], [0.3, -0.1]])
    models = HoloMap(catalog("fubini_study", dim=2), catalog("complex_hyperbolic_ball", dim=3),
                     ["z1/2", "z1*z2/3", "z2/4"])
    (probe,) = point_stacks(models, points, 0)
    for role in ("domain", "target"):
        probe.curvature(role)  # g⁻¹, Γ and R from the closed form
    assert calls == []
    (stack,) = point_stacks(models, points, 4)
    stack.map_hessian, stack.stretch, stack.energy_jet, stack.log_volume_jets, stack.log_w_jets
    # the domain's, with its metric matrices, for g^{-1} and log det g; the target's none
    assert calls == [("fubini_study(2, c=1)", 2)]


@settings(max_examples=30, deadline=None)
@given(stacked_cases(orders=st.integers(2, 4)))
def test_stacked_scalar_jets_equal_one_point_stacks_bit_for_bit(case):
    # and every other stacked piece: both curvatures, the map Hessian and the stretch data
    f, points, order = case
    stack = PointStack(f, points, order)
    for row in range(len(points)):
        one = PointStack(f, points[row:row + 1], order)
        for role in ("domain", "target"):
            got, want = stack.curvature(role).at(row), one.curvature(role).at(0)
            for name in ("g_inv", "gamma", "riem"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (role, name)
        assert np.array_equal(stack.map_hessian[row], one.map_hessian[0])
        got, want = stack.stretch.at(row), one.stretch.at(0)
        for name in DATA_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        if order < 4:  # the scalar jets differentiate f*h twice
            continue
        assert _same_rows(stack.energy_jet, one.energy_jet.at(0), row)
        # log(1 + ‖∂f‖²), built once per stack, is the one-point jet's log bit for bit
        assert _same_rows(stack.log1p_energy_jet, (1.0 + one.energy_jet.at(0)).log(), row)
        for name in ("log_volume_jets", "log_w_jets"):
            got, want = getattr(stack, name)[row], getattr(one, name)[0]
            assert (got == want if isinstance(want, tuple)  # the same skip
                    else got.order == want.order and np.array_equal(got.coeffs, want.coeffs))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 2**16))
def test_stacked_chart_changes_equal_each_change_alone(dim, count, seed):
    rng = rng_for(seed, 7)

    def sparse(*shape):  # about a third of the entries zero, so the zero skip varies by row
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return values * (rng.uniform(size=shape) > 0.3)

    base, linear, quad = sparse(dim, count), sparse(dim, dim, count), sparse(dim, dim, dim, count)
    quad = 0.5 * (quad + quad.transpose(0, 2, 1, 3))
    ws = variable_jets(np.zeros((count, dim)), dim, 3)
    stacked = ChartMap(base, linear, quad).on_jets(ws)
    for row in range(count):
        change = ChartMap(base[..., row], linear[..., row], quad[..., row])
        assert _same_rows(stacked, change.on_jets(variable_jets(np.zeros(dim), dim, 3)), row)


def test_a_one_point_stack_keeps_one_point_jets_apart():
    stacked = variable_jets(np.array([[0.1, 0.2j]]), 2, 2)
    alone = variable_jets(np.array([0.1, 0.2j]), 2, 2)
    assert stacked[0].points == (1,) and alone[0].points == ()
    assert np.array_equal((stacked[0] * stacked[1]).coeffs[:, 0], (alone[0] * alone[1]).coeffs)
    with pytest.raises(Exception, match="same points"):
        stacked[0] + alone[1]


def _twisted_component(zs):
    # ∂/∂z̄ of z1 + (z1 − 0.1)·z̄1 vanishes at z1 = 0.1 only, and order-1 jets see no more
    return zs[0] + (zs[0] - 0.1) * zs[0].conj()


BAD_SECOND_POINT = {
    "holomorphy": (HoloMap(FLAT1, FLAT1, [_twisted_component]), [0.1, 0.3], HolomorphyError,
                   "component 1 is not holomorphic"),
    "image": (HoloMap(FLAT1, catalog("poincare_disk"), ["2*z1"]), [0.1, 0.6], DomainError,
              "leaves the target domain"),
    "non_real_potential": (HoloMap(PotentialChart(1, "abs2(z1) + i*(z1 - 0.1)^3", None, "twisted"),
                                   FLAT1, ["z1"]), [0.1, 0.3], MetricError, "not real-valued"),
    "reciprocal": (HoloMap(FLAT1, FLAT1, ["1/(z1 - 0.5)"]), [0.1, 0.5], SingularJetError,
                   "cannot divide by"),
    "log": (HoloMap(FLAT1, FLAT1, ["log(z1 - 0.5)"]), [0.1, 0.5], SingularJetError,
            "cannot take log of"),
    "not_positive_definite": (HoloMap(PotentialChart(1, "abs2(z1) - abs2(z1)^2", None, "bent"),
                                      FLAT1, ["z1"]), [0.1, 0.6], MetricError,
                              "not positive definite"),
}


@pytest.mark.parametrize("name", sorted(BAD_SECOND_POINT))
def test_each_per_point_check_names_the_bad_second_point(name):
    f, points, error, text = BAD_SECOND_POINT[name]
    (stack,) = point_stacks(f, np.array(points, dtype=complex)[:, None], 1)
    with pytest.raises(error) as err:
        stack.stretch
    message = str(err.value)
    assert text in message
    assert "at point 1 of the stack" in message or "(matrix 1)" in message
    (alone,) = point_stacks(f, np.array(points[:1], dtype=complex)[:, None], 1)
    assert alone.stretch.rank[0] == 1  # the first point alone is fine


def test_the_kahler_check_names_the_bad_second_point():
    # ∂g_{12̄}/∂z2 = 0.4·(z2 − 0.1) against ∂g_{22̄}/∂z1 = 0: Kähler at z2 = 0.1 only
    chart = ComponentChart(2, [["1", "0.2*(z2 - 0.1)^2"], ["0.2*(conj(z2) - 0.1)^2", "1"]])
    f = HoloMap(chart, catalog("flat", dim=2), ["z1", "z2"])
    points = np.array([[0.0, 0.1], [0.0, 0.3]])
    (stack,) = point_stacks(f, points, 1)
    with pytest.raises(MetricError, match="Kähler condition .* at point 1 of the stack"):
        stack.curvature("domain")
    (alone,) = point_stacks(f, points[:1], 1)
    assert alone.curvature("domain").riem.shape == (1, 2, 2, 2, 2)


def test_chunks_of_four_give_one_stacks_stretch_data_in_three_stacks(monkeypatch):
    f = HoloMap(catalog("fubini_study", dim=2, c=1.1), catalog("complex_hyperbolic_ball", dim=2),
                ["0.3*z1 + 0.1*z2^2", "0.2*z2 - 0.1*z1*z2"])
    rng = rng_for(3, 11)
    points = 0.3 * (rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2)))
    (whole,) = point_stacks(f, points, 1)
    want = whole.stretch

    calls = []
    component_jets = HoloMap.component_jets

    def counted(self, point, order):
        calls.append(np.shape(point))
        return component_jets(self, point, order)

    monkeypatch.setattr(maps, "STACK_CHUNK", 4)
    monkeypatch.setattr(HoloMap, "component_jets", counted)
    stacks = point_stacks(f, points, 1)
    got = [stack.stretch for stack in stacks]
    assert calls == [(4, 2), (4, 2), (2, 2)]
    assert [len(stack) for stack in stacks] == [4, 4, 2]
    for name in DATA_FIELDS:
        stacked = np.concatenate([getattr(d, name) for d in got])
        assert np.array_equal(getattr(want, name), stacked), name
