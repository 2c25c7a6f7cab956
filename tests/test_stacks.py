"""Jets evaluated once per stack of sample points.

Oracles: the same jets evaluated at each point alone (bit for bit), the
point named by a validation error, and the same stretch data however
the points are cut into stacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlercheck import maps
from kahlercheck.errors import DomainError, HolomorphyError, MetricError, SingularJetError
from kahlercheck.geometry import (
    CATALOG,
    PotentialChart,
    _metric_matrix,
    _validated_metric,
    catalog,
    pullback_metric_jets,
)
from kahlercheck.jets import variable_jets
from kahlercheck.linalg import rng_for
from kahlercheck.maps import HoloMap, PointStack, point_contexts

FLAT1 = catalog("flat", dim=1)
DATA_FIELDS = ("point", "image", "pushforward", "pullback", "singular_sq", "domain_frame",
               "target_frame", "g", "h", "rank", "threshold")

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
def stacked_cases(draw):
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
    return HoloMap(domain, target, components), points, draw(st.integers(0, 4))


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
            single = chart.metric_jets(at[row], metric_order)
            assert _same_rows(jets, single, row)
            assert np.array_equal(matrices[row], _validated_metric(chart, _metric_matrix(single)))
        if order == 4:
            assert _same_rows(stack.pullback_jets, pullback_metric_jets(f.target, alone, 2), row)
    # curvature asks for order 2: the stack is evaluated again at that order, all rows
    # stay bit-for-bit the one-point jets, and the metric matrices do not move
    for role, (chart, at) in roles.items():
        jets, matrices = stack.metric(role, 2)
        assert stack.metric(role) is stack.metric(role, 2)
        for row in range(len(points)):
            assert _same_rows(jets, chart.metric_jets(at[row], 2), row)
            assert np.array_equal(matrices[row], metrics[role][1][row])


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
    contexts = point_contexts(f, np.array(points, dtype=complex)[:, None], 1)
    with pytest.raises(error) as err:
        contexts[0].data
    message = str(err.value)
    assert text in message
    assert "at point 1 of the stack" in message or "(matrix 1)" in message
    alone = point_contexts(f, np.array(points[:1], dtype=complex)[:, None], 1)
    assert alone[0].data.rank == 1  # the first point alone is fine


def test_chunks_of_four_give_one_stacks_stretch_data_in_three_stacks(monkeypatch):
    f = HoloMap(catalog("fubini_study", dim=2, c=1.1), catalog("complex_hyperbolic_ball", dim=2),
                ["0.3*z1 + 0.1*z2^2", "0.2*z2 - 0.1*z1*z2"])
    rng = rng_for(3, 11)
    points = 0.3 * (rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2)))
    whole = point_contexts(f, points, 1)
    assert len({ctx.stack for ctx in whole}) == 1
    want = [ctx.data for ctx in whole]

    calls = []
    component_jets = HoloMap.component_jets

    def counted(self, point, order):
        calls.append(np.shape(point))
        return component_jets(self, point, order)

    monkeypatch.setattr(maps, "STACK_CHUNK", 4)
    monkeypatch.setattr(HoloMap, "component_jets", counted)
    contexts = point_contexts(f, points, 1)
    got = [ctx.data for ctx in contexts]
    assert calls == [(4, 2), (4, 2), (2, 2)]
    assert [len(stack.points) for stack in dict.fromkeys(ctx.stack for ctx in contexts)] == [4, 4, 2]
    for a, b in zip(want, got, strict=True):
        for name in DATA_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
