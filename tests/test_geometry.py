"""Chart, curvature, and normal-coordinate tests.

Expected values come from independent closed-form work: Taylor
expansions of the model potentials around the origin, the conformal
factor of the disk metric, and the covariant transformation law of the
lowered tensor under a change of frame.  A catalog chart's Γ and R come
from its closed form, so each curvature test also runs on the expression
chart with the same potential or metric, whose Γ and R come from its
metric jets.
"""

import numpy as np
import pytest

from kahlercheck.errors import ConfigurationError, DomainError, FrameError, MetricError
from kahlercheck.geometry import (
    Ball,
    ChartMap,
    ComponentChart,
    FullSpace,
    PotentialChart,
    PulledBackChart,
    catalog,
    curvature_tensor,
    normal_chart,
    pullback_metric_jets,
)
from kahlercheck.jets import compose, jet_constant, variable_jets
from kahlercheck.linalg import g_orthonormalize
from reference import apply_point, expression_twin, jacobian


def model(family, dim=1, scale=1.0, kind="catalog"):
    """The catalog chart, or its expression twin (the jet path)."""
    if kind == "expression":
        return expression_twin(family, dim, scale)
    params = {} if family == "poincare_disk" else {"dim": dim}
    if family != "flat":
        params["a" if family.startswith("poincare") else "c"] = scale
    return catalog(family, **params)


# each curvature test runs on a catalog chart (the closed form) and its expression twin
KINDS = ("catalog", "expression")


def sample_points(rng, dim, radius, count):
    """Points with |z| < radius, usable in every catalog domain."""
    pts = []
    for _ in range(count):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        pts.append(v * radius * rng.uniform(0.05, 0.95))
    return pts


def chart_roster(kind="catalog"):
    """(chart, safe sampling radius) for every catalog family, or for its expression twin."""
    return [
        (model("flat", 2, kind=kind), 2.0),
        (model("poincare_disk", 1, 4.0, kind), 0.85),
        (model("poincare_polydisk", 2, 1.5, kind), 0.6),
        (model("complex_hyperbolic_ball", 2, 2.0, kind), 0.8),
        (model("fubini_study", 2, 1.0, kind), 2.0),
    ]


# -- metric values ----------------------------------------------------------


def test_flat_metric_is_identity_everywhere():
    chart = catalog("flat", dim=2)
    rng = np.random.default_rng(0)
    for pt in sample_points(rng, 2, 1.5, 5):
        np.testing.assert_allclose(curvature_tensor(chart, pt).g, np.eye(2), atol=1e-14)


def test_disk_metric_at_origin_is_a():
    g = curvature_tensor(catalog("poincare_disk", a=4.0), [0.0]).g
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_ball_metric_at_origin_is_identity():
    g = curvature_tensor(catalog("complex_hyperbolic_ball", dim=2, c=1.0), [0.0, 0.0]).g
    np.testing.assert_allclose(g, np.eye(2), atol=1e-14)


def test_disk_metric_matches_conformal_factor():
    chart = catalog("poincare_disk", a=2.5)
    for z in (0.3 + 0.4j, -0.1 + 0.7j, 0.6):
        want = 2.5 / (1 - abs(z) ** 2) ** 2
        assert curvature_tensor(chart, [z]).g[0, 0] == pytest.approx(want, rel=1e-13)


def test_domain_is_enforced():
    chart = catalog("poincare_disk", a=1.0)
    with pytest.raises(DomainError):
        curvature_tensor(chart, [1.2])
    with pytest.raises(DomainError):
        curvature_tensor(chart, [0.1, 0.1])  # wrong arity


# -- christoffel symbols -------------------------------------------------------


def test_flat_christoffel_vanishes():
    for kind in KINDS:
        gamma = curvature_tensor(model("flat", 2, kind=kind), [0.3 + 0.1j, -0.2j]).gamma
        np.testing.assert_allclose(gamma, 0, atol=1e-13)


def test_disk_christoffel_closed_form():
    # Γ¹₁₁ = 2 z̄ / (1 - |z|²), independent of the scale a
    for kind in KINDS:
        for a in (1.0, 4.0):
            chart = model("poincare_disk", 1, a, kind)
            for z in (0.5, 0.2 - 0.3j):
                got = curvature_tensor(chart, [z]).gamma[0, 0, 0]
                want = 2 * np.conj(z) / (1 - abs(z) ** 2)
                assert got == pytest.approx(want, rel=1e-12)


def test_ball_christoffel_vanishes_at_origin():
    for kind in KINDS:
        gamma = curvature_tensor(model("complex_hyperbolic_ball", 2, kind=kind), [0.0, 0.0]).gamma
        np.testing.assert_allclose(gamma, 0, atol=1e-13)


def test_christoffel_symmetric_in_lower_indices():
    for kind in KINDS:
        chart = model("complex_hyperbolic_ball", 3, kind=kind)
        rng = np.random.default_rng(1)
        for pt in sample_points(rng, 3, 0.7, 5):
            gamma = curvature_tensor(chart, pt).gamma
            np.testing.assert_allclose(gamma, gamma.transpose(0, 2, 1), atol=1e-12)


# -- curvature tensor ------------------------------------------------------------


def test_flat_curvature_vanishes():
    for kind in KINDS:
        cp = curvature_tensor(model("flat", 3, kind=kind), [0.1, 0.2j, -0.3])
        np.testing.assert_allclose(cp.riem, 0, atol=1e-12)


def test_ball_curvature_at_origin():
    # quartic expansion of -log(1-|z|²) gives -(δ_ab δ_cd + δ_ad δ_cb)
    for kind in KINDS:
        cp = curvature_tensor(model("complex_hyperbolic_ball", 2, kind=kind), [0.0, 0.0])
        assert cp.riem[0, 0, 0, 0] == pytest.approx(-2.0, abs=1e-12)
        assert cp.riem[0, 0, 1, 1] == pytest.approx(-1.0, abs=1e-12)
        assert cp.riem[0, 1, 1, 0] == pytest.approx(-1.0, abs=1e-12)
        want = -(
            np.einsum("ab,cd->abcd", np.eye(2), np.eye(2))
            + np.einsum("ad,cb->abcd", np.eye(2), np.eye(2))
        )
        np.testing.assert_allclose(cp.riem, want, atol=1e-12)


def test_fubini_study_flips_the_sign():
    for kind in KINDS:
        cp = curvature_tensor(model("fubini_study", 2, kind=kind), [0.0, 0.0])
        assert cp.riem[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-12)
        ball = curvature_tensor(model("complex_hyperbolic_ball", 2, kind=kind), [0.0, 0.0])
        np.testing.assert_allclose(cp.riem, -ball.riem, atol=1e-12)


def test_curvature_symmetries_on_catalog_charts():
    for kind in KINDS:
        rng = np.random.default_rng(2)
        for chart, radius in chart_roster(kind):
            for pt in sample_points(rng, chart.dim, radius, 200):
                riem = curvature_tensor(chart, pt).riem
                np.testing.assert_allclose(riem, riem.transpose(2, 1, 0, 3), atol=1e-9)
                np.testing.assert_allclose(riem, riem.transpose(0, 3, 2, 1), atol=1e-9)
                np.testing.assert_allclose(
                    riem, np.conj(riem.transpose(1, 0, 3, 2)), atol=1e-9
                )


def test_gamma_is_exactly_symmetric_for_potential_charts():
    for kind in KINDS:
        chart = model("complex_hyperbolic_ball", 2, kind=kind)
        cp = curvature_tensor(chart, [0.2, 0.1 - 0.2j])
        np.testing.assert_allclose(cp.gamma, cp.gamma.transpose(0, 2, 1), atol=1e-13)


def test_disk_normalized_h_is_constant():
    # normalized H = R(v,v̄,v,v̄)/|v|⁴ = -2/a at every point
    for kind in KINDS:
        for a in (1.0, 4.0):
            chart = model("poincare_disk", 1, a, kind)
            rng = np.random.default_rng(3)
            values = []
            for pt in sample_points(rng, 1, 0.9, 40):
                cp = curvature_tensor(chart, pt)
                values.append((cp.riem[0, 0, 0, 0] / cp.g[0, 0] ** 2).real)
            values = np.array(values)
            assert np.max(values) - np.min(values) <= 1e-8
            np.testing.assert_allclose(values, -2.0 / a, atol=1e-9)


def test_disk_agrees_with_hyperbolic_ball_dim1():
    # same metric up to a constant factor; the factor is measured, not assumed
    for kind in KINDS:
        disk = model("poincare_disk", kind=kind)
        ball = model("complex_hyperbolic_ball", kind=kind)
        rng = np.random.default_rng(4)
        for pt in sample_points(rng, 1, 0.85, 10):
            cp_d = curvature_tensor(disk, pt)
            cp_b = curvature_tensor(ball, pt)
            factor = (cp_d.g[0, 0] / cp_b.g[0, 0]).real
            np.testing.assert_allclose(cp_d.riem, factor * cp_b.riem, atol=1e-10)


def test_kahler_condition_rejected_when_violated():
    bad = ComponentChart(
        2,
        [["1", "z2"], ["conj(z2)", "2"]],
        FullSpace(2),
        label="non-kahler",
    )
    with pytest.raises(MetricError, match="Kähler"):
        curvature_tensor(bad, [0.05, 0.05])


def test_nonreal_potential_rejected():
    chart = PotentialChart(1, "z1", FullSpace(1), label="bad-potential")
    with pytest.raises(MetricError, match="real"):
        curvature_tensor(chart, [0.2])


def test_non_positive_metric_rejected():
    chart = ComponentChart(1, [["abs2(z1) - 1"]], FullSpace(1), label="negative")
    with pytest.raises(MetricError, match="positive"):
        curvature_tensor(chart, [0.1])


# -- normal coordinates ------------------------------------------------------------


def test_normal_chart_flat_is_translation():
    chart = catalog("flat", dim=2)
    p = np.array([0.3, -0.2 + 0.1j])
    nc = normal_chart(chart, p)
    np.testing.assert_allclose(nc.change.base, p, atol=1e-14)
    np.testing.assert_allclose(nc.change.linear, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(nc.change.quad, 0, atol=1e-12)


def test_normal_chart_disk_origin_is_halving():
    nc = normal_chart(catalog("poincare_disk", a=4.0), [0.0])
    np.testing.assert_allclose(nc.change.linear, [[0.5]], atol=1e-13)
    np.testing.assert_allclose(nc.change.quad, 0, atol=1e-13)


def test_normal_chart_postconditions_on_catalog():
    rng = np.random.default_rng(5)
    zero_of = lambda dim: np.zeros(dim)
    for chart, radius in chart_roster():
        for pt in sample_points(rng, chart.dim, radius, 5):
            nc = normal_chart(chart, pt)
            gjets = nc.metric_jets(zero_of(chart.dim), 1)
            m = chart.dim
            g0 = np.array([[gjets[a][b].value for b in range(m)] for a in range(m)])
            np.testing.assert_allclose(g0, np.eye(m), atol=1e-9)
            units = np.eye(m, dtype=int)
            zero = (0,) * m
            from kahlercheck.jets import derivative

            dg = np.array(
                [
                    [[derivative(gjets[a][b], units[c], zero) for b in range(m)]
                     for a in range(m)]
                    for c in range(m)
                ]
            )
            assert np.max(np.abs(dg)) <= 1e-9


def test_curvature_invariant_under_normal_chart():
    # the correction term away from normal points is pinned by this law:
    # R'(0) must equal R(p) contracted with the frame on every slot
    rng = np.random.default_rng(6)
    for chart, radius in chart_roster():
        for pt in sample_points(rng, chart.dim, radius, 3):
            cp = curvature_tensor(chart, pt)
            nc = normal_chart(chart, pt)
            got = curvature_tensor(nc, np.zeros(chart.dim)).riem
            b = nc.change.linear
            want = np.einsum(
                "abcd,am,bn,cr,ds->mnrs", cp.riem, b, np.conj(b), b, np.conj(b)
            )
            np.testing.assert_allclose(got, want, atol=1e-9)


def test_normal_chart_accepts_orthonormal_frame():
    chart = catalog("complex_hyperbolic_ball", dim=2, c=1.0)
    pt = np.array([0.2, 0.1j])
    g = curvature_tensor(chart, pt).g
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    frame = g_orthonormalize(g, raw)
    nc = normal_chart(chart, pt, frame=frame)
    np.testing.assert_allclose(curvature_tensor(nc, [0.0, 0.0]).g, np.eye(2), atol=1e-10)
    with pytest.raises(FrameError):
        normal_chart(chart, pt, frame=2 * frame)


def test_chart_map_round_trip():
    rng = np.random.default_rng(8)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 3 * np.eye(2)
    quad = rng.normal(size=(2, 2, 2))
    quad = quad + quad.transpose(0, 2, 1)
    cmap = ChartMap(base=np.array([0.1, -0.2j]), linear=b, quad=quad.astype(complex))
    w = np.array([0.05, 0.02 - 0.01j])
    jets = cmap.on_jets(variable_jets(w, 2, 3))
    np.testing.assert_allclose(
        [j.value for j in jets], apply_point(cmap, w), atol=1e-13
    )
    jac = jacobian(cmap, w)
    for i in range(2):
        for mu in range(2):
            assert jets[i].d_dz(mu).value == pytest.approx(jac[i, mu], abs=1e-13)


def test_pulled_back_chart_matches_pointwise_transform():
    chart = catalog("complex_hyperbolic_ball", dim=2, c=2.0)
    cmap = ChartMap(
        base=np.array([0.1, 0.05j]),
        linear=np.array([[0.5, 0.1], [0.0, 0.4j]]),
        quad=np.zeros((2, 2, 2), dtype=complex),
    )
    pulled = PulledBackChart(chart, cmap, label="pulled")
    w = np.array([0.1, -0.2])
    jac = jacobian(cmap, w)
    want = jac.T @ curvature_tensor(chart, apply_point(cmap, w)).g @ np.conj(jac)
    np.testing.assert_allclose(curvature_tensor(pulled, w).g, want, atol=1e-12)


def test_pullback_rejects_low_order_jets():
    chart = catalog("flat", dim=1)
    jets = variable_jets([0.0], 1, 1)
    with pytest.raises(ConfigurationError):
        pullback_metric_jets(chart, jets, 1)


def compose_pullback(target, fjets, order):
    """Σ ∂f · compose(h, displacement) · conj(∂f): metric jets at the image,
    composed with the displacement jets of the map."""
    image = np.array([fj.value for fj in fjets])
    h = target.metric_jets(image, order)
    disp = [fj.truncated(order) - fj.value for fj in fjets]
    m = fjets[0].num_vars
    df = [[fj.d_dz(mu).truncated(order) for mu in range(m)] for fj in fjets]
    out = [[jet_constant(0.0, m, order) for _ in range(m)] for _ in range(m)]
    for i in range(target.dim):
        for j in range(target.dim):
            h_along = compose(h[i][j], disp)
            for mu in range(m):
                for nu in range(m):
                    out[mu][nu] = out[mu][nu] + df[i][mu] * h_along * df[j][nu].conj()
    return out


def pullback_roster():
    """(target chart, image radius it accepts) for the pullback comparison."""
    charts = [(catalog("poincare_disk", a=1.5), 0.5)]
    for dim in (1, 2, 3):
        charts += [
            (catalog("flat", dim=dim), 1.0),
            (catalog("poincare_polydisk", dim=dim, a=1.25), 0.5),
            (catalog("complex_hyperbolic_ball", dim=dim, c=2.0), 0.5),
            (catalog("fubini_study", dim=dim, c=1.5), 1.0),
        ]
    expression = ComponentChart(
        2, [["2 + abs2(z1)", "0.3*z1*conj(z2)"], ["0.3*z2*conj(z1)", "1 + abs2(z2)^2"]],
        Ball(2), label="expression")
    ball = catalog("complex_hyperbolic_ball", dim=2, c=1.0)
    normal = normal_chart(ball, np.array([0.2, -0.1j]))
    return charts + [(expression, 0.5), (normal, 0.3)]


def map_jets(rng, source_dim, target_dim, radius, order):
    """Components of a random holomorphic quadratic map as jets at a random point."""
    ws = variable_jets(0.1 * rng.normal(size=source_dim), source_dim, order)
    image = rng.normal(size=target_dim) + 1j * rng.normal(size=target_dim)
    image *= radius / np.linalg.norm(image)
    out = []
    for i in range(target_dim):
        lin = rng.normal(size=source_dim) + 1j * rng.normal(size=source_dim)
        acc = jet_constant(image[i], source_dim, order)
        for mu in range(source_dim):
            shift = ws[mu] - ws[mu].value
            acc = acc + 0.5 * lin[mu] * shift + 0.2 * lin[mu] * shift * shift
        out.append(acc)
    return out


def test_pullback_matches_compose_reference():
    rng = np.random.default_rng(21)
    order = 2
    for chart, radius in pullback_roster():
        for source_dim in (1, 2):
            fjets = map_jets(rng, source_dim, chart.dim, radius, order + 2)
            got = pullback_metric_jets(chart, fjets, order)
            want = compose_pullback(chart, fjets, order)
            for mu in range(source_dim):
                for nu in range(source_dim):
                    np.testing.assert_allclose(
                        got[mu][nu].coeffs, want[mu][nu].coeffs, rtol=0, atol=1e-13,
                        err_msg=f"{chart.label}, source dimension {source_dim}")


def test_pullback_rejects_image_outside_target():
    rng = np.random.default_rng(22)
    for chart, _ in pullback_roster():
        if isinstance(chart.domain, FullSpace) and not isinstance(chart, PulledBackChart):
            continue
        fjets = map_jets(rng, 1, chart.dim, 3.0, 4)
        with pytest.raises(DomainError):
            pullback_metric_jets(chart, fjets, 2)


# -- catalog ----------------------------------------------------------------------


def test_catalog_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        catalog("klein_bottle")
    with pytest.raises(ConfigurationError):
        catalog("poincare_disk", a=-1.0)
    with pytest.raises(ConfigurationError):
        catalog("flat", dim=7)
    with pytest.raises(ConfigurationError):
        catalog("flat", radius=1.0)


def test_catalog_facts_match_measured_curvature():
    # spot-check the closed-form constants against the tensor at a point
    chart = catalog("complex_hyperbolic_ball", dim=2, c=2.0)
    facts = chart.facts
    cp = curvature_tensor(chart, [0.2, -0.1j])
    v = np.array([0.7, 0.3 + 0.2j])
    norm_sq = (v @ cp.g @ np.conj(v)).real
    h = np.einsum("abcd,a,b,c,d->", cp.riem, v, np.conj(v), v, np.conj(v)).real
    assert h / norm_sq**2 == pytest.approx(facts.hol_sec_min, abs=1e-10)
    assert facts.constant_hol_sec and facts.einstein


def test_catalog_accepts_m_alias():
    chart = catalog("fubini_study", m=2, c=1.0)
    assert chart.dim == 2


def test_ball_domain_str_roundtrip():
    assert Ball(2).inside(np.array([[0.5, 0.5], [0.8, 0.7]])).tolist() == [True, False]
