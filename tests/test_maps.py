"""Holomorphic map tests.

Oracles: linear maps between flat charts (singular values readable
from the matrix), the identity between rescaled disks (stretch = the
metric ratio), raw second derivatives for flat-to-flat Hessians, and
congruence invariance of the pencil (A, g) under chart changes.
"""

import numpy as np
import pytest
import scipy.linalg

from kahlercheck.errors import (
    ConfigurationError,
    DomainError,
    HolomorphyError,
    MetricError,
)
from kahlercheck.geometry import ChartMap, PotentialChart, PulledBackChart, catalog, normal_chart
from kahlercheck.linalg import pencil_eigh, rng_for
from kahlercheck.maps import (
    HoloMap,
    PointContext,
    StretchBarrier,
    barrier_w,
    catalog_isometry,
    energy_density,
    map_hessian,
    _phase_normalized,
    map_point_data,
    max_norm,
    point_contexts,
    postcompose,
    precompose,
    pushforward,
    sigma_k,
    volume_ratio,
)

FLAT1 = catalog("flat", dim=1)
FLAT2 = catalog("flat", dim=2)


def random_points(domain_scale, count, dim, seed):
    rng = rng_for(seed, 11)
    pts = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return domain_scale * pts / np.sqrt(2.0)


# -- construction and the pushforward -------------------------------------------


def test_pushforward_square_map():
    f = HoloMap(FLAT1, FLAT1, ["z1^2"])
    assert pushforward(f, [3.0]) == pytest.approx(np.array([[6.0]]))


def test_pushforward_curve_into_ball():
    f = HoloMap(catalog("poincare_disk", a=1.0), catalog("complex_hyperbolic_ball", dim=2, c=1.0),
                ["z1/2", "z1^2/2"])
    np.testing.assert_allclose(pushforward(f, [0.0]), [[0.5], [0.0]], atol=1e-14)


def test_component_count_must_match_target():
    with pytest.raises(ConfigurationError):
        HoloMap(FLAT1, FLAT2, ["z1"])


def test_antiholomorphic_expression_rejected_at_build():
    with pytest.raises(HolomorphyError):
        HoloMap(FLAT1, FLAT1, ["conj(z1)"])
    with pytest.raises(HolomorphyError):
        HoloMap(FLAT1, FLAT1, ["abs2(z1)"])


def test_callable_component_checked_pointwise():
    f = HoloMap(FLAT1, FLAT1, [lambda zs: zs[0].conj()])
    with pytest.raises(HolomorphyError):
        pushforward(f, [0.5])


def test_image_must_stay_inside_target_domain():
    disk = catalog("poincare_disk", a=1.0)
    f = HoloMap(disk, disk, ["2*z1"])
    with pytest.raises(DomainError):
        pushforward(f, [0.6])
    assert max_norm(f, [0.3]) > 0  # image 0.6 is fine


# -- stretch spectrum ------------------------------------------------------------


def test_diagonal_map_spectrum():
    f = HoloMap(FLAT2, FLAT2, ["z1", "2*z2"])
    data = map_point_data(f, [0.4, -0.7j])
    np.testing.assert_allclose(data.singular_sq, [4.0, 1.0], atol=1e-14)
    assert energy_density(f, [0.4, -0.7j]) == pytest.approx(5.0, abs=1e-12)
    assert max_norm(f, [0.4, -0.7j]) == pytest.approx(4.0, abs=1e-12)
    assert volume_ratio(f, [0.4, -0.7j]) == pytest.approx(4.0, abs=1e-12)
    # adapted frames put the top stretch first
    diag = np.linalg.solve(data.target_frame, data.pushforward @ data.domain_frame)
    np.testing.assert_allclose(diag, np.diag([2.0, 1.0]), atol=1e-9)


def test_identity_between_rescaled_disks():
    f = HoloMap(catalog("poincare_disk", a=1.0), catalog("poincare_disk", a=2.0), ["z1"])
    for z in (0.0, 0.3, -0.2 + 0.4j):
        data = map_point_data(f, [z])
        assert data.singular_sq[0] == pytest.approx(2.0, abs=1e-12)
        assert energy_density(f, [z]) == pytest.approx(2.0, abs=1e-12)
        assert volume_ratio(f, [z]) == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(map_hessian(f, [0.3 - 0.1j]), 0, atol=1e-12)


def test_rank_deficient_projection():
    f = HoloMap(FLAT2, FLAT2, ["z1", "0"])
    data = map_point_data(f, [0.5, 0.5])
    np.testing.assert_allclose(data.singular_sq, [1.0, 0.0], atol=1e-14)
    assert data.rank == 1
    assert volume_ratio(f, [0.5, 0.5]) == 0.0


def test_constant_map_has_zero_energy():
    f = HoloMap(FLAT2, FLAT2, [0.3, "0"])
    assert energy_density(f, [1.0, 2.0]) == 0.0
    assert max_norm(f, [1.0, 2.0]) == 0.0


def test_volume_ratio_needs_wide_target():
    f = HoloMap(FLAT2, FLAT1, ["z1"])
    with pytest.raises(ConfigurationError):
        volume_ratio(f, [0.1, 0.2])


def test_adapted_frames_generic_map():
    f = HoloMap(
        catalog("complex_hyperbolic_ball", dim=2, c=1.0),
        catalog("fubini_study", dim=3, c=2.0),
        ["z1/2 + z2^2/5", "z2/2", "z1*z2/3"],
    )
    p = [0.2 - 0.1j, 0.3 + 0.25j]
    data = map_point_data(f, p)
    m, n = 2, 3
    e, t = data.domain_frame, data.target_frame
    np.testing.assert_allclose(e.T @ data.g @ e.conj(), np.eye(m), atol=1e-12)
    np.testing.assert_allclose(t.T @ data.h @ t.conj(), np.eye(n), atol=1e-12)
    diag = np.linalg.solve(t, data.pushforward @ e)
    want = np.zeros((n, m))
    want[:m, :m] = np.diag(np.sqrt(data.singular_sq))
    np.testing.assert_allclose(diag, want, atol=1e-9)
    assert data.singular_sq[0] >= data.singular_sq[1] > 0
    # spectrum agrees with the pencil (A, g)
    vals, _ = pencil_eigh(data.pullback, data.g)
    np.testing.assert_allclose(np.sort(data.singular_sq), vals, atol=1e-10)
    # frame phases are pinned: first significant entry of each right vector
    from kahlercheck.linalg import frame_normalizer

    right_vectors = np.linalg.solve(frame_normalizer(data.g), e)
    for j in range(m):
        col = right_vectors[:, j]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(lead.imag) <= 1e-12 and lead.real > 0


def test_scalar_invariants_are_consistent():
    f = HoloMap(
        catalog("complex_hyperbolic_ball", dim=2, c=1.0),
        catalog("fubini_study", dim=3, c=2.0),
        ["z1/2 + z2^2/5", "z2/2", "z1*z2/3"],
    )
    for p in random_points(0.4, 5, 2, seed=21):
        data = map_point_data(f, p)
        assert energy_density(f, p) == pytest.approx(float(np.sum(data.singular_sq)), abs=1e-10)
        assert max_norm(f, p) == pytest.approx(float(data.singular_sq[0]), abs=1e-12)
        det_ratio = (np.linalg.det(data.pullback) / np.linalg.det(data.g)).real
        assert volume_ratio(f, p) == pytest.approx(det_ratio, abs=1e-10)


def test_sigma_k_values():
    assert sigma_k([4.0, 1.0], 0) == 1.0
    assert sigma_k([4.0, 1.0], 1) == 5.0
    assert sigma_k([4.0, 1.0], 2) == 4.0
    assert sigma_k([1.0, 1.0, 1.0], 2) == 3.0
    with pytest.raises(ConfigurationError):
        sigma_k([1.0, 2.0], 3)
    with pytest.raises(ConfigurationError):
        sigma_k([1.0, 2.0], -1)


# -- covariant Hessian -----------------------------------------------------------


def test_hessian_square_map():
    f = HoloMap(FLAT1, FLAT1, ["z1^2"])
    np.testing.assert_allclose(map_hessian(f, [1.7 - 0.4j]), [[[2.0]]], atol=1e-13)


def test_hessian_flat_to_flat_is_raw_second_derivative():
    f = HoloMap(FLAT2, FLAT2, ["z1^2 + 3*z1*z2", "z2^3"])
    z = [0.6 + 0.2j, -0.8j]
    want = np.zeros((2, 2, 2), dtype=complex)
    want[0] = [[2.0, 3.0], [3.0, 0.0]]
    want[1, 1, 1] = 6.0 * z[1]
    np.testing.assert_allclose(map_hessian(f, z), want, atol=1e-12)


def test_hessian_symmetric_with_curved_target():
    f = HoloMap(FLAT2, catalog("fubini_study", dim=2, c=1.0),
                ["z1^2/4 + z2/3", "z1*z2/5"])
    hess = map_hessian(f, [0.4 - 0.3j, 0.2 + 0.5j])
    np.testing.assert_allclose(hess, hess.transpose(0, 2, 1), atol=1e-12)
    assert np.max(np.abs(hess)) > 0.1  # not vacuous


# -- chart-change invariance -----------------------------------------------------


GENERIC_COMPONENTS = ["z1/2 + z2^2/5", "z2/2 - z1*z2/7"]


def generic_map():
    return HoloMap(
        catalog("complex_hyperbolic_ball", dim=2, c=1.0),
        catalog("fubini_study", dim=2, c=1.0),
        GENERIC_COMPONENTS,
    )


def test_singular_values_survive_domain_renormalization():
    f = generic_map()
    p = np.array([0.1 + 0.05j, -0.15j])
    nc = normal_chart(f.domain, p)
    fh = precompose(f, nc.change)
    for w in random_points(0.05, 4, 2, seed=3):
        z = nc.change.apply_point(w)
        np.testing.assert_allclose(
            map_point_data(fh, w).singular_sq,
            map_point_data(f, z).singular_sq,
            atol=1e-8,
        )


def test_singular_values_survive_linear_target_change():
    f = generic_map()
    b_mat = np.array([[1.0 + 0.2j, 0.3], [-0.1j, 0.8]])
    b_inv = np.linalg.inv(b_mat)
    target2 = PulledBackChart(
        f.target, ChartMap(np.zeros(2, dtype=complex), b_mat, np.zeros((2, 2, 2))),
        label="rotated target",
    )

    def component(j):
        def fn(zs):
            vals = [f._components[i](zs) for i in range(2)]
            return b_inv[j, 0] * vals[0] + b_inv[j, 1] * vals[1]

        return fn

    f2 = HoloMap(f.domain, target2, [component(0), component(1)])
    for p in random_points(0.3, 4, 2, seed=5):
        np.testing.assert_allclose(
            map_point_data(f2, p).singular_sq,
            map_point_data(f, p).singular_sq,
            atol=1e-8,
        )


def test_singular_values_survive_target_renormalization_at_anchor():
    f = generic_map()
    p = np.array([0.15 - 0.1j, 0.2 + 0.1j])
    image = PointContext(f, p, 0).image
    nc_t = normal_chart(f.target, image)
    b_inv = np.linalg.inv(nc_t.change.linear)

    def component(j):
        def fn(zs):
            vals = [f._components[i](zs) for i in range(2)]
            return b_inv[j, 0] * (vals[0] - image[0]) + b_inv[j, 1] * (vals[1] - image[1])

        return fn

    f2 = HoloMap(f.domain, nc_t, [component(0), component(1)])
    np.testing.assert_allclose(
        map_point_data(f2, p).singular_sq,
        map_point_data(f, p).singular_sq,
        atol=1e-8,
    )


@pytest.mark.parametrize(
    "name,params,scale",
    [
        ("flat", {"dim": 2}, 1.0),
        ("poincare_disk", {"a": 1.5}, 0.5),
        ("complex_hyperbolic_ball", {"dim": 2, "c": 2.0}, 0.4),
        ("fubini_study", {"dim": 2, "c": 1.0}, 1.0),
        ("poincare_polydisk", {"dim": 2, "a": 1.0}, 0.5),
    ],
)
def test_catalog_isometries_have_unit_stretch(name, params, scale):
    chart = catalog(name, **params)
    iso = catalog_isometry(chart, seed=3)
    for p in random_points(scale, 3, chart.dim, seed=7):
        data = map_point_data(iso, p)
        np.testing.assert_allclose(data.singular_sq, 1.0, atol=1e-8)


def test_target_isometry_preserves_invariants():
    disk3 = catalog("poincare_disk", a=3.0)
    f = HoloMap(catalog("poincare_disk", a=1.0), disk3, ["z1^2/2 + z1/3"])
    iso = catalog_isometry(disk3, seed=11)
    f2 = postcompose(iso, f)
    for z in (0.0, 0.2, -0.3 + 0.4j, 0.55j):
        np.testing.assert_allclose(
            map_point_data(f2, [z]).singular_sq,
            map_point_data(f, [z]).singular_sq,
            atol=1e-8,
        )
        assert energy_density(f2, [z]) == pytest.approx(energy_density(f, [z]), abs=1e-8)
        assert volume_ratio(f2, [z]) == pytest.approx(volume_ratio(f, [z]), abs=1e-8)


def test_postcompose_dimension_check():
    f = HoloMap(FLAT1, FLAT2, ["z1", "0"])
    g = HoloMap(FLAT1, FLAT1, ["z1"])
    with pytest.raises(ConfigurationError):
        postcompose(g, f)


def test_isometry_needs_catalog_family():
    from kahlercheck.geometry import PotentialChart

    hand_rolled = PotentialChart(1, "abs2(z1)", label="hand")
    with pytest.raises(ConfigurationError):
        catalog_isometry(hand_rolled, seed=0)


# -- stretch barrier -------------------------------------------------------------


def test_barrier_is_constant_for_diagonal_linear_map():
    f = HoloMap(FLAT2, FLAT2, ["z1", "2*z2"])
    bar = StretchBarrier(f, [0.3, -0.2j])
    for w in random_points(0.5, 5, 2, seed=13):
        assert bar.value(w) == pytest.approx(4.0, abs=1e-12)


def test_barrier_touches_max_norm_at_anchor():
    f = HoloMap(catalog("poincare_disk", a=1.0), catalog("complex_hyperbolic_ball", dim=2, c=1.0),
                ["z1/2", "z1^2/2"])
    anchor = [0.25 - 0.1j]
    bar = StretchBarrier(f, anchor)
    assert abs(bar.value([0.0]) - max_norm(f, anchor)) <= 1e-10
    # m = 1: the quotient has nothing to vary over, so W is the norm itself
    for w in random_points(0.1, 20, 1, seed=17):
        assert bar.value(w) <= bar.max_norm_at(w) + 1e-12
        assert bar.value(w) == pytest.approx(bar.max_norm_at(w), abs=1e-12)
    assert barrier_w(f, anchor, [0.0]) == pytest.approx(bar.value([0.0]), abs=1e-14)


def test_barrier_minorizes_max_norm_nearby():
    f = HoloMap(FLAT2, catalog("complex_hyperbolic_ball", dim=2, c=1.0),
                ["z1/2", "z2/2 + z1^2/4"])
    anchor = [0.1 + 0.05j, -0.2]
    bar = StretchBarrier(f, anchor)
    assert abs(bar.value([0.0, 0.0]) - max_norm(f, anchor)) <= 1e-10
    slack = []
    for w in random_points(0.08, 20, 2, seed=19):
        w_val = bar.value(w)
        top = bar.max_norm_at(w)
        assert w_val <= top + 1e-12
        slack.append(top - w_val)
    assert max(slack) > 1e-8  # strict somewhere, the bound is not vacuous


def test_point_context_reads_what_the_public_functions_compute():
    f = HoloMap(catalog("fubini_study", dim=2, c=1.1), catalog("complex_hyperbolic_ball", dim=3),
                ["0.3*z1 + 0.1*z2^2", "0.2*z2", "0.1*z1*z2 - 0.05*z1^2"])
    point = np.array([0.2 - 0.1j, -0.15 + 0.3j])
    ctx = PointContext(f, point, 4)
    data, want = ctx.data, map_point_data(f, point)
    for field in ("image", "pushforward", "pullback", "singular_sq", "domain_frame",
                  "target_frame", "g", "h"):
        assert np.array_equal(getattr(data, field), getattr(want, field)), field
    assert np.array_equal(ctx.map_hessian, map_hessian(f, point))
    assert np.array_equal(ctx.pushforward, pushforward(f, point))
    assert ctx.data is data and ctx.component_jets[0].order == 4
    assert np.array_equal(ctx.normal_chart.change.linear, data.domain_frame)


def test_point_contexts_take_points_or_contexts_of_the_same_map():
    f = HoloMap(FLAT2, FLAT2, ["z1", "z2"])
    g = HoloMap(FLAT2, FLAT2, ["z2", "z1"])
    contexts = point_contexts(f, np.array([[0.1, 0.2], [0.3, 0.0]]), 1)
    assert [c.order for c in contexts] == [1, 1]
    assert point_contexts(f, contexts, 1) == contexts
    assert len(point_contexts(f, [0.1, 0.2], 1)) == 1
    with pytest.raises(ConfigurationError):
        point_contexts(g, contexts, 1)
    with pytest.raises(ConfigurationError):
        point_contexts(f, contexts, 4)
    for bad in (np.zeros((0, 2)), np.zeros((3, 1)), np.zeros((2, 2, 2))):
        with pytest.raises(ConfigurationError):
            point_contexts(f, bad, 1)


# -- the stacked stretch path -------------------------------------------------------

DATA_FIELDS = ("point", "image", "pushforward", "pullback", "singular_sq", "domain_frame",
               "target_frame", "g", "h", "rank", "threshold")

STRETCH_CASES = {
    # m < n
    "curve_into_ball": (catalog("flat", dim=1), catalog("complex_hyperbolic_ball", dim=2),
                        ["0.4*z1", "0.3*z1^2"]),
    # m = n, with a rank drop on the line z1 = 0
    "fold": (catalog("fubini_study", dim=2, c=1.1), catalog("poincare_polydisk", dim=2, a=0.9),
             ["0.3*z1^2", "0.2*z2 - 0.1*z1*z2"]),
    # m > n
    "surface_onto_disk": (catalog("flat", dim=2), catalog("poincare_disk", a=1.2),
                          ["0.3*z1 + 0.2*z2^2"]),
}


def _per_point_reference(f, point):
    """The one-point computation of the stretch data with scipy's per-matrix calls."""
    ctx = PointContext(f, point, 1)
    p_mat, g, h = ctx.pushforward, ctx.g, ctx.h
    pullback = p_mat.T @ h @ np.conj(p_mat)
    eye = np.eye(len(g), dtype=complex)
    cg = scipy.linalg.solve_triangular(np.linalg.cholesky(g), eye, lower=True).T
    ch = scipy.linalg.solve_triangular(np.linalg.cholesky(h), np.eye(len(h), dtype=complex),
                                       lower=True).T
    u, s, vh = np.linalg.svd(scipy.linalg.solve(ch, p_mat @ cg))
    u, v = _phase_normalized(u, vh, paired=len(s))
    return 0.5 * (pullback + pullback.conj().T), s, cg @ v, ch @ u


@pytest.mark.parametrize("name", sorted(STRETCH_CASES))
def test_stretch_data_on_k_points_matches_one_point_contexts(name):
    domain, target, components = STRETCH_CASES[name]
    f = HoloMap(domain, target, components)
    points = random_points(0.3, 7, f.m, seed=5)
    if name == "fold":
        points[2, 0] = 0.0  # ∂f drops to rank 1 here
    contexts = point_contexts(f, points, 1)
    assert len({ctx.stack for ctx in contexts}) == 1
    stacked = [ctx.data for ctx in contexts]
    for data, point in zip(stacked, points, strict=True):
        alone = PointContext(f, point, 1).data
        for field in DATA_FIELDS:
            assert np.array_equal(getattr(data, field), getattr(alone, field)), field
        pullback, s, domain_frame, target_frame = _per_point_reference(f, point)
        np.testing.assert_allclose(data.pullback, pullback, rtol=0, atol=1e-14)
        np.testing.assert_allclose(data.singular_sq[: len(s)], s[: f.m] ** 2, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(data.domain_frame, domain_frame, rtol=0, atol=1e-12)
        np.testing.assert_allclose(data.target_frame, target_frame, rtol=0, atol=1e-12)
    if name == "fold":
        assert [d.rank for d in stacked].count(1) == 1 and stacked[2].rank == 1


def test_stretch_data_of_one_context_is_the_one_point_wrapper():
    f = HoloMap(catalog("complex_hyperbolic_ball", dim=2), catalog("fubini_study", dim=3),
                ["0.3*z1", "0.2*z2", "0.1*z1*z2"])
    point = np.array([0.1 + 0.2j, -0.3j])
    (data,) = [ctx.data for ctx in point_contexts(f, point, 1)]
    want = map_point_data(f, point)
    for field in DATA_FIELDS:
        assert np.array_equal(getattr(data, field), getattr(want, field)), field


def test_stretch_data_keeps_what_contexts_already_carry(monkeypatch):
    f = HoloMap(FLAT2, catalog("complex_hyperbolic_ball", dim=2), ["0.3*z1", "0.2*z1*z2"])
    contexts = point_contexts(f, random_points(0.4, 4, 2, seed=2), 1)
    first = contexts[1].data  # computes the whole stack's stretch data

    def no_svd(*args, **kwargs):
        raise AssertionError("stretch data computed twice")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    stacked = [ctx.data for ctx in contexts]
    assert stacked[1] is first
    assert [ctx.data for ctx in contexts[::-1]] == stacked[::-1]


def test_stretch_data_names_the_first_point_with_a_bad_metric():
    # the potential's metric 1 − 4|z1|² is positive only inside |z1| < 1/2
    domain = PotentialChart(1, "abs2(z1) - abs2(z1)^2", None, "bent")
    f = HoloMap(domain, FLAT1, ["z1"])
    contexts = point_contexts(f, np.array([[0.1], [0.2], [0.6], [0.7]]), 1)
    with pytest.raises(MetricError, match=r"bent: metric \(matrix 2\) is not positive definite"):
        contexts[0].data
