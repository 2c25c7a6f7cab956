"""Holomorphic map tests.

Oracles: linear maps between flat charts (singular values readable
from the matrix), the identity between rescaled disks (stretch = the
metric ratio), raw second derivatives for flat-to-flat Hessians, and
congruence invariance of the pencil (A, g) under chart changes.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kahlercheck.cli import load_scenario, shipped_scenarios
from kahlercheck.errors import (
    ConfigurationError,
    DomainError,
    HolomorphyError,
    MetricError,
    ParseError,
    RankError,
)
from kahlercheck.expressions import evaluate, parse
from kahlercheck.geometry import (
    ChartMap,
    ComponentChart,
    PotentialChart,
    PulledBackChart,
    catalog,
    normal_chart,
    pullback_metric_jets,
)
from kahlercheck.jets import derivative_block, jet_mat_inv, variable_jets
from kahlercheck.linalg import pencil_eigh, rng_for
from kahlercheck.maps import HoloMap, kept_jet, point_stacks
from reference import (StretchBarrier, apply_point, catalog_isometry, point_data, point_hessian,
                       postcompose, rayleigh_quotient)

FLAT1 = catalog("flat", dim=1)
FLAT2 = catalog("flat", dim=2)


def energy(data):
    """‖∂f‖² = g^{αβ̄}A_{αβ̄}, read off the pullback form and the metric."""
    return float(np.trace(data.pullback @ np.linalg.inv(data.g)).real)


def random_points(domain_scale, count, dim, seed):
    rng = rng_for(seed, 11)
    pts = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return domain_scale * pts / np.sqrt(2.0)


def precompose(f, change):
    """f ∘ ψ as a map from the pulled-back domain chart, built point by point: the
    normal-chart construction of log W that the stack's z-chart jet is compared with."""
    def component(i):
        return lambda ws: f._components[i](change.on_jets(ws))

    return HoloMap(PulledBackChart(f.domain, change, label=f"pulled[{f.domain.label}]"),
                   f.target, [component(i) for i in range(f.n)], label=f"{f.label}∘ψ")


# -- construction and the pushforward -------------------------------------------


def test_pushforward_square_map():
    f = HoloMap(FLAT1, FLAT1, ["z1^2"])
    assert point_data(f, [3.0]).pushforward == pytest.approx(np.array([[6.0]]))


def test_pushforward_curve_into_ball():
    f = HoloMap(catalog("poincare_disk", a=1.0), catalog("complex_hyperbolic_ball", dim=2, c=1.0),
                ["z1/2", "z1^2/2"])
    np.testing.assert_allclose(point_data(f, [0.0]).pushforward, [[0.5], [0.0]], atol=1e-14)


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
        point_data(f, [0.5])


def test_image_must_stay_inside_target_domain():
    disk = catalog("poincare_disk", a=1.0)
    f = HoloMap(disk, disk, ["2*z1"])
    with pytest.raises(DomainError):
        point_data(f, [0.6])
    assert point_data(f, [0.3]).singular_sq[0] > 0  # image 0.6 is fine


# -- stretch spectrum ------------------------------------------------------------


def test_diagonal_map_spectrum():
    f = HoloMap(FLAT2, FLAT2, ["z1", "2*z2"])
    data = point_data(f, [0.4, -0.7j])
    np.testing.assert_allclose(data.singular_sq, [4.0, 1.0], atol=1e-14)
    assert energy(data) == pytest.approx(5.0, abs=1e-12)
    assert np.prod(data.singular_sq) == pytest.approx(4.0, abs=1e-12)
    # adapted frames put the top stretch first
    diag = np.linalg.solve(data.target_frame, data.pushforward @ data.domain_frame)
    np.testing.assert_allclose(diag, np.diag([2.0, 1.0]), atol=1e-9)


def test_identity_between_rescaled_disks():
    f = HoloMap(catalog("poincare_disk", a=1.0), catalog("poincare_disk", a=2.0), ["z1"])
    for z in (0.0, 0.3, -0.2 + 0.4j):
        data = point_data(f, [z])
        assert data.singular_sq[0] == pytest.approx(2.0, abs=1e-12)
        assert energy(data) == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(point_hessian(f, [0.3 - 0.1j]), 0, atol=1e-12)


def test_rank_deficient_projection():
    f = HoloMap(FLAT2, FLAT2, ["z1", "0"])
    data = point_data(f, [0.5, 0.5])
    np.testing.assert_allclose(data.singular_sq, [1.0, 0.0], atol=1e-14)
    assert data.rank == 1  # below m, so the volume checks read D = 0 here


def test_constant_map_has_zero_energy():
    f = HoloMap(FLAT2, FLAT2, [0.3, "0"])
    data = point_data(f, [1.0, 2.0])
    assert energy(data) == 0.0
    assert data.singular_sq[0] == 0.0 and data.rank == 0


def test_volume_ratio_needs_wide_target():
    from kahlercheck.bounds import Constant, hoop_check, volume_bound_report

    f = HoloMap(FLAT2, FLAT1, ["z1"])
    k, kappa = Constant.analytic("K", 2.0), Constant.analytic("kappa", 1.0)
    with pytest.raises(ConfigurationError, match="m <= n"):
        volume_bound_report(f, [0.1, 0.2], k, kappa)
    with pytest.raises(ConfigurationError, match="m <= n"):
        hoop_check(f, [0.1, 0.2], "volume", k, kappa)


def test_adapted_frames_generic_map():
    f = HoloMap(
        catalog("complex_hyperbolic_ball", dim=2, c=1.0),
        catalog("fubini_study", dim=3, c=2.0),
        ["z1/2 + z2^2/5", "z2/2", "z1*z2/3"],
    )
    p = [0.2 - 0.1j, 0.3 + 0.25j]
    data = point_data(f, p)
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


def test_scalar_invariants_are_consistent():
    f = HoloMap(
        catalog("complex_hyperbolic_ball", dim=2, c=1.0),
        catalog("fubini_study", dim=3, c=2.0),
        ["z1/2 + z2^2/5", "z2/2", "z1*z2/3"],
    )
    for p in random_points(0.4, 5, 2, seed=21):
        data = point_data(f, p)
        assert energy(data) == pytest.approx(float(np.sum(data.singular_sq)), abs=1e-10)
        vals, _ = pencil_eigh(data.pullback, data.g)
        assert vals[-1] == pytest.approx(float(data.singular_sq[0]), abs=1e-12)
        det_ratio = (np.linalg.det(data.pullback) / np.linalg.det(data.g)).real
        assert np.prod(data.singular_sq) == pytest.approx(det_ratio, abs=1e-10)


# -- covariant Hessian -----------------------------------------------------------


def test_hessian_square_map():
    f = HoloMap(FLAT1, FLAT1, ["z1^2"])
    np.testing.assert_allclose(point_hessian(f, [1.7 - 0.4j]), [[[2.0]]], atol=1e-13)


def test_hessian_flat_to_flat_is_raw_second_derivative():
    f = HoloMap(FLAT2, FLAT2, ["z1^2 + 3*z1*z2", "z2^3"])
    z = [0.6 + 0.2j, -0.8j]
    want = np.zeros((2, 2, 2), dtype=complex)
    want[0] = [[2.0, 3.0], [3.0, 0.0]]
    want[1, 1, 1] = 6.0 * z[1]
    np.testing.assert_allclose(point_hessian(f, z), want, atol=1e-12)


def test_hessian_symmetric_with_curved_target():
    f = HoloMap(FLAT2, catalog("fubini_study", dim=2, c=1.0),
                ["z1^2/4 + z2/3", "z1*z2/5"])
    hess = point_hessian(f, [0.4 - 0.3j, 0.2 + 0.5j])
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
        z = apply_point(nc.change, w)
        np.testing.assert_allclose(
            point_data(fh, w).singular_sq,
            point_data(f, z).singular_sq,
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
            point_data(f2, p).singular_sq,
            point_data(f, p).singular_sq,
            atol=1e-8,
        )


def test_singular_values_survive_target_renormalization_at_anchor():
    f = generic_map()
    p = np.array([0.15 - 0.1j, 0.2 + 0.1j])
    image = point_stacks(f, p, 0)[0].image[0]
    nc_t = normal_chart(f.target, image)
    b_inv = np.linalg.inv(nc_t.change.linear)

    def component(j):
        def fn(zs):
            vals = [f._components[i](zs) for i in range(2)]
            return b_inv[j, 0] * (vals[0] - image[0]) + b_inv[j, 1] * (vals[1] - image[1])

        return fn

    f2 = HoloMap(f.domain, nc_t, [component(0), component(1)])
    np.testing.assert_allclose(
        point_data(f2, p).singular_sq,
        point_data(f, p).singular_sq,
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
        data = point_data(iso, p)
        np.testing.assert_allclose(data.singular_sq, 1.0, atol=1e-8)


def test_target_isometry_preserves_invariants():
    disk3 = catalog("poincare_disk", a=3.0)
    f = HoloMap(catalog("poincare_disk", a=1.0), disk3, ["z1^2/2 + z1/3"])
    iso = catalog_isometry(disk3, seed=11)
    f2 = postcompose(iso, f)
    for z in (0.0, 0.2, -0.3 + 0.4j, 0.55j):
        np.testing.assert_allclose(
            point_data(f2, [z]).singular_sq,
            point_data(f, [z]).singular_sq,
            atol=1e-8,
        )
        data2, data = point_data(f2, [z]), point_data(f, [z])
        assert energy(data2) == pytest.approx(energy(data), abs=1e-8)
        assert np.prod(data2.singular_sq) == pytest.approx(np.prod(data.singular_sq), abs=1e-8)


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
    assert abs(bar.value([0.0]) - point_data(f, anchor).singular_sq[0]) <= 1e-10
    # m = 1: the quotient has nothing to vary over, so W is the norm itself
    for w in random_points(0.1, 20, 1, seed=17):
        assert bar.value(w) <= bar.max_norm_at(w) + 1e-12
        assert bar.value(w) == pytest.approx(bar.max_norm_at(w), abs=1e-12)


def test_barrier_minorizes_max_norm_nearby():
    f = HoloMap(FLAT2, catalog("complex_hyperbolic_ball", dim=2, c=1.0),
                ["z1/2", "z2/2 + z1^2/4"])
    anchor = [0.1 + 0.05j, -0.2]
    bar = StretchBarrier(f, anchor)
    assert abs(bar.value([0.0, 0.0]) - point_data(f, anchor).singular_sq[0]) <= 1e-10
    slack = []
    for w in random_points(0.08, 20, 2, seed=19):
        w_val = bar.value(w)
        top = bar.max_norm_at(w)
        assert w_val <= top + 1e-12
        slack.append(top - w_val)
    assert max(slack) > 1e-8  # strict somewhere, the bound is not vacuous


def _log_w_alone(f, point):
    """log W at one point in the normal chart whose axes are the adapted frame, on the
    precomposed map at w = 0: the map and both charts evaluated again in that chart."""
    nc = normal_chart(f.domain, point, frame=point_data(f, point).domain_frame)
    origin = np.zeros(f.m)
    a_jets = pullback_metric_jets(f.target, precompose(f, nc.change).component_jets(origin, 4), 2)
    c_jets = [[entry.conj() for entry in row] for row in jet_mat_inv(nc.metric_jets(origin, 2))]
    return rayleigh_quotient(a_jets, c_jets, 0).log()


# ∂f vanishes at the middle point, so the stack skips that row
LOG_W_CASES = {
    "catalog": HoloMap(catalog("complex_hyperbolic_ball", dim=2, c=1.3),
                       catalog("poincare_polydisk", dim=2, a=0.9),
                       ["0.5*(z1 - 0.1)^2 + 0.3*(z2 - 0.2)^2",
                        "0.4*(z2 - 0.2)^2 + 0.2*(z1 - 0.1)*(z2 - 0.2)"]),
    "expression": HoloMap(PotentialChart(2, "abs2(z1) + abs2(z2) + 0.1*abs2(z1)^2", None, "quartic"),
                          ComponentChart(3, [["1 + 0.2*abs2(z1)", "0", "0"],
                                             ["0", "1 + 0.1*abs2(z2)", "0"],
                                             ["0", "0", "exp(0.3*abs2(z3))"]], None, "product"),
                          ["0.5*(z1 - 0.1)^2 + 0.3*(z2 - 0.2)^2", "0.4*(z2 - 0.2)^2",
                           "0.2*(z1 - 0.1)*(z2 - 0.2) + 0.1*(z1 - 0.1)^3"]),
}


@pytest.mark.parametrize("name", sorted(LOG_W_CASES))
def test_stacked_log_w_jets_match_the_per_point_construction(name):
    # the stack's log W is a jet in z, the reference's one in the normal chart w, and
    # ∂z/∂w = E at the point: the value, Eᵀ·∂ and Eᵀ·L·Ē agree, the pure Hessian need not
    f = LOG_W_CASES[name]
    points = random_points(0.3, 5, 2, seed=23)
    points[2] = [0.1, 0.2]
    (stack,) = point_stacks(f, points, 4)
    with pytest.raises(RankError, match="vanishes"):
        kept_jet(stack.log_w_jets[2])
    for k in (0, 1, 3, 4):
        got, want = kept_jet(stack.log_w_jets[k]), _log_w_alone(f, points[k])
        assert got.order == want.order == 2
        e = stack.stretch.domain_frame[k]
        pairs = [(got.value, want.value),
                 (e.T @ derivative_block(got, "grad"), derivative_block(want, "grad")),
                 (e.T @ derivative_block(got, "levi") @ e.conj(), derivative_block(want, "levi"))]
        for have, expected in pairs:
            assert np.max(np.abs(have - expected)) <= 1e-13 * np.max(np.abs(want.coeffs))


def test_point_stacks_take_points_or_stacks_of_the_same_map():
    f = HoloMap(FLAT2, FLAT2, ["z1", "z2"])
    g = HoloMap(FLAT2, FLAT2, ["z2", "z1"])
    stacks = point_stacks(f, np.array([[0.1, 0.2], [0.3, 0.0]]), 1)
    assert [(len(s), s.order) for s in stacks] == [(2, 1)]
    assert point_stacks(f, stacks, 1) == stacks
    assert point_stacks(f, stacks, 0) == stacks
    assert [len(s) for s in point_stacks(f, [0.1, 0.2], 1)] == [1]
    with pytest.raises(ConfigurationError):
        point_stacks(g, stacks, 1)
    with pytest.raises(ConfigurationError):
        point_stacks(f, stacks, 4)
    for bad in (np.zeros((0, 2)), np.zeros((3, 1)), np.zeros((2, 2, 2))):
        with pytest.raises(ConfigurationError):
            point_stacks(f, bad, 1)


# -- the stacked stretch path -------------------------------------------------------

DATA_FIELDS = ("point", "image", "pushforward", "pullback", "singular_sq", "domain_frame",
               "target_frame", "g", "h", "rank")

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
    data = point_data(f, point)
    p_mat, g, h = data.pushforward, data.g, data.h
    pullback = p_mat.T @ h @ np.conj(p_mat)
    eye = np.eye(len(g), dtype=complex)
    cg = scipy.linalg.solve_triangular(np.linalg.cholesky(g), eye, lower=True).T
    ch = scipy.linalg.solve_triangular(np.linalg.cholesky(h), np.eye(len(h), dtype=complex),
                                       lower=True).T
    u, s, vh = np.linalg.svd(scipy.linalg.solve(ch, p_mat @ cg))
    return 0.5 * (pullback + pullback.conj().T), s, cg @ vh.conj().T, ch @ u


def _assert_close_up_to_column_phases(got, want, atol):
    """``got`` is ``want`` with each column turned by one unit phase, to ``atol``."""
    overlap = np.sum(np.conj(want) * got, axis=0)
    np.testing.assert_allclose(got, want * overlap / np.abs(overlap), rtol=0, atol=atol)


@pytest.mark.parametrize("name", sorted(STRETCH_CASES))
def test_stretch_data_on_k_points_matches_one_point_contexts(name):
    domain, target, components = STRETCH_CASES[name]
    f = HoloMap(domain, target, components)
    points = random_points(0.3, 7, f.m, seed=5)
    if name == "fold":
        points[2, 0] = 0.0  # ∂f drops to rank 1 here
    (stack,) = point_stacks(f, points, 1)
    for k, point in enumerate(points):
        data, alone = stack.stretch.at(k), point_data(f, point)
        for field in DATA_FIELDS:
            assert np.array_equal(getattr(data, field), getattr(alone, field)), field
        pullback, s, domain_frame, target_frame = _per_point_reference(f, point)
        np.testing.assert_allclose(data.pullback, pullback, rtol=0, atol=1e-14)
        np.testing.assert_allclose(data.singular_sq[: len(s)], s[: f.m] ** 2, rtol=1e-13, atol=1e-15)
        _assert_close_up_to_column_phases(data.domain_frame, domain_frame, atol=1e-12)
        _assert_close_up_to_column_phases(data.target_frame, target_frame, atol=1e-12)
    if name == "fold":
        assert list(stack.stretch.rank).count(1) == 1 and stack.stretch.rank[2] == 1


def test_stretch_data_keeps_what_contexts_already_carry(monkeypatch):
    f = HoloMap(FLAT2, catalog("complex_hyperbolic_ball", dim=2), ["0.3*z1", "0.2*z1*z2"])
    from kahlercheck.bounds import Constant, royden_bound_report

    stacks = point_stacks(f, random_points(0.4, 4, 2, seed=2), 1)
    first = stacks[0].stretch  # computes the whole stack's stretch data

    def no_svd(*args, **kwargs):
        raise AssertionError("stretch data computed twice")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert stacks[0].stretch is first
    report = royden_bound_report(f, stacks, Constant.analytic("K", 1.0),
                                 Constant.analytic("kappa", 1.0))
    assert report.observed == max(float(np.sum(first.at(k).singular_sq)) for k in range(4))


def test_stretch_data_names_the_first_point_with_a_bad_metric():
    # the potential's metric 1 − 4|z1|² is positive only inside |z1| < 1/2
    domain = PotentialChart(1, "abs2(z1) - abs2(z1)^2", None, "bent")
    f = HoloMap(domain, FLAT1, ["z1"])
    (stack,) = point_stacks(f, np.array([[0.1], [0.2], [0.6], [0.7]]), 1)
    with pytest.raises(MetricError, match=r"bent: metric \(matrix 2\) is not positive definite"):
        stack.stretch


# -- polynomial maps ---------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
MANIFESTS = ROOT / "tools" / "snapshot_manifests"
# the snapshot's maps that are not polynomials, on purpose
TREE_MANIFESTS = {"exp_and_log_in_the_map", "quotient_map_into_projective",
                  "power_over_the_monomial_cap"}
# the snapshot's maps that do not load, and why
FAULTY_MANIFESTS = {"map_divides_by_zero": "'z1/0' divides by zero",
                    "map_constant_power_overflows": "'2^2000*z1' overflows"}


def workload_docs(monkeypatch) -> list[dict]:
    if not (ROOT / "bench" / "workloads.py").is_file():
        pytest.skip("bench/ is not part of this checkout")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    return [case.doc for name in workloads.WORKLOADS for seed in (1, 2, 3)
            for case in workloads.BUILDERS[name](seed)]


def test_every_shipped_snapshot_and_workload_map_is_a_polynomial(monkeypatch):
    snapshot = {path.stem: json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(MANIFESTS.glob("*.json"))}
    docs = [*shipped_scenarios().values(), *workload_docs(monkeypatch),
            *(doc for name, doc in snapshot.items()
              if name not in TREE_MANIFESTS | set(FAULTY_MANIFESTS))]
    assert len(docs) > 600
    for doc in docs:
        f = load_scenario(doc).holo_map
        assert f.monomials is not None and len(f.monomials) == f.n, doc["name"]
    for name in TREE_MANIFESTS:
        assert load_scenario(snapshot[name]).holo_map.monomials is None, name
    for name, message in FAULTY_MANIFESTS.items():
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            load_scenario(snapshot[name])


def test_a_quotient_map_stays_on_the_tree_path():
    # a reading of the divisor's constant term alone would give the jets of the numerator / 1.5
    texts = ["z1/(2 - z2)", "(z2 + 0.3*z1^2)/(1.5 + 0.5*z1)"]
    points = random_points(0.5, 4, 2, seed=9)
    for components in (texts, [texts[1], "0.5*z1 + z2^2"]):
        f = HoloMap(FLAT2, FLAT2, components)
        assert f.monomials is None
        got = f.component_jets(points, 4)
        for jet, text in zip(got, components):
            want = evaluate(parse(text), variable_jets(points, 2, 4))
            assert np.array_equal(jet.coeffs, want.coeffs)


def test_a_map_of_126_monomials_loads_and_its_jets_sum_its_terms():
    doc = json.loads((MANIFESTS / "full_quintic_map_in_four_variables.json").read_text())
    text = doc["map"][0]
    with pytest.raises(ParseError, match="nests deeper"):  # the tree counts every '+'
        parse(text)
    f = load_scenario(doc).holo_map
    assert [len(poly) for poly in f.monomials] == [126, 2]
    points = random_points(0.3, 3, 4, seed=126)
    got = f.component_jets(points, 4)[0]
    zs = variable_jets(points, 4, 4)
    terms = re.split(r" \+ (?=\()", text)  # a term starts with its parenthesized coefficient
    assert len(terms) == 126
    want = sum((evaluate(parse(term), zs) for term in terms[1:]), evaluate(parse(terms[0]), zs))
    scale = np.max(np.abs(want.coeffs), axis=0)
    assert np.all(np.abs(got.coeffs - want.coeffs) <= 1e-13 * scale)


def test_a_polynomial_map_on_jets_evaluates_its_monomials():
    texts = ["0.5*(z1 - 0.1)^2 + 0.3*z2", "(0.2 - 0.1*i)*z1*z2^3 - 2", "0.25"]
    f = HoloMap(FLAT2, catalog("flat", dim=3), texts)
    assert f.monomials[2] == {(0, 0): 0.25}
    w = variable_jets(random_points(0.4, 3, 2, seed=4), 2, 3)
    ws = [w[0] + 0.3 * w[1] * w[1], w[1] - 0.2 * w[0]]  # a holomorphic change of coordinates
    for got, text in zip(f.on_jets(ws), texts, strict=True):
        want = evaluate(parse(text), ws)
        if isinstance(want, float):
            want = ws[0] * 0.0 + want
        scale = np.max(np.abs(want.coeffs), axis=0)
        assert np.all(np.abs(got.coeffs - want.coeffs) <= 1e-13 * scale)
