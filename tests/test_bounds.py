"""Bound reports: Schwarz-type estimates, three-circle convexity and hoops."""

import math

import numpy as np
import pytest

from kahlercheck.bounds import (
    BoundReport,
    Constant,
    _sphere_points,
    hoop_check,
    royden_bound_report,
    schwarz_bound_report,
    three_circle_check,
    three_circle_data,
    volume_bound_report,
)
from kahlercheck.cli import report_notes
from kahlercheck.errors import ConfigurationError, DegenerateInputError
from kahlercheck.geometry import catalog
from kahlercheck.linalg import rng_for
from kahlercheck.maps import HoloMap, point_stacks
from reference import catalog_isometry, postcompose

FLAT1 = catalog("flat", dim=1)
FLAT2 = catalog("flat", dim=2)


def disk(a):
    return catalog("poincare_disk", a=a)


def ball(m, c):
    return catalog("complex_hyperbolic_ball", dim=m, c=c)


def proj(n, c):
    return catalog("fubini_study", dim=n, c=c)


def clamped_points(count, dim, seed, cap):
    rng = rng_for(seed, 11)
    pts = (rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))) * 0.4
    norms = np.linalg.norm(pts, axis=1)
    pts *= np.minimum(1.0, cap / np.maximum(norms, 1e-12))[:, None]
    return pts


def hol_sec_constants(dom_name, dom_params, tgt_name, tgt_params):
    k = -catalog(dom_name, **dom_params).model.facts.hol_sec_min
    kappa = -catalog(tgt_name, **tgt_params).model.facts.hol_sec_max
    return Constant.analytic("K", k), Constant.analytic("kappa", kappa)


# -- constants and report shape --------------------------------------------------


def test_constant_validation():
    assert Constant.analytic("K", 2).source == "analytic"
    assert Constant.sampled("kappa", 1.5).source == "sampled"
    with pytest.raises(ConfigurationError):
        Constant("K", 1.0, "guessed")
    with pytest.raises(ConfigurationError):
        Constant.analytic("K", math.inf)


def test_report_invariants_across_kinds():
    f = HoloMap(disk(1.0), disk(2.0), ["z1"])
    pts = clamped_points(8, 1, 3, 0.8)
    k, kappa = hol_sec_constants("poincare_disk", {"a": 1.0}, "poincare_disk", {"a": 2.0})
    g = HoloMap(proj(1, 1.0), proj(1, 2.0), ["z1"])
    gpts = np.array([[0.0], [0.7 + 0.2j], [-1.5j]])
    reports = [
        schwarz_bound_report(f, pts, k, kappa),
        volume_bound_report(f, pts, Constant.analytic("K", 2.0), kappa),
        royden_bound_report(f, pts, k, kappa),
        hoop_check(g, gpts, "volume", Constant.analytic("K", 2.0), Constant.analytic("kappa", 1.0)),
    ]
    for rep in reports:
        assert rep.passed == (rep.slack >= -rep.tolerance)
        assert rep.equality_case == (abs(rep.slack) <= rep.tolerance)
        assert rep.lower_estimate == rep.kind.startswith("hoop")
        if rep.lower_estimate:
            assert rep.slack == pytest.approx(rep.observed - rep.bound)
        else:
            assert rep.slack == pytest.approx(rep.bound - rep.observed)


def test_points_shape_validated():
    f = HoloMap(disk(1.0), disk(2.0), ["z1"])
    k, kappa = Constant.analytic("K", 2.0), Constant.analytic("kappa", 1.0)
    with pytest.raises(ConfigurationError):
        schwarz_bound_report(f, np.zeros((3, 2), dtype=complex), k, kappa)
    with pytest.raises(ConfigurationError):
        schwarz_bound_report(f, np.zeros((0, 1), dtype=complex), k, kappa)
    flat = schwarz_bound_report(f, np.array([0.2 + 0.1j]), k, kappa)
    assert flat.points_checked == 1


# -- Schwarz top-stretch bound ---------------------------------------------------


def test_schwarz_disk_identity_equality():
    f = HoloMap(disk(1.0), disk(2.0), ["z1"])
    k, kappa = hol_sec_constants("poincare_disk", {"a": 1.0}, "poincare_disk", {"a": 2.0})
    assert (k.value, kappa.value) == (2.0, 1.0)
    pts = np.vstack([np.zeros((1, 1)), clamped_points(12, 1, 5, 0.9)])
    rep = schwarz_bound_report(f, pts, k, kappa)
    assert rep.bound == pytest.approx(2.0)
    assert rep.observed == pytest.approx(2.0, abs=1e-10)
    assert rep.passed and rep.equality_case
    assert abs(rep.slack) <= 1e-8
    assert "analytic" in report_notes(rep)[0]


def test_schwarz_strict_contraction():
    d = disk(1.0)
    f = HoloMap(d, d, ["z1^2/2"])
    k, kappa = hol_sec_constants("poincare_disk", {"a": 1.0}, "poincare_disk", {"a": 1.0})
    rep = schwarz_bound_report(f, clamped_points(20, 1, 9, 0.85), k, kappa)
    assert rep.bound == pytest.approx(1.0)
    assert rep.passed and not rep.equality_case
    assert rep.slack > 0.1


def test_schwarz_zero_k_forces_constant():
    f = HoloMap(FLAT1, disk(1.0), ["z1/2"])
    k = Constant.analytic("K", -catalog("flat", dim=1).model.facts.hol_sec_min)
    rep = schwarz_bound_report(f, clamped_points(6, 1, 2, 0.9), k,
                               Constant.analytic("kappa", 2.0))
    assert k.value == 0.0 and rep.bound == 0.0
    assert not rep.passed
    assert any("constant" in note for note in rep.notes)


def test_schwarz_rejects_bad_constants():
    f = HoloMap(disk(1.0), disk(2.0), ["z1"])
    pts = np.array([[0.1]])
    with pytest.raises(ConfigurationError):
        schwarz_bound_report(f, pts, Constant.analytic("K", 2.0), Constant.analytic("kappa", 0.0))
    with pytest.raises(ConfigurationError):
        schwarz_bound_report(f, pts, Constant.analytic("K", -1.0), Constant.analytic("kappa", 1.0))


@pytest.mark.parametrize("report", [volume_bound_report, royden_bound_report])
def test_volume_and_royden_reject_a_negative_k(report):
    f = HoloMap(disk(1.0), disk(2.0), ["z1"])
    with pytest.raises(ConfigurationError, match="K must be nonnegative"):
        report(f, np.array([[0.1]]), Constant.analytic("K", -1.0), Constant.analytic("kappa", 1.0))


def test_schwarz_sampled_constants_marked_advisory():
    f = HoloMap(disk(1.0), disk(2.0), ["z1"])
    rep = schwarz_bound_report(f, np.array([[0.2]]), Constant.sampled("K", 2.0),
                               Constant.analytic("kappa", 1.0))
    assert any("advisory" in note for note in report_notes(rep))


def test_schwarz_observed_invariant_under_domain_isometry():
    d = disk(1.0)
    f = HoloMap(d, disk(2.0), ["z1^2/3 + z1/2"])
    iso = catalog_isometry(d, seed=7)
    k, kappa = hol_sec_constants("poincare_disk", {"a": 1.0}, "poincare_disk", {"a": 2.0})
    pts = clamped_points(10, 1, 13, 0.8)
    composed = schwarz_bound_report(postcompose(f, iso), pts, k, kappa)
    moved = np.concatenate([stack.image for stack in point_stacks(iso, pts, 0)])
    direct = schwarz_bound_report(f, moved, k, kappa)
    assert composed.observed == pytest.approx(direct.observed, abs=1e-8)


# -- volume and energy bounds ----------------------------------------------------


def test_volume_disk_identity_equality():
    f = HoloMap(disk(1.0), disk(2.0), ["z1"])
    k = Constant.analytic("K", -catalog("poincare_disk", a=1.0).model.facts.scalar)
    kappa = Constant.analytic("kappa", -catalog("poincare_disk", a=2.0).model.facts.ricci_max)
    rep = volume_bound_report(f, clamped_points(10, 1, 4, 0.9), k, kappa)
    assert (k.value, kappa.value) == (2.0, 1.0)
    assert rep.bound == pytest.approx(2.0)
    assert rep.passed and rep.equality_case


def test_volume_rescaled_ball_equality():
    f = HoloMap(ball(2, 1.0), ball(2, 2.0), ["z1", "z2"])
    k = Constant.analytic("K", -catalog("complex_hyperbolic_ball", dim=2, c=1.0).model.facts.scalar)
    kappa = Constant.analytic("kappa", -catalog("complex_hyperbolic_ball", dim=2, c=2.0).model.facts.ricci_max)
    assert (k.value, kappa.value) == (6.0, 1.5)
    rep = volume_bound_report(f, clamped_points(40, 2, 8, 0.7), k, kappa)
    assert rep.bound == pytest.approx(4.0)
    assert rep.observed == pytest.approx(4.0, abs=1e-9)
    assert rep.passed and rep.equality_case


def test_volume_zero_k_forces_degeneracy():
    f = HoloMap(FLAT2, ball(2, 1.0), ["z1/2", "z2/3"])
    rep = volume_bound_report(f, clamped_points(6, 2, 6, 0.9), Constant.analytic("K", 0.0),
                              Constant.analytic("kappa", 1.5))
    assert rep.bound == 0.0 and not rep.passed
    assert any("degeneracy" in note for note in rep.notes)


def test_volume_needs_m_at_most_n():
    f = HoloMap(ball(2, 1.0), disk(1.0), ["z1/2"])
    with pytest.raises(ConfigurationError):
        volume_bound_report(f, np.array([[0.1, 0.1]]), Constant.analytic("K", 6.0),
                            Constant.analytic("kappa", 1.0))


def test_royden_rank_one_equality():
    f = HoloMap(disk(1.0), disk(2.0), ["z1"])
    k = Constant.analytic("K", -catalog("poincare_disk", a=1.0).model.facts.ricci_min)
    kappa = Constant.analytic("kappa", -catalog("poincare_disk", a=2.0).model.facts.hol_sec_max)
    rep = royden_bound_report(f, clamped_points(8, 1, 7, 0.9), k, kappa)
    assert rep.coefficient == "1"
    assert rep.bound == pytest.approx(2.0)
    assert rep.passed and rep.equality_case


def test_royden_rank_two_coefficient():
    f = HoloMap(ball(2, 1.0), ball(2, 2.0), ["z1", "z2"])
    k = Constant.analytic("K", -catalog("complex_hyperbolic_ball", dim=2, c=1.0).model.facts.ricci_min)
    kappa = Constant.analytic("kappa", -catalog("complex_hyperbolic_ball", dim=2, c=2.0).model.facts.hol_sec_max)
    assert (k.value, kappa.value) == (3.0, 1.0)
    rep = royden_bound_report(f, clamped_points(20, 2, 12, 0.7), k, kappa)
    assert rep.coefficient == "4/3"
    assert rep.bound == pytest.approx(4.0)
    assert rep.passed and rep.equality_case


def test_royden_constant_map_rank_zero():
    f = HoloMap(disk(1.0), ball(2, 1.0), ["0.3", "0.1"])
    rep = royden_bound_report(f, clamped_points(5, 1, 1, 0.9), Constant.analytic("K", 2.0),
                              Constant.analytic("kappa", 2.0))
    assert rep.coefficient == "0"
    assert rep.observed == 0.0 and rep.bound == 0.0
    assert rep.passed and rep.equality_case


def test_royden_uses_largest_sampled_rank():
    # rank drops to 1 on the slice z1 = 0 but a generic sample restores d = 2
    f = HoloMap(ball(2, 1.0), ball(2, 1.0), ["z1/2", "z1*z2/4"])
    pts = np.vstack([np.array([[0.0, 0.2]]), clamped_points(10, 2, 15, 0.5)])
    rep = royden_bound_report(f, pts, Constant.analytic("K", 3.0), Constant.analytic("kappa", 2.0))
    assert rep.coefficient == "4/3"
    assert rep.passed


# -- three-circle convexity ------------------------------------------------------


def test_three_circle_z_squared_equality():
    f = HoloMap(FLAT1, FLAT1, ["z1^2"])
    maxima = three_circle_data(f, (0.5, 1.0, 2.0), 64)
    assert maxima == pytest.approx((1.0, 2.0, 4.0), abs=1e-12)
    rep = three_circle_check(f, (0.5, 1.0, 2.0))
    assert rep.status == "ok"
    assert rep.passed and rep.max_abs_residual <= 1e-9


def test_three_circle_linear_map_constant_modulus():
    f = HoloMap(FLAT1, FLAT1, ["2*z1"])
    rep = three_circle_check(f, (0.5, 1.0, 2.0))
    assert rep.passed and rep.max_abs_residual == 0.0


def test_three_circle_constant_map_vacuous():
    f = HoloMap(FLAT1, FLAT1, ["0.5"])
    rep = three_circle_check(f, (0.5, 1.0, 2.0))
    assert rep.passed
    assert any("vacuous" in note for note in rep.notes)


def _signed_slack(rep):
    for note in rep.notes:
        if note.startswith("signed_slack="):
            return float(note.split("=", 1)[1])
    raise AssertionError(f"no signed slack note in {rep.notes}")


def test_three_circle_curved_target_strict():
    f = HoloMap(FLAT1, ball(1, 1.0), ["z1/2"])
    rep = three_circle_check(f, (0.25, 0.5, 1.0))
    assert rep.status == "ok" and rep.passed
    assert rep.max_abs_residual == 0.0
    assert _signed_slack(rep) > 0.01


def test_three_circle_positive_curvature_not_applicable():
    f = HoloMap(FLAT1, proj(1, 1.0), ["z1/2"])
    rep = three_circle_check(f, (0.25, 0.5, 1.0))
    assert rep.status == "not_applicable"
    assert any("bisectional" in note for note in rep.refuted)
    assert any("bisectional" in note for note in report_notes(rep))


def test_three_circle_middle_doubling_monotone():
    f = HoloMap(FLAT2, ball(2, 1.0), ["z1/2 + z2^2/5", "z2/2 - z1*z2/7"])
    radii = (0.3, 0.6, 0.9)
    coarse = three_circle_data(f, radii, (32, 16, 32), seed=4)
    fine = three_circle_data(f, radii, (32, 32, 32), seed=4)
    assert fine[0] == coarse[0] and fine[2] == coarse[2]
    assert fine[1] >= coarse[1] - 1e-15

    def slack(maxima):
        w = (math.log(radii[1]) - math.log(radii[0])) / (math.log(radii[2]) - math.log(radii[0]))
        return (1 - w) * math.log(maxima[0]) + w * math.log(maxima[2]) - math.log(maxima[1])

    assert slack(fine) <= slack(coarse) + 1e-15


def test_three_circle_rejects_bad_input():
    f = HoloMap(FLAT1, FLAT1, ["z1^2"])
    with pytest.raises(ConfigurationError):
        three_circle_check(f, (1.0, 0.5, 2.0))
    with pytest.raises(ConfigurationError):
        three_circle_check(f, (-1.0, 0.5, 2.0))
    g = HoloMap(disk(1.0), disk(1.0), ["z1"])
    with pytest.raises(ConfigurationError):
        three_circle_check(g, (0.2, 0.4, 0.8))


def per_sphere_maxima(f, radii, counts, seed=0):
    """three_circle_data's former sweep, kept as its reference: each sphere's samples
    in stacks of their own."""
    maxima = []
    for r, count in zip(radii, counts):
        samples = _sphere_points(r, f.m, count, seed)
        top = max(float(np.max(stack.stretch.singular_sq[:, 0]))
                  for stack in point_stacks(f, samples, 1))
        maxima.append(math.sqrt(top))
    return tuple(maxima)


@pytest.mark.parametrize("counts", [[16, 16], [16, 16, 16, 16], 0, [4, 0, 4], 2.5, -3,
                                    [4, 4.0, 4], True, [4, True, 4], "16", None, {4: 4}])
def test_three_circle_rejects_bad_counts(counts):
    f = HoloMap(FLAT1, FLAT1, ["z1^2"])
    for run in (three_circle_data, three_circle_check):
        with pytest.raises(ConfigurationError, match="counts must be"):
            run(f, (0.5, 1.0, 2.0), counts)


@pytest.mark.parametrize("counts", [4, np.int64(4), [4, 4, 4], (4, 4, 4),
                                    [np.int32(4), 4, np.uint8(4)]])
def test_three_circle_takes_one_count_or_three(counts):
    f = HoloMap(FLAT1, FLAT1, ["z1^2 + z1^3"])
    radii = (0.5, 1.0, 2.0)
    assert three_circle_data(f, radii, counts) == per_sphere_maxima(f, radii, (4, 4, 4))
    assert three_circle_check(f, radii, counts).points_checked == 12


# -- hoop bounds -----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["volume", "stretching"])
def test_hoop_rescaled_projective_equality(mode):
    f = HoloMap(proj(1, 1.0), proj(1, 2.0), ["z1"])
    facts1 = catalog("fubini_study", dim=1, c=1.0).model.facts
    facts2 = catalog("fubini_study", dim=1, c=2.0).model.facts
    if mode == "volume":
        k, kappa = facts1.ricci_min, facts2.ricci_max
    else:
        k, kappa = facts1.hol_sec_min, facts2.hol_sec_max
    assert (k, kappa) == (2.0, 1.0)
    pts = np.array([[0.0], [0.8 + 0.3j], [-2.0j], [5.0]])
    rep = hoop_check(f, pts, mode, Constant.analytic("K", k), Constant.analytic("kappa", kappa))
    assert rep.bound == pytest.approx(2.0)
    assert rep.observed == pytest.approx(2.0, abs=1e-9)
    assert rep.passed and rep.equality_case
    assert rep.lower_estimate
    assert any("advisory" in note for note in report_notes(rep))


def test_hoop_squaring_map_exceeds_bound():
    p1 = proj(1, 1.0)
    f = HoloMap(p1, p1, ["z1^2"])
    pts = np.array([[0.5], [1.0], [2.0 + 1.0j]])
    rep = hoop_check(f, pts, "stretching", Constant.analytic("K", 2.0),
                     Constant.analytic("kappa", 2.0))
    assert rep.bound == pytest.approx(1.0)
    assert rep.observed >= 4.0 - 1e-9  # the squared top stretch at z = 1
    assert rep.passed and not rep.equality_case


def test_hoop_rejects_bad_configuration():
    f = HoloMap(proj(1, 1.0), proj(1, 2.0), ["z1"])
    pts = np.array([[0.3]])
    with pytest.raises(ConfigurationError):
        hoop_check(f, pts, "volume", Constant.analytic("K", 0.0), Constant.analytic("kappa", 1.0))
    with pytest.raises(ConfigurationError):
        hoop_check(f, pts, "volume", Constant.analytic("K", 2.0), Constant.analytic("kappa", -1.0))
    with pytest.raises(ConfigurationError):
        hoop_check(f, pts, "girth", Constant.analytic("K", 2.0), Constant.analytic("kappa", 1.0))
    g = HoloMap(proj(2, 1.0), proj(1, 1.0), ["z1"])
    with pytest.raises(ConfigurationError):
        hoop_check(g, np.array([[0.1, 0.2]]), "volume", Constant.analytic("K", 2.0),
                   Constant.analytic("kappa", 2.0))


def test_hoop_degenerate_map_is_loud():
    f = HoloMap(proj(1, 1.0), proj(1, 1.0), ["0.2"])
    with pytest.raises(DegenerateInputError):
        hoop_check(f, np.array([[0.3], [1.0]]), "volume", Constant.analytic("K", 2.0),
                   Constant.analytic("kappa", 2.0))


def test_sphere_samples_stack_one_svd_per_chunk(monkeypatch):
    from kahlercheck import maps

    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    f = HoloMap(FLAT2, catalog("flat", dim=3), ["z1", "z1*z2", "0.5*z2^2"])
    radii, counts = (0.5, 1.0, 2.0), (5, 6, 7)
    want = per_sphere_maxima(f, radii, counts)
    shapes.clear()
    # the three spheres are one run of 18 points
    assert three_circle_data(f, radii, counts) == want
    assert shapes == [(18, 3, 2)]
    # stacks of 4 straddle the spheres' boundaries at points 5 and 11
    monkeypatch.setattr(maps, "STACK_CHUNK", 4)
    shapes.clear()
    assert three_circle_data(f, radii, counts) == want
    assert shapes == [(4, 3, 2)] * 4 + [(2, 3, 2)]
