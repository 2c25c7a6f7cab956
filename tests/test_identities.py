"""Identity check tests.

The two sides of each identity are computed along independent paths
(jets of the global scalar vs. covariant assembly), so agreement at
50 seeded points is itself the oracle.  Closed-form cases: constant
energy for the rescaled-disk identity map, zero curvature for flat
charts, and the CHB bisectional table for the averaging identity.
"""

import numpy as np
import pytest

from kahlercheck.bounds import three_circle_check
from kahlercheck.errors import (
    ConfigurationError,
    DegenerateInputError,
    MultiplicityError,
    RankError,
)
from kahlercheck.geometry import ChartMap, catalog, curvature_tensor
from kahlercheck.identities import (
    CheckReport,
    averaging_form,
    averaging_identity_check,
    boch1_sides,
    boch2_sides,
    log_w_sides,
    psh_check,
    sandwich_check,
    verify_boch1,
    verify_boch2,
    verify_log_w,
)
from kahlercheck.linalg import rng_for
from kahlercheck.maps import HoloMap, map_point_data
from test_maps import precompose

FLAT1 = catalog("flat", dim=1)
FLAT2 = catalog("flat", dim=2)


def seeded_points(scale, count, dim, seed, cap=None):
    rng = rng_for(seed, 11)
    pts = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    pts = scale * pts / np.sqrt(2.0)
    if cap is not None:  # pull gaussian tails back inside the chart domain
        norms = np.linalg.norm(pts, axis=1)
        pts *= np.minimum(1.0, cap / np.maximum(norms, 1e-12))[:, None]
    return pts


def curve_into_ball():
    return HoloMap(FLAT1, catalog("complex_hyperbolic_ball", dim=2, c=1.0),
                   ["z1/2", "z1^2/2"])


def disk_identity():
    return HoloMap(catalog("poincare_disk", a=1.0), catalog("poincare_disk", a=2.0), ["z1"])


def generic_surface_map():
    return HoloMap(
        catalog("complex_hyperbolic_ball", dim=2, c=1.0),
        catalog("fubini_study", dim=3, c=1.0),
        ["z1/2 + z2^2/5", "z2/2", "z1*z2/3"],
    )


# -- energy identity -------------------------------------------------------------


def test_boch1_flat_linear_everything_vanishes():
    f = HoloMap(FLAT2, FLAT2, ["2*z1 + z2", "z2/3"])
    lhs, rhs = boch1_sides(f, [0.4, -0.9j], [1.0, 2.0])
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)


def test_boch1_curve_into_ball_50_points():
    report = verify_boch1(curve_into_ball(), seeded_points(0.8, 50, 1, seed=3, cap=1.1), [1.0])
    assert report.passed and report.points_checked == 50
    assert report.max_abs_residual <= 1e-6
    assert report.kind == "boch1" and report.status == "ok"
    assert len(report.details) == 50


def test_boch1_disk_identity_sides_vanish():
    f = disk_identity()
    for z in (0.0, 0.3, -0.2 + 0.4j):
        lhs, rhs = boch1_sides(f, [z], [1.0])
        assert abs(lhs) <= 1e-9 and abs(rhs) <= 1e-9


def test_boch1_multidim_curved_triple():
    f = generic_surface_map()
    report = verify_boch1(f, seeded_points(0.35, 20, 2, seed=5, cap=0.8), [1.0, 0.5j])
    assert report.passed and report.max_abs_residual <= 1e-6


def test_boch1_sides_are_quadratically_homogeneous():
    f = curve_into_ball()
    v = np.array([0.7 - 0.2j])
    lhs1, rhs1 = boch1_sides(f, [0.4 + 0.3j], v)
    lhs2, rhs2 = boch1_sides(f, [0.4 + 0.3j], 2.0 * v)
    assert lhs2 / lhs1 == pytest.approx(4.0, abs=1e-6)
    assert rhs2 / rhs1 == pytest.approx(4.0, abs=1e-6)


def test_boch1_rejects_zero_direction():
    with pytest.raises(DegenerateInputError):
        boch1_sides(curve_into_ball(), [0.1], [0.0])


# -- log-volume identity ---------------------------------------------------------


def test_boch2_flat_diagonal_is_constant():
    f = HoloMap(FLAT2, FLAT2, ["z1", "2*z2"])
    lhs, rhs = boch2_sides(f, [0.3, -0.5], [1.0, 1.0])
    assert lhs == pytest.approx(0.0, abs=1e-13)
    assert rhs == pytest.approx(0.0, abs=1e-13)


def test_boch2_disk_into_ball_30_points():
    f = HoloMap(catalog("poincare_disk", a=1.0), catalog("complex_hyperbolic_ball", dim=2, c=1.0),
                ["z1/2", "z1^2/2"])
    report = verify_boch2(f, seeded_points(0.7, 30, 1, seed=7, cap=0.9), [1.0])
    assert report.passed and report.points_checked == 30
    assert report.max_abs_residual <= 1e-6


def test_boch2_positively_curved_target():
    f = HoloMap(FLAT1, catalog("fubini_study", dim=1, c=1.0), ["z1"])
    for z in (0.1, 0.3 - 0.2j, 0.5j):
        lhs, rhs = boch2_sides(f, [z], [1.0])
        assert abs(lhs - rhs) <= 1e-6
        # the target curvature term is positive here, pulling log D down
        data = map_point_data(f, [z])
        cp_n = curvature_tensor(f.target, data.image)
        t1 = data.target_frame[:, 0]
        pv = data.pushforward @ np.array([1.0 + 0j])
        curv = np.einsum("ijkl,i,j,k,l->", cp_n.riem, t1, np.conj(t1), pv, np.conj(pv)).real
        assert curv > 0
        assert lhs < 0


def test_boch2_multidim_curved_triple():
    f = generic_surface_map()
    report = verify_boch2(f, seeded_points(0.3, 15, 2, seed=9, cap=0.8), [0.6, -0.8j])
    assert report.passed and report.max_abs_residual <= 1e-6


def test_boch2_lhs_survives_flat_translation():
    f = curve_into_ball()
    shift = np.array([0.2 - 0.1j])
    moved = precompose(
        f, ChartMap(shift, np.eye(1, dtype=complex), np.zeros((1, 1, 1)))
    )
    w = np.array([0.1 + 0.05j])
    lhs_moved, _ = boch2_sides(moved, w, [1.0])
    lhs_orig, _ = boch2_sides(f, shift + w, [1.0])
    assert lhs_moved == pytest.approx(lhs_orig, abs=1e-8)


def test_boch2_rank_drop_is_loud():
    f = HoloMap(FLAT2, FLAT2, ["z1", "0"])
    with pytest.raises(RankError):
        boch2_sides(f, [0.1, 0.2], [1.0, 0.0])
    report = verify_boch2(f, seeded_points(0.5, 4, 2, seed=1), [1.0, 0.0])
    assert report.status == "skipped"
    assert report.points_checked == 0 and report.skipped_points == 4
    assert report.passed  # vacuous, but the status says why
    assert any("rank" in note for note in report.notes)


def test_boch2_needs_wide_target():
    f = HoloMap(FLAT2, FLAT1, ["z1"])
    with pytest.raises(ConfigurationError):
        boch2_sides(f, [0.1, 0.2], [1.0, 0.0])


# -- top-stretch identity --------------------------------------------------------


def test_log_w_flat_diagonal_constant():
    f = HoloMap(FLAT2, FLAT2, ["z1", "2*z2"])
    lhs, rhs = log_w_sides(f, [0.7, 0.4j], [1.0, -1.0])
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_log_w_disk_identity_cancels():
    f = disk_identity()
    for z in (0.0, 0.3, -0.2 + 0.4j):
        lhs, rhs = log_w_sides(f, [z], [1.0])
        assert abs(lhs) <= 1e-9 and abs(rhs) <= 1e-9


def test_log_w_curve_into_ball_20_points():
    report = verify_log_w(curve_into_ball(), seeded_points(0.7, 20, 1, seed=13, cap=1.1), [1.0])
    assert report.passed and report.points_checked == 20
    assert report.max_abs_residual <= 1e-6


def test_log_w_multidim_curved_triple():
    f = generic_surface_map()
    report = verify_log_w(f, seeded_points(0.3, 10, 2, seed=15, cap=0.8), [1.0, 0.3])
    assert report.points_checked + report.skipped_points == 10
    assert report.points_checked >= 8  # generic points have a simple top stretch
    assert report.passed and report.max_abs_residual <= 1e-6


def test_log_w_tied_top_value_skips():
    f = HoloMap(FLAT2, FLAT2, ["z1", "z2"])
    with pytest.raises(MultiplicityError):
        log_w_sides(f, [0.1, 0.2], [1.0, 1.0])
    report = verify_log_w(f, seeded_points(0.5, 3, 2, seed=2), [1.0, 1.0])
    assert report.status == "skipped" and report.skipped_points == 3


# -- Rayleigh sandwich -----------------------------------------------------------


def test_sandwich_diagonal_cases():
    a = np.diag([1.0, 4.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    assert sandwich_check(a, eye, 0) == pytest.approx((1.0, 4.0, 1.0))
    assert sandwich_check(a, eye, 1) == pytest.approx((4.0, 4.0, 1.0))


def test_sandwich_random_instances_hold():
    rng = rng_for(17, 23)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        g = x @ x.conj().T + 0.5 * np.eye(m)
        y = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a = y @ y.conj().T
        for s in range(m):
            middle, sup, inf = sandwich_check(a, g, s)
            assert inf - 1e-10 <= middle <= sup + 1e-10


def test_sandwich_middle_attains_sup_in_aligned_case():
    # diagonal metric: the s-th quotient reads off the pencil value at e_s
    g = np.diag([2.0, 0.5, 1.5]).astype(complex)
    mu = np.array([1.0, 7.0, 3.0])
    a = np.diag(mu * np.diag(g).real).astype(complex)
    middle, sup, inf = sandwich_check(a, g, 1)
    assert middle == pytest.approx(sup, abs=1e-12)
    assert sup == pytest.approx(7.0, abs=1e-12)
    assert inf == pytest.approx(1.0, abs=1e-12)


def test_sandwich_rejects_bad_inputs():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ConfigurationError):
        sandwich_check(np.diag([1.0, -1.0]).astype(complex), eye, 0)  # indefinite A
    with pytest.raises(ConfigurationError):
        sandwich_check(eye, eye, 2)  # index out of range


def test_sandwich_raises_when_quotient_leaves_pencil_range(monkeypatch):
    # the claim must hold as a raised error, not an assert that -O strips
    import kahlercheck.identities as identities

    def shifted(a, g):
        vals = np.linalg.eigvalsh(a)
        return vals + 10.0, None

    monkeypatch.setattr(identities, "pencil_eigh", shifted)
    with pytest.raises(DegenerateInputError):
        sandwich_check(np.diag([1.0, 4.0]).astype(complex), np.eye(2, dtype=complex), 0)


# -- sphere averaging ------------------------------------------------------------


def test_averaging_flat_target():
    cp = curvature_tensor(FLAT2, [0.1, 0.2])
    report = averaging_identity_check(cp, [1.0, 1.0], count=200, seed=0)
    assert report.passed
    assert report.max_abs_residual == 0.0


def test_averaging_hyperbolic_ball_equal_weights():
    cp = curvature_tensor(catalog("complex_hyperbolic_ball", dim=2, c=1.0), [0.0, 0.0])
    assert averaging_form(cp, [1.0, 1.0]) == pytest.approx(-6.0, abs=1e-12)
    report = averaging_identity_check(cp, [1.0, 1.0], count=20000, seed=5, kappa=2.0)
    assert report.passed
    assert any("algebraic=-2" in note for note in report.notes)
    # equality case: the quartic form sits exactly on the certified bound
    assert any("quartic_form=-6" in note and "bound=-6" in note for note in report.notes)


def test_averaging_matches_at_generic_point():
    cp = curvature_tensor(catalog("complex_hyperbolic_ball", dim=2, c=2.0), [0.3, -0.2j])
    report = averaging_identity_check(cp, [1.3, 0.4], count=40000, seed=9)
    assert report.passed
    assert report.max_abs_residual <= report.tolerance


def test_averaging_zero_weights_dropped_from_sphere():
    cp = curvature_tensor(catalog("complex_hyperbolic_ball", dim=3, c=1.0), [0.0, 0.0, 0.0])
    full = averaging_identity_check(cp, [1.0, 0.0, 1.0], count=5000, seed=3)
    assert full.passed
    assert any("d=2" in note for note in full.notes)
    with pytest.raises(DegenerateInputError):
        averaging_identity_check(cp, [0.0, 0.0, 0.0])


def test_averaging_form_permutation_invariant_on_models():
    weights = [0.3, 1.7, 0.9]
    for name, params, point in (
        ("complex_hyperbolic_ball", {"dim": 3, "c": 1.5}, [0.1, 0.0, -0.2j]),
        ("poincare_polydisk", {"dim": 3, "a": 2.0}, [0.2, -0.1, 0.3j]),
    ):
        cp = curvature_tensor(catalog(name, **params), point)
        base = averaging_form(cp, weights)
        for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
            permuted = averaging_form(cp, [weights[i] for i in perm])
            assert permuted == pytest.approx(base, abs=1e-12)


# -- plurisubharmonicity ---------------------------------------------------------


def test_psh_log1p_energy_curve_into_ball():
    report = psh_check("log1p_energy", curve_into_ball(), seeded_points(0.8, 200, 1, seed=21, cap=1.1))
    assert report.status == "ok"
    assert report.passed and report.points_checked == 200
    assert report.max_abs_residual <= 1e-8


def test_psh_linear_map_hessian_vanishes():
    f = HoloMap(FLAT2, FLAT2, ["z1 + z2/2", "3*z2"])
    report = psh_check("log1p_energy", f, seeded_points(1.0, 10, 2, seed=23))
    assert report.passed
    assert report.max_abs_residual == pytest.approx(0.0, abs=1e-12)


def test_psh_log_volume_flat_plane_into_ball():
    f = HoloMap(FLAT2, catalog("complex_hyperbolic_ball", dim=2, c=1.0), ["z1/2", "z2/2"])
    report = psh_check("log_D", f, seeded_points(0.8, 200, 2, seed=25, cap=1.8))
    assert report.status == "ok"
    assert report.passed and report.points_checked == 200
    assert report.max_abs_residual <= 1e-8


def test_psh_random_flat_maps_always_pass():
    rng = rng_for(27, 3)
    for trial in range(20):
        coeffs = 0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4))

        def poly(zs, c=coeffs):
            return ((c[3] * zs[0] + c[2]) * zs[0] + c[1]) * zs[0] + c[0]

        f = HoloMap(FLAT1, FLAT1, [poly])
        report = psh_check("log1p_energy", f, seeded_points(1.0, 5, 1, seed=trial))
        assert report.passed, f"trial {trial}: {report}"


def test_psh_hypothesis_violation_downgrades():
    f = HoloMap(catalog("complex_hyperbolic_ball", dim=1, c=1.0), FLAT1, ["z1"])
    report = psh_check("log1p_energy", f, seeded_points(0.4, 5, 1, seed=29, cap=0.8))
    assert report.status == "not_applicable"
    assert any("bisectional" in note for note in report.notes)


# -- the hypothesis rule: a refuted curvature hypothesis makes a check not applicable --

BALL1 = catalog("complex_hyperbolic_ball", dim=1, c=1.0)
BALL2 = catalog("complex_hyperbolic_ball", dim=2, c=1.0)
PROJ1 = catalog("fubini_study", dim=1, c=1.0)


def assert_hypotheses_refuted(report, refuted):
    assert report.status == "not_applicable"
    after = report.notes[report.notes.index("hypotheses not satisfied:") + 1:]
    assert len(after) <= 5 and len(set(after)) == len(after)
    assert after == refuted


def test_psh_energy_on_a_ball_domain_is_not_applicable():
    f = HoloMap(BALL1, FLAT1, ["z1"])
    report = psh_check("log1p_energy", f, seeded_points(0.4, 5, 1, seed=29, cap=0.8))
    assert_hypotheses_refuted(report, (
        "domain bisectional -2.567e-01 < 0 at [-0.24712805+0.13014757j]",
        "domain bisectional -6.413e+00 < 0 at [-0.24712805+0.13014757j]",
        "domain bisectional -4.008e+00 < 0 at [-0.24712805+0.13014757j]",
        "domain bisectional -3.993e+00 < 0 at [0.15157187-0.0646745j]",
        "domain bisectional -3.391e+00 < 0 at [0.15157187-0.0646745j]",
    ))


def test_psh_log_volume_on_a_ball_domain_notes_its_ricci_curvature():
    f = HoloMap(BALL2, FLAT2, ["z1", "z2/2"])
    report = psh_check("log_D", f, seeded_points(0.4, 4, 2, seed=31, cap=0.8))
    first = "[ 0.2255362 +0.08134074j -0.45080806-0.14659541j]"
    assert_hypotheses_refuted(report, (
        f"domain bisectional -1.384e+01 < 0 at {first}",
        f"domain bisectional -3.524e+01 < 0 at {first}",
        f"domain bisectional -1.102e+01 < 0 at {first}",
        f"domain Ricci eigenvalue -3.000e+00 < 0 at {first}",
        "domain bisectional -9.313e+00 < 0 at [-0.03094691-0.2389151j  -0.19579348+0.00667593j]",
    ))


def test_psh_into_a_positively_curved_target_is_not_applicable():
    f = HoloMap(FLAT1, PROJ1, ["z1/2"])
    report = psh_check("log1p_energy", f, seeded_points(0.8, 4, 1, seed=33))
    assert_hypotheses_refuted(report, (
        "target bisectional 2.424e+00 > 0 at image of [0.07507832-1.3768748j]",
        "target bisectional 2.575e+00 > 0 at image of [0.07507832-1.3768748j]",
        "target bisectional 7.251e-01 > 0 at image of [0.07507832-1.3768748j]",
        "target bisectional 2.207e-01 > 0 at image of [0.50223445+0.12711122j]",
        "target bisectional 1.061e-01 > 0 at image of [0.50223445+0.12711122j]",
    ))


def test_three_circle_into_a_positively_curved_target_is_not_applicable():
    report = three_circle_check(HoloMap(FLAT1, PROJ1, ["z1/2"]), (0.25, 0.5, 1.0))
    assert_hypotheses_refuted(report, (
        "target bisectional 1.947e+01 > 0 near radius 0.5",
        "target bisectional 1.699e+00 > 0 near radius 0.5",
    ))


def test_psh_unknown_quantity():
    with pytest.raises(ConfigurationError):
        psh_check("entropy", curve_into_ball(), [[0.1]])


def test_report_invariant_passed_iff_within_tolerance():
    report = verify_boch1(curve_into_ball(), seeded_points(0.5, 5, 1, seed=31), [1.0])
    assert report.passed == (report.max_abs_residual <= report.tolerance)
    strict = verify_boch1(curve_into_ball(), seeded_points(0.5, 5, 1, seed=31), [1.0], tol=0.0)
    assert strict.passed == (strict.max_abs_residual <= 0.0)
