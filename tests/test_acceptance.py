"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS/FAIL line so the suite output doubles as
the acceptance record.  Expected constants come from closed-form
curvature of the catalog models under this package's normalization
(hyperbolic space has H = -2, its c-rescaling H = -2/c).
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import kahlercheck
from kahlercheck.bounds import (
    Constant,
    hoop_check,
    royden_bound_report,
    schwarz_bound_report,
    three_circle_check,
    three_circle_data,
    volume_bound_report,
)
from kahlercheck.cli import bound_report_json, render_json, run_scenario, shipped_scenario
from kahlercheck.functionals import ricci
from kahlercheck.geometry import catalog, curvature_tensor
from kahlercheck.identities import (
    averaging_identity_check,
    verify_boch1,
    verify_boch2,
    verify_log_w,
)
from kahlercheck.jets import derivative
from kahlercheck.linalg import rng_for
from kahlercheck.maps import HoloMap
from kahlercheck.linalg import check_positive_definite
from reference import sandwich_check

FLAT1 = catalog("flat", dim=1)
FLAT2 = catalog("flat", dim=2)
CHB2 = catalog("complex_hyperbolic_ball", dim=2, c=1.0)


def record(number: int, label: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {verdict}: {label}{suffix}")
    assert ok, f"criterion {number:02d} failed: {label}{suffix}"


def seeded_points(count, dim, seed, cap):
    rng = rng_for(seed, 11)
    pts = (rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))) * 0.4
    norms = np.linalg.norm(pts, axis=1)
    return pts * np.minimum(1.0, cap / np.maximum(norms, 1e-12))[:, None]


def e1(dim):
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    return v


def curve_to_ball():
    return HoloMap(FLAT1, CHB2, ["z1/2", "z1^2/2"])


def surface_to_threefold():
    return HoloMap(CHB2, catalog("fubini_study", dim=3, c=1.0),
                   ["z1/2 + z2^2/5", "z2/2", "z1*z2/3"])


def disk_to_ball():
    return HoloMap(catalog("poincare_disk", a=1.0), CHB2, ["z1/2", "z1^2/2"])


def test_criterion_01_curvature_oracles():
    cp = curvature_tensor(CHB2, np.zeros(2, dtype=complex))
    errs = [
        abs(cp.riem[0, 0, 0, 0] - (-2.0)),
        abs(cp.riem[0, 0, 1, 1] - (-1.0)),
        float(np.max(np.abs(ricci(cp) - (-3.0) * np.eye(2)))),
    ]
    fs = curvature_tensor(catalog("fubini_study", dim=2, c=1.0), np.zeros(2, dtype=complex))
    errs += [
        abs(fs.riem[0, 0, 0, 0] - 2.0),
        abs(fs.riem[0, 0, 1, 1] - 1.0),
        float(np.max(np.abs(ricci(fs) - 3.0 * np.eye(2)))),
    ]
    flat_err = float(np.max(np.abs(
        curvature_tensor(FLAT2, np.array([0.3 + 0.1j, -0.2j])).riem)))
    ok = max(errs) <= 1e-10 and flat_err <= 1e-12
    record(1, "catalog curvature constants at the origin", ok,
           f"max model error {max(errs):.2e}, flat residual {flat_err:.2e}")


def _fd_wirtinger(fn, point, var, bar, h=1e-4):
    step = np.zeros(len(point), dtype=complex)
    step[var] = h
    fx = (fn(point + step) - fn(point - step)) / (2 * h)
    fy = (fn(point + 1j * step) - fn(point - 1j * step)) / (2 * h)
    return 0.5 * (fx + (1j if bar else -1j) * fy)


def test_criterion_02_jets_match_finite_differences():
    charts = [
        FLAT2,
        CHB2,
        catalog("fubini_study", dim=2, c=1.0),
        catalog("complex_hyperbolic_ball", dim=1, c=0.7),
        catalog("fubini_study", dim=1, c=1.3),
    ]
    worst = 0.0
    for index, chart in enumerate(charts):
        dim = chart.dim
        points = seeded_points(20, dim, 100 + index, 0.6)

        def phi(zs, chart=chart, dim=dim):
            return complex(derivative(chart.potential_jet(zs, 0), (0,) * dim, (0,) * dim))

        slots = []
        for a in range(dim):
            slots.append(((a,), ()))
            slots.append(((), (a,)))
            for b in range(dim):
                slots.append(((a, b), ()))
                slots.append(((a,), (b,)))
                slots.append(((), (a, b)))
        for point in points:
            jet = chart.potential_jet(point, 2)
            for hol, anti in slots:
                alpha = tuple(int(np.sum(np.array(hol) == k)) for k in range(dim))
                beta = tuple(int(np.sum(np.array(anti) == k)) for k in range(dim))
                exact = derivative(jet, alpha, beta)
                fd = phi
                for var in hol:
                    fd = (lambda fn, v: lambda zs: _fd_wirtinger(fn, zs, v, bar=False))(fd, var)
                for var in anti:
                    fd = (lambda fn, v: lambda zs: _fd_wirtinger(fn, zs, v, bar=True))(fd, var)
                approx = fd(point)
                worst = max(worst, abs(approx - exact) / max(1.0, abs(exact)))
    ok = worst <= 1e-6
    record(2, "potential jets vs central finite differences, order <= 2", ok,
           f"100 points, worst relative error {worst:.2e}")


def test_criterion_03_first_bochner_identity():
    triples = [curve_to_ball(), surface_to_threefold(), disk_to_ball()]
    caps = [1.1, 0.8, 0.9]
    worst = 0.0
    for f, cap in zip(triples, caps):
        report = verify_boch1(f, seeded_points(50, f.m, 31, cap), e1(f.m))
        assert report.skipped_points == 0
        worst = max(worst, report.max_abs_residual)
    ok = worst <= 1e-6
    record(3, "energy Bochner identity on 3 triples x 50 points", ok,
           f"worst residual {worst:.2e}")


def test_criterion_04_second_bochner_identity():
    triples = [curve_to_ball(), surface_to_threefold()]
    caps = [1.1, 0.8]
    worst = 0.0
    for f, cap in zip(triples, caps):
        assert f.n > f.m
        report = verify_boch2(f, seeded_points(30, f.m, 33, cap), e1(f.m))
        assert report.skipped_points == 0 and report.points_checked == 30
        worst = max(worst, report.max_abs_residual)
    ok = worst <= 1e-6
    record(4, "volume Bochner identity on 2 rank-m triples x 30 points", ok,
           f"worst residual {worst:.2e}")


def test_criterion_05_top_stretch_identity():
    triples = [disk_to_ball(), curve_to_ball()]
    caps = [0.9, 1.1]
    worst = 0.0
    for f, cap in zip(triples, caps):
        report = verify_log_w(f, seeded_points(20, f.m, 35, cap), e1(f.m))
        assert report.skipped_points == 0 and report.points_checked == 20
        worst = max(worst, report.max_abs_residual)
    ok = worst <= 1e-6
    record(5, "top-stretch log identity on 2 triples x 20 points", ok,
           f"worst residual {worst:.2e}")


def test_criterion_06_sandwich_inequality():
    rng = rng_for(17, 23)
    worst = np.inf
    for _ in range(100):
        m = int(rng.integers(1, 5))
        b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a_mat = b @ b.conj().T
        c = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        g_mat = check_positive_definite(c @ c.conj().T + 0.5 * np.eye(m), "test metric")
        for s in range(m):
            middle, sup, inf = sandwich_check(a_mat, g_mat, s)
            worst = min(worst, sup - middle, middle - inf)
    ok = worst >= -1e-10
    record(6, "Rayleigh sandwich on 100 random pairs, all indices", ok,
           f"min slack {worst:.2e}")


def _note_value(report, key):
    for note in report.notes:
        for piece in note.split(" vs "):
            if piece.startswith(key + "="):
                return float(piece.split("=", 1)[1].split()[0])
    raise AssertionError(f"note {key} missing from {report.notes}")


def test_criterion_07_averaging_identity_and_equality():
    cp = curvature_tensor(CHB2, np.zeros(2, dtype=complex))
    report = averaging_identity_check(cp, [1.0, 1.0], count=20000, seed=0, kappa=2.0)
    algebraic = _note_value(report, "algebraic")
    quartic = _note_value(report, "quartic_form")
    bound = _note_value(report, "bound")
    ok = (report.passed and abs(algebraic - (-2.0)) <= 1e-12
          and abs(quartic - bound) <= 1e-8)
    record(7, "sphere-average identity (MC within 3 stderr) and equal-weight equality", ok,
           f"algebraic {algebraic:g}, |form-bound| {abs(quartic - bound):.2e}")


def test_criterion_08_schwarz_equality_and_royden_coefficients():
    f = HoloMap(catalog("poincare_disk", a=1.0), catalog("poincare_disk", a=2.0), ["z1"])
    pts = seeded_points(25, 1, 37, 0.9)
    schwarz = schwarz_bound_report(f, pts, Constant.analytic("K", 2.0),
                                   Constant.analytic("kappa", 1.0))
    royden1 = royden_bound_report(f, pts, Constant.analytic("K", 2.0),
                                  Constant.analytic("kappa", 1.0))
    g = HoloMap(catalog("complex_hyperbolic_ball", dim=2, c=1.0),
                catalog("complex_hyperbolic_ball", dim=2, c=2.0), ["z1", "z2"])
    royden2 = royden_bound_report(g, seeded_points(25, 2, 39, 0.7),
                                  Constant.analytic("K", 3.0), Constant.analytic("kappa", 1.0))
    ok = (abs(schwarz.observed - 2.0) <= 1e-8 and abs(schwarz.bound - 2.0) <= 1e-12
          and abs(schwarz.slack) <= 1e-8 and schwarz.equality_case
          and royden1.coefficient == "1" and royden2.coefficient == "4/3"
          and '"coefficient": "4/3"' in render_json(bound_report_json(royden2)))
    record(8, "hyperbolic identity saturates top-stretch bound; rank coefficients verbatim", ok,
           f"observed {schwarz.observed:.12g}, slack {schwarz.slack:.2e}")


def test_criterion_09_three_circle():
    sq = HoloMap(FLAT1, FLAT1, ["z1^2"])
    eq_report = three_circle_check(sq, (0.5, 1.0, 2.0), 64)
    maxima = three_circle_data(sq, (0.5, 1.0, 2.0), 64)
    w = math.log(2.0) / math.log(4.0)
    eq_defect = abs((1 - w) * math.log(maxima[0]) + w * math.log(maxima[2])
                    - math.log(maxima[1]))
    curved = HoloMap(FLAT2, CHB2, ["z1/2 + z2^2/5", "z2/2 - z1*z2/7"])
    radii = (0.3, 0.6, 0.9)

    def slack(counts):
        m1, m2, m3 = three_circle_data(curved, radii, counts, seed=4)
        t = (math.log(radii[1]) - math.log(radii[0])) / (math.log(radii[2]) - math.log(radii[0]))
        return (1 - t) * math.log(m1) + t * math.log(m3) - math.log(m2)

    coarse, fine = slack((32, 16, 32)), slack((32, 32, 32))
    ok = (eq_report.passed and eq_defect <= 1e-9
          and coarse >= 0.0 and fine >= 0.0 and fine <= coarse + 1e-15)
    record(9, "three-circle equality for z^2 and monotone curved-target slack", ok,
           f"equality defect {eq_defect:.2e}, slack {coarse:.4g} -> {fine:.4g}")


def test_criterion_10_hoop_saturation():
    f = HoloMap(catalog("fubini_study", dim=1, c=1.0),
                catalog("fubini_study", dim=1, c=2.0), ["z1"])
    pts = np.array([[0.0], [0.8 + 0.3j], [-2.0j], [5.0]])
    worst = 0.0
    for mode in ("volume", "stretching"):
        report = hoop_check(f, pts, mode, Constant.analytic("K", 2.0),
                            Constant.analytic("kappa", 1.0))
        assert report.equality_case
        worst = max(worst, abs(report.observed - 2.0), abs(report.slack))
    ok = worst <= 1e-8
    record(10, "rescaled projective identity saturates both hoop bounds", ok,
           f"max deviation {worst:.2e}")


def test_criterion_11_plurisubharmonicity():
    worst = 0.0
    for name in ("psh_energy_curve", "psh_volume_pair"):
        doc, status = run_scenario(shipped_scenario(name))
        check = doc["checks"][0]
        assert status == 0 and check["status"] == "ok"
        assert check["points_checked"] == 200
        worst = max(worst, check["max_abs_residual"])
    ok = worst <= 1e-8
    record(11, "complex Hessian eigenvalue floor on 200 points x 2 scenarios", ok,
           f"worst Hessian deficiency {worst:.2e}")


def test_criterion_12_report_determinism():
    texts = []
    for name in ("logw_disk_to_ball", "volume_ball_equality"):
        texts.append(render_json(run_scenario(shipped_scenario(name))[0]))
        texts.append(render_json(run_scenario(shipped_scenario(name))[0]))
    in_process = texts[0] == texts[1] and texts[2] == texts[3]
    # The child must import the same copy of the package as this process,
    # whether installed or from a checkout on PYTHONPATH.
    import_root = str(Path(kahlercheck.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "kahlercheck.cli", "run", "boch1_flat_to_ball"],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root,
                 "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    ok = in_process and outputs[0] == outputs[1]
    record(12, "byte-identical reports across runs and thread settings", ok)
