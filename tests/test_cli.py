"""Manifest loading, scenario execution, report format, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kahlercheck
from kahlercheck.bounds import BoundReport, Constant
from kahlercheck.cli import (
    chart_from_spec,
    classify,
    curvature_report,
    load_scenario,
    main,
    render_json,
    run_scenario,
    sample_points,
    shipped_scenario,
    shipped_scenarios,
)
from kahlercheck.errors import ConfigurationError
from kahlercheck.geometry import Ball, PotentialChart
from kahlercheck.identities import CheckReport


def manifest(**overrides):
    doc = {
        "schema": 1,
        "name": "toy",
        "domain": {"catalog": "flat", "params": {"dim": 1}},
        "target": {"catalog": "complex_hyperbolic_ball", "params": {"dim": 2, "c": 1.0}},
        "map": ["z1/2", "z1^2/2"],
        "sampler": {"count": 6, "radius": 0.8, "seed": 7},
        "checks": [{"kind": "boch1", "tolerance": 1e-6}],
    }
    doc.update(overrides)
    return doc


# -- loading and validation --------------------------------------------------------


def test_load_scenario_happy_path():
    sc = load_scenario(manifest())
    assert sc.name == "toy"
    assert sc.domain.dim == 1 and sc.target.dim == 2
    assert sc.count == 6 and sc.seed == 7


@pytest.mark.parametrize("breakage, needle", [
    ({"schema": 2}, "schema"),
    ({"map": ["z1/2"]}, "components"),
    ({"sampler": {"count": 6, "radius": 0.8}}, "seed"),
    ({"sampler": {"count": 6, "seed": 7}}, "radius"),
    ({"sampler": {"count": 6, "radius": 0.8, "radii": [0.8], "seed": 7}}, "radius"),
    ({"checks": []}, "checks"),
    ({"checks": [{"tolerance": 1e-6}]}, "kind"),
])
def test_load_scenario_rejects_bad_manifests(breakage, needle):
    with pytest.raises(ConfigurationError) as err:
        load_scenario(manifest(**breakage))
    assert needle in str(err.value)


def test_chart_from_spec_catalog_and_expressions():
    ball = chart_from_spec({"catalog": "complex_hyperbolic_ball",
                            "params": {"dim": 1, "c": 1.0}}, "domain")
    assert ball.family == "complex_hyperbolic_ball"
    custom = chart_from_spec({"dim": 1, "potential": "-log(1 - abs2(z1))",
                              "region": {"kind": "ball"}, "label": "hand-rolled"}, "domain")
    assert isinstance(custom, PotentialChart)
    assert isinstance(custom.domain, Ball)
    metric = chart_from_spec({"dim": 1, "metric": [["1 + abs2(z1)"]]}, "domain")
    assert metric.dim == 1
    with pytest.raises(ConfigurationError):
        chart_from_spec({"dim": 1}, "domain")
    with pytest.raises(ConfigurationError):
        chart_from_spec({"dim": 1, "potential": "abs2(z1)",
                         "region": {"kind": "octagon"}}, "domain")


def test_expression_chart_agrees_with_catalog_twin():
    sc = load_scenario(manifest(domain={"dim": 1, "potential": "-log(1 - abs2(z1))",
                                        "region": {"kind": "ball"}},
                                sampler={"count": 5, "radius": 0.7, "seed": 7}))
    doc, status = run_scenario(sc)
    assert status == 0
    assert doc["checks"][0]["max_abs_residual"] <= 1e-6


def test_unreal_potential_rejected_at_probe():
    sc = load_scenario(manifest(domain={"dim": 1, "potential": "z1"}))
    with pytest.raises(Exception) as err:
        run_scenario(sc)
    assert "real" in str(err.value)


# -- sampling -----------------------------------------------------------------------


def test_sample_points_radius_and_determinism():
    sc = load_scenario(manifest(sampler={"count": 40, "radius": 0.6, "seed": 3}))
    pts = sample_points(sc)
    assert pts.shape == (40, 1)
    assert np.all(np.linalg.norm(pts, axis=1) <= 0.6 + 1e-12)
    assert np.array_equal(pts, sample_points(sc))
    sc.seed = 4
    assert not np.array_equal(pts, sample_points(sc))


def test_sample_points_per_coordinate_radii():
    doc = manifest(domain={"catalog": "flat", "params": {"dim": 2}},
                   target={"catalog": "flat", "params": {"dim": 2}},
                   map=["z1", "z2"],
                   sampler={"count": 30, "radii": [0.5, 2.0], "seed": 1})
    pts = sample_points(load_scenario(doc))
    assert np.all(np.abs(pts[:, 0]) <= 0.5 + 1e-12)
    assert np.all(np.abs(pts[:, 1]) <= 2.0 + 1e-12)
    assert np.max(np.abs(pts[:, 1])) > 0.5  # the wider factor is actually used


# -- shipped scenarios ----------------------------------------------------------------


def test_shipped_scenarios_all_pass():
    for name in shipped_scenarios():
        doc, status = run_scenario(shipped_scenario(name))
        assert status == 0, f"{name}: {doc['summary']}"
        assert doc["summary"]["failed"] == 0


def test_boch1_flat_to_ball_report_shape():
    doc, status = run_scenario(shipped_scenario("boch1_flat_to_ball"))
    assert status == 0
    assert doc["schema"] == 1 and doc["scenario"] == "boch1_flat_to_ball"
    check = doc["checks"][0]
    assert check["kind"] == "boch1" and check["verdict"] == "passed"
    assert check["max_abs_residual"] <= 1e-6
    assert check["points_checked"] == 50


def test_schwarz_equality_scenario_reports_equality():
    doc, status = run_scenario(shipped_scenario("schwarz_disk_equality"))
    assert status == 0
    schwarz, royden = doc["checks"]
    assert schwarz["equality_case"] is True
    assert schwarz["observed"] == pytest.approx(2.0, abs=1e-9)
    assert schwarz["bound"] == pytest.approx(2.0)
    assert {c["name"]: c["source"] for c in schwarz["constants"]} == {
        "K": "analytic", "kappa": "analytic"}
    assert royden["coefficient"] == "1"


def test_volume_equality_scenario_coefficients():
    doc, status = run_scenario(shipped_scenario("volume_ball_equality"))
    assert status == 0
    volume, royden = doc["checks"]
    assert volume["bound"] == pytest.approx(4.0) and volume["equality_case"]
    assert royden["coefficient"] == "4/3" and royden["equality_case"]


def test_explicit_constants_can_fail_the_run():
    sc = load_scenario(manifest(
        domain={"catalog": "poincare_disk", "params": {"a": 1.0}},
        target={"catalog": "poincare_disk", "params": {"a": 2.0}},
        map=["z1"],
        constants={"K": 1.0},
        checks=[{"kind": "schwarz", "tolerance": 1e-8}],
    ))
    doc, status = run_scenario(sc)
    assert status == 1
    assert doc["checks"][0]["verdict"] == "failed"
    assert doc["summary"] == {"passed": 0, "failed": 1, "advisory": 0}


def test_sampled_constants_make_bounds_advisory():
    sc = load_scenario(manifest(
        domain={"dim": 1, "potential": "-log(1 - abs2(z1))", "region": {"kind": "ball"}},
        target={"catalog": "complex_hyperbolic_ball", "params": {"dim": 1, "c": 1.0}},
        map=["z1/2"],
        checks=[{"kind": "schwarz", "tolerance": 1e-8}],
    ))
    doc, status = run_scenario(sc)
    assert status == 0
    check = doc["checks"][0]
    assert check["verdict"] == "advisory"
    assert any(c["source"] == "sampled" for c in check["constants"])


def test_unknown_check_kind_is_configuration_error():
    sc = load_scenario(manifest(checks=[{"kind": "warp_factor"}]))
    with pytest.raises(ConfigurationError):
        run_scenario(sc)


# -- classification -------------------------------------------------------------------


def _bound(kind, passed, source):
    consts = (Constant(name="K", value=2.0, source=source),
              Constant(name="kappa", value=1.0, source="analytic"))
    slack = 0.5 if passed else -0.5
    return BoundReport(kind=kind, constants=consts, observed=1.0, bound=2.0, slack=slack,
                       tolerance=1e-8, passed=passed, equality_case=False, points_checked=3)


def _check(passed, status):
    return CheckReport(kind="boch1", points_checked=3, max_abs_residual=0.0 if passed else 1.0,
                       worst_point=None, tolerance=1e-6, passed=passed, status=status)


def test_classification_rules():
    assert classify(_check(True, "ok")) == "passed"
    assert classify(_check(False, "ok")) == "failed"
    assert classify(_check(True, "skipped")) == "advisory"
    assert classify(_check(True, "not_applicable")) == "advisory"
    assert classify(_bound("schwarz", True, "analytic")) == "passed"
    assert classify(_bound("schwarz", False, "analytic")) == "failed"
    assert classify(_bound("schwarz", True, "sampled")) == "advisory"
    assert classify(_bound("schwarz", False, "sampled")) == "advisory"
    assert classify(_bound("hoop[volume]", False, "analytic")) == "advisory"
    assert classify(_bound("hoop[volume]", True, "analytic")) == "passed"


# -- serialization ---------------------------------------------------------------------


def test_render_json_number_format():
    text = render_json({"third": 1.0 / 3.0, "int": 7, "flag": True, "none": None})
    assert '"third": 0.33333333333333331' in text
    assert '"int": 7' in text and '"flag": true' in text and '"none": null' in text
    parsed = json.loads(text)
    assert parsed["third"] == 1.0 / 3.0  # 17 significant digits round-trip


def test_render_json_rejects_non_finite():
    with pytest.raises(ConfigurationError):
        render_json({"bad": math.inf})
    with pytest.raises(ConfigurationError):
        render_json({"bad": object()})


def test_reports_byte_identical_across_runs():
    first = render_json(run_scenario(shipped_scenario("logw_disk_to_ball"))[0])
    second = render_json(run_scenario(shipped_scenario("logw_disk_to_ball"))[0])
    assert first == second


def test_details_flag_adds_residuals():
    sc = load_scenario(manifest())
    bare, _ = run_scenario(sc, details=False)
    full, _ = run_scenario(sc, details=True)
    assert "residuals" not in bare["checks"][0]
    residuals = full["checks"][0]["residuals"]
    assert len(residuals) == 6
    assert max(residuals) == full["checks"][0]["max_abs_residual"]


# -- curvature report -------------------------------------------------------------------


def test_curvature_report_facts_and_samples():
    doc = curvature_report(shipped_scenario("schwarz_disk_equality"))
    domain, target = doc["charts"]
    assert domain["role"] == "domain" and target["role"] == "target"
    assert domain["facts"]["hol_sec_min"] == -2.0
    assert target["facts"]["hol_sec_max"] == -1.0
    assert domain["sampled"]["hol_sec"]["min"] == pytest.approx(-2.0, abs=1e-9)
    assert target["sampled"]["ricci"]["max"] == pytest.approx(-1.0, abs=1e-9)


def test_curvature_report_expression_chart_has_no_facts():
    sc = load_scenario(manifest(domain={"dim": 1, "potential": "abs2(z1)"}))
    doc = curvature_report(sc)
    domain = doc["charts"][0]
    assert "facts" not in domain and "family" not in domain
    assert domain["sampled"]["hol_sec"]["max"] == pytest.approx(0.0, abs=1e-9)


# -- command line ------------------------------------------------------------------------


def test_main_run_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "boch1_flat_to_ball", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["scenario"] == "boch1_flat_to_ball"
    assert capsys.readouterr().out == ""


def test_main_stdout_default(capsys):
    assert main(["run", "three_circle_z2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"][0]["kind"] == "three_circle"


def test_main_overrides(tmp_path, capsys):
    code = main(["run", "boch1_flat_to_ball", "--points", "4", "--seed", "123",
                 "--tol", "0.5", "--details"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 123
    assert doc["checks"][0]["points_checked"] == 4
    assert doc["checks"][0]["tolerance"] == 0.5
    assert len(doc["checks"][0]["residuals"]) == 4


def test_main_failing_manifest_exits_one(tmp_path, capsys):
    doc = manifest(domain={"catalog": "poincare_disk", "params": {"a": 1.0}},
                   target={"catalog": "poincare_disk", "params": {"a": 2.0}},
                   map=["z1"], constants={"K": 1.0},
                   checks=[{"kind": "schwarz"}])
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 1
    capsys.readouterr()


def test_main_configuration_problems_exit_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(manifest(map=["z1/2"])))
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_main_unknown_flag_is_an_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "boch1_flat_to_ball", "--plot"])
    assert exc.value.code == 2


def test_main_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("flat", "poincare_disk", "poincare_polydisk",
                 "complex_hyperbolic_ball", "fubini_study"):
        assert name in out
    assert "scenario:boch1_flat_to_ball" in out


def test_main_curvature_subcommand(capsys):
    assert main(["curvature", "volume_ball_equality"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["charts"][0]["facts"]["scalar"] == -6.0


@pytest.mark.parametrize("sampler", [
    {"count": -5, "radius": 0.8, "seed": 7},
    {"count": 0, "radius": 0.8, "seed": 7},
    {"count": 2.5, "radius": 0.8, "seed": 7},
    {"count": "6", "radius": 0.8, "seed": 7},
    {"count": True, "radius": 0.8, "seed": 7},
    {"count": 6, "radius": 0, "seed": 7},
    {"count": 6, "radius": -0.8, "seed": 7},
    {"count": 6, "radius": float("nan"), "seed": 7},
    {"count": 6, "radius": float("inf"), "seed": 7},
    {"count": 6, "radius": "0.8", "seed": 7},
    {"count": 6, "radii": [-0.5], "seed": 7},
    {"count": 6, "radii": 0.5, "seed": 7},
    {"count": 6, "radius": 0.8, "seed": -1},
    {"count": 6, "radius": 0.8, "seed": "7"},
    [6, 0.8, 7],
])
def test_main_bad_sampler_exits_two_without_traceback(tmp_path, capsys, sampler):
    path = tmp_path / "bad_sampler.json"
    path.write_text(json.dumps(manifest(sampler=sampler)))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_main_negative_seed_override_exits_two(capsys):
    assert main(["run", "boch1_flat_to_ball", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_volume_bound_uses_m_ricci_of_target(tmp_path, capsys):
    # an isometric disk in the 2-ball sits exactly on the bound (K/(m·κ))^m = 1
    # with K = 2 and κ = −max Ric_1 = 2; the full Ricci curvature (κ = 3)
    # would give 2/3
    doc = manifest(domain={"catalog": "complex_hyperbolic_ball", "params": {"dim": 1}},
                   target={"catalog": "complex_hyperbolic_ball", "params": {"dim": 2}},
                   map=["z1", "0"], sampler={"count": 8, "radius": 0.7, "seed": 3},
                   checks=[{"kind": "volume"}])
    path = tmp_path / "volume.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)["checks"][0]
    assert report["verdict"] == "passed" and report["equality_case"]
    assert report["bound"] == pytest.approx(1.0, abs=1e-12)
    assert report["observed"] == pytest.approx(1.0, abs=1e-9)
    kappa = {c["name"]: c for c in report["constants"]}["kappa"]
    assert kappa == {"name": "kappa", "value": 2.0, "source": "analytic"}


def test_python_dash_m_kahlercheck_runs_cleanly():
    # same environment as criterion 12: the child imports this copy of the package
    import_root = str(Path(kahlercheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "kahlercheck", "catalog", "list"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root},
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "scenario:boch1_flat_to_ball" in proc.stdout
