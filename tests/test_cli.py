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
    CONSTANT_PROBE_POINTS,
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


BOCH1 = {"kind": "boch1", "tolerance": 1e-6}


@pytest.mark.parametrize("overrides", [
    {"checks": [{"kind": "boch1", "tolerance": -1}]},
    {"checks": [{"kind": "boch1", "tolerance": 0}]},
    {"checks": [{"kind": "boch1", "tolerance": float("nan")}]},
    {"checks": [{"kind": "boch1", "tolerance": float("inf")}]},
    {"checks": [{"kind": "boch1", "tolerance": "1e-6"}]},
    {"checks": [{"kind": "boch1", "tolerance": True}]},
    {"checks": [{"kind": "psh", "quantity": "log1p_energy", "hypothesis_samples": -1}]},
    {"checks": [{"kind": "psh", "quantity": "log1p_energy", "hypothesis_samples": 2.5}]},
    {"checks": [{"kind": "psh", "quantity": "log1p_energy", "seed": -3}]},
    {"checks": [{"kind": "averaging", "weights": [1.0], "count": 1}]},
    {"checks": [{"kind": "averaging", "weights": [1.0], "count": 10**15}]},
    {"checks": [{"kind": "three_circle", "radii": [0.2, 0.4, 0.8], "counts": 0}]},
    {"checks": [{"kind": "three_circle", "radii": [0.2, 0.4, 0.8], "counts": [8, 8]}]},
    {"checks": [{"kind": "three_circle", "radii": [0.2, 0.4, 0.8], "counts": [8, "8", 8]}]},
    {"checks": [{"kind": "three_circle", "radii": [0.2, 0.4, 0.8], "counts": 10**15}]},
    {"checks": [{"kind": ["boch1"]}]},
    {"checks": ["boch1"]},
    {"sampler": {"count": 10**15, "radius": 0.8, "seed": 7}},
    {"map": ["(" * 3000 + "z1" + ")" * 3000, "0"]},
    {"map": [" + ".join(["z1"] * 3000), "0"]},
])
def test_main_bad_check_spec_exits_two_without_traceback(tmp_path, capsys, overrides):
    path = tmp_path / "bad_check.json"
    path.write_text(json.dumps(manifest(**overrides)))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


BAD_PARAMETERS = {
    "K_string": {"checks": [{"kind": "schwarz", "K": "abc"}]},
    "K_nan": {"checks": [{"kind": "schwarz", "K": float("nan")}]},
    "K_true": {"checks": [{"kind": "volume", "K": True}]},
    "kappa_inf": {"checks": [{"kind": "royden", "kappa": float("inf")}]},
    "kappa_huge_integer": {"checks": [{"kind": "schwarz", "kappa": 10**400}]},
    "constants_string": {"constants": {"K": "abc"}},
    "constants_null": {"constants": {"kappa": None}},
    "constants_list": {"constants": [1.0]},
    "weights_string": {"checks": [{"kind": "averaging", "weights": ["1"]}]},
    "weights_number": {"checks": [{"kind": "averaging", "weights": 1.0}]},
    "averaging_kappa_string": {"checks": [{"kind": "averaging", "weights": [1.0], "kappa": "2"}]},
    "radii_string": {"checks": [{"kind": "three_circle", "radii": [0.2, "0.4", 0.8]}]},
    "radii_nan": {"checks": [{"kind": "three_circle", "radii": [0.2, float("nan"), 0.8]}]},
    "radii_two": {"checks": [{"kind": "three_circle", "radii": [0.2, 0.4]}]},
    "direction_string": {"checks": [{"kind": "boch1", "direction": [["1", 0]]}]},
    "direction_number": {"checks": [{"kind": "boch1", "direction": 1.0}]},
    "direction_bool": {"checks": [{"kind": "boch1", "direction": [True]}]},
    "point_string": {"checks": [{"kind": "averaging", "weights": [1.0], "point": ["0"]}]},
    "point_triple": {"checks": [{"kind": "averaging", "weights": [1.0], "point": [[0, 0, 0]]}]},
    "hoop_mode": {"checks": [{"kind": "hoop", "mode": "area"}]},
    "hoop_mode_list": {"checks": [{"kind": "hoop", "mode": ["volume"]}]},
    "region_radius_string": {"domain": {"dim": 1, "potential": "abs2(z1)",
                                        "region": {"kind": "ball", "radius": "1"}}},
    "chart_dim_string": {"domain": {"dim": "1", "potential": "abs2(z1)"}},
    "map_number": {"map": 5},
    "catalog_dim_float": {"domain": {"catalog": "flat", "params": {"dim": 2.0}}},
    "catalog_m_float": {"domain": {"catalog": "flat", "params": {"m": 1.0}}},
    "schwarz_kapa_typo": {"checks": [{"kind": "schwarz", "kapa": 5}]},
    "volume_mode": {"checks": [{"kind": "volume", "mode": "volume"}]},
    "boch1_seed": {"checks": [{"kind": "boch1", "seed": 1}]},
    "three_circle_hypothesis_samples": {"checks": [{"kind": "three_circle", "radii": [0.2, 0.4, 0.8],
                                                    "hypothesis_samples": 2}]},
    "averaging_points": {"checks": [{"kind": "averaging", "weights": [1.0], "points": [0.1]}]},
    "deep_json": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("name", sorted(BAD_PARAMETERS))
def test_main_bad_parameter_exits_two_without_traceback(tmp_path, capsys, name):
    bad = BAD_PARAMETERS[name]
    path = tmp_path / "bad_parameter.json"
    path.write_text(bad if isinstance(bad, str) else json.dumps(manifest(**bad)))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("check, key", [
    ({"kind": "schwarz", "kapa": 5}, "kapa"),
    ({"kind": "three_circle", "radii": [0.2, 0.4, 0.8], "hypothesis_samples": 2},
     "hypothesis_samples"),
    ({"kind": "psh", "quantity": "log_D", "direction": [1.0]}, "direction"),
])
def test_unknown_check_parameter_is_named(tmp_path, capsys, check, key):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(manifest(checks=[check])))
    assert main(["run", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err


def test_sampled_constants_evaluate_order_two_metrics_at_the_probe_points_only(monkeypatch):
    # an order-1 scenario reads g and h at order 0; the curvature of its sampled
    # constants needs order 2, at the first CONSTANT_PROBE_POINTS points only
    from kahlercheck import geometry

    shapes = []
    metric_jets = geometry.PotentialChart.metric_jets

    def counted(self, point, order):
        shapes.append((math.prod(np.shape(point)[:-1]), order))  # points, order
        return metric_jets(self, point, order)

    monkeypatch.setattr(geometry.PotentialChart, "metric_jets", counted)
    ball = {"dim": 2, "potential": "-log(1 - abs2(z1) - abs2(z2))", "region": {"kind": "ball"}}
    doc, status = run_scenario(load_scenario(manifest(
        domain=ball, target=ball, map=["0.5*z1 + 0.1*z2^2", "0.4*z2"],
        sampler={"count": 200, "radius": 0.6, "seed": 9},
        checks=[{"kind": "schwarz"}, {"kind": "royden"}])))
    assert status == 0
    assert {c["source"] for entry in doc["checks"] for c in entry["constants"]} == {"sampled"}
    assert shapes.count((200, 0)) == 2  # the scenario's stack: domain and target
    order_two = [points for points, order in shapes if order >= 2]
    # one stacked evaluation per role and check, each at the probe points alone
    assert 0 < len(order_two) <= 2 * len(doc["checks"])
    assert all(points <= CONSTANT_PROBE_POINTS for points in order_two)


def test_bound_checks_of_a_scenario_share_one_stacked_svd(monkeypatch):
    # schwarz, volume and royden read one stretch computation over all k sample points
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    count = 9
    doc, status = run_scenario(load_scenario(manifest(
        domain={"catalog": "poincare_disk", "params": {"a": 1.3}},
        map=["0.5*z1", "0.3*z1^2"],
        sampler={"count": count, "radius": 0.9, "seed": 11},
        checks=[{"kind": "schwarz"}, {"kind": "volume"}, {"kind": "royden"}])))
    assert status == 0 and [c["points_checked"] for c in doc["checks"]] == [count] * 3
    assert shapes == [(count, 2, 1)]


@pytest.mark.parametrize("flags", [
    ["--tol", "inf"], ["--tol", "nan"], ["--tol", "-1"], ["--tol", "0"],
    ["--points", "0"], ["--points", str(10**15)],
])
def test_main_bad_overrides_exit_two(capsys, flags):
    assert main(["run", "boch1_flat_to_ball", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("tolerance", [-1, 0, float("nan"), float("inf"), "1e-6", None])
def test_tolerances_are_validated_when_the_manifest_loads(tolerance):
    with pytest.raises(ConfigurationError, match="tolerance"):
        load_scenario(manifest(checks=[{"kind": "boch1", "tolerance": tolerance}]))


def test_load_scenario_leaves_the_manifest_untouched():
    doc = manifest(checks=[{"kind": "boch1", "tolerance": 1}])
    sc = load_scenario(doc)
    assert sc.checks == [{"kind": "boch1", "tolerance": 1.0}]
    assert type(sc.checks[0]["tolerance"]) is float
    assert doc["checks"] == [{"kind": "boch1", "tolerance": 1}]


def _check_texts(checks, **overrides):
    doc, _ = run_scenario(load_scenario(manifest(checks=checks, **overrides)), details=True)
    return [render_json(entry) for entry in doc["checks"]]


@pytest.mark.parametrize("checks,overrides", [
    ([{"kind": "boch1", "direction": [1.0, [0.5, -0.25]], "tolerance": 1e-6},
      {"kind": "boch2", "direction": [1.0, [0.5, -0.25]], "tolerance": 1e-6},
      {"kind": "log_w", "direction": [1.0, [0.5, -0.25]], "tolerance": 1e-6},
      {"kind": "psh", "quantity": "log1p_energy", "tolerance": 1e-8}],
     {"domain": {"catalog": "fubini_study", "params": {"dim": 2, "c": 1.2}},
      "target": {"catalog": "poincare_polydisk", "params": {"dim": 2, "a": 0.9}},
      "map": ["0.3*z1 + 0.1*z2^2", "0.2*z2 - 0.1*z1*z2"],
      "sampler": {"count": 4, "radius": 0.8, "seed": 5}}),
    ([{"kind": "schwarz"}, {"kind": "volume"}, {"kind": "royden"}],
     {"domain": {"catalog": "poincare_disk", "params": {"a": 1.3}},
      "target": {"catalog": "complex_hyperbolic_ball", "params": {"dim": 2, "c": 0.8}},
      "map": ["0.5*z1", "0.3*z1^2"],
      "sampler": {"count": 8, "radius": 0.9, "seed": 11}}),
])
def test_checks_sharing_contexts_match_checks_run_alone(checks, overrides):
    # a check's report may not depend on which other checks read the shared contexts first
    alone = [_check_texts([check], **overrides)[0] for check in checks]
    assert _check_texts(checks, **overrides) == alone
    assert _check_texts(checks[::-1], **overrides) == alone[::-1]


def test_bound_reports_match_alongside_identity_checks():
    # an identity check raises the scenario's jet order; the bound reads the same numbers
    overrides = {"target": {"catalog": "complex_hyperbolic_ball", "params": {"dim": 2}}}
    for kind in ("schwarz", "volume", "royden"):
        alone = _check_texts([{"kind": kind}], **overrides)
        mixed = _check_texts([BOCH1, {"kind": kind}], **overrides)
        assert mixed[1] == alone[0]


def test_each_identity_point_evaluates_the_charts_and_the_map_a_few_times(monkeypatch):
    # per stack of sample points: the domain metric, the target metric at the images
    # and the map; per point: the renormalized domain metric of log_w and the map,
    # precomposed, at log_w's normal origin.
    from kahlercheck import geometry, maps

    calls = {"metric_jets": 0, "component_jets": 0}

    def counted(cls, name):
        original = cls.__dict__[name]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (geometry.PotentialChart, geometry.ComponentChart, geometry.PulledBackChart):
        counted(cls, "metric_jets")
    counted(maps.HoloMap, "component_jets")
    direction = [1.0, [0.5, -0.25]]
    checks = [{"kind": kind, "direction": direction} for kind in ("boch1", "boch2", "log_w")]
    checks.append({"kind": "psh", "quantity": "log1p_energy"})
    count = 5
    doc, status = run_scenario(load_scenario(manifest(
        domain={"catalog": "flat", "params": {"dim": 2}},
        target={"catalog": "complex_hyperbolic_ball", "params": {"dim": 3}},
        map=["0.4*z1 + 0.1*z2^2", "0.25*z2", "0.1*z1*z2"],
        sampler={"count": count, "radius": 0.7, "seed": 3},
        checks=checks)))
    assert status == 0
    assert all(entry["points_checked"] == count for entry in doc["checks"])
    assert calls["metric_jets"] <= 3 * count + 2
    assert calls["component_jets"] <= 2 * count + 1


INF = float("inf")
BAD_CATALOG_PARAMETERS = (
    [("target", "complex_hyperbolic_ball", {"dim": 2, "c": bad}) for bad in ("abc", None, True, INF, 0)]
    + [("domain", "poincare_disk", {"a": bad}) for bad in ("abc", None, True, INF, -1.0)]
    + [("domain", "flat", {"dim": bad}) for bad in ("abc", None, 2.5, True, INF)]
)


@pytest.mark.parametrize("role, family, params", BAD_CATALOG_PARAMETERS,
                         ids=[f"{family}-{key}-{value}" for _, family, params in BAD_CATALOG_PARAMETERS
                              for key, value in list(params.items())[-1:]])
def test_bad_catalog_parameter_exits_two_without_traceback(tmp_path, capsys, role, family, params):
    path = tmp_path / "bad_catalog.json"
    path.write_text(json.dumps(manifest(**{role: {"catalog": family, "params": params}})))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert ("dim" if "dim" in err else "parameter") in err


@pytest.mark.parametrize("checks", [
    [{"kind": "schwarz", "K": 1.0, "kappa": 1.0}],  # bound only: jets of order 1
    [{"kind": "boch1"}],  # identity: jets of order 4
])
@pytest.mark.parametrize("role, chart", [
    ("domain", {"dim": 1, "potential": "abs2(z1) + i*z1"}),
    ("target", {"dim": 2, "potential": "abs2(z1) + abs2(z2) + i*z2"}),
])
def test_non_real_potential_exits_two(tmp_path, capsys, checks, role, chart):
    path = tmp_path / "non_real.json"
    path.write_text(json.dumps(manifest(checks=checks, **{role: chart})))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not real-valued" in err


def test_internal_error_exits_three_with_one_line(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("lost\nits way")

    monkeypatch.setattr(kahlercheck.cli, "run_scenario", broken)
    assert main(["run", "boch1_flat_to_ball"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: lost its way\n"


def test_order_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "boch1_flat_to_ball", "--order", "3"])
    assert exc.value.code == 2
