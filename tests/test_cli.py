"""Manifest loading, scenario execution, report format, exit codes."""

import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kahlercheck
from kahlercheck import bounds, identities
from kahlercheck.bounds import BoundReport, Constant
from kahlercheck.cli import (
    CONSTANT_PROBE_POINTS,
    bound_report_json,
    chart_from_spec,
    check_report_json,
    classify,
    curvature_report,
    load_scenario,
    main,
    render_json,
    report_notes,
    resolve_bound_constants,
    run_scenario,
    sample_points,
    shipped_scenario,
    shipped_scenarios,
)
from kahlercheck.errors import ConfigurationError
from kahlercheck.geometry import Ball, PotentialChart, curvature_tensor
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


@pytest.mark.parametrize("key", ["radius", "radii"])
def test_the_sampler_reaches_a_radius_below_its_zero_norm_floor(key):
    def largest_over_radius(r):
        doc = manifest(domain={"catalog": "flat", "params": {"dim": 2}},
                       target={"catalog": "flat", "params": {"dim": 2}}, map=["z1", "z2"],
                       sampler={"count": 1000, "seed": 1, key: r if key == "radius" else [r, r]})
        pts = sample_points(load_scenario(doc))
        return (np.max(np.linalg.norm(pts, axis=1)) if key == "radius"
                else np.max(np.abs(pts))) / r

    assert largest_over_radius(1e-13) == pytest.approx(largest_over_radius(1e-3), rel=1e-12)


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
    with pytest.raises(ConfigurationError, match="unknown check kind 'warp_factor'"):
        load_scenario(manifest(checks=[{"kind": "warp_factor"}]))


# -- classification -------------------------------------------------------------------


# nothing checked, refuted, sampled constant, lower estimate, passed -> verdict
VERDICT_TABLE = [
    (0, 0, 0, 0, 0, "failed"),
    (0, 0, 0, 0, 1, "passed"),
    (0, 0, 0, 1, 0, "advisory"),
    (0, 0, 0, 1, 1, "passed"),
    (0, 0, 1, 0, 0, "advisory"),
    (0, 0, 1, 0, 1, "advisory"),
    (0, 0, 1, 1, 0, "advisory"),
    (0, 0, 1, 1, 1, "advisory"),
    (0, 1, 0, 0, 0, "advisory"),
    (0, 1, 0, 0, 1, "advisory"),
    (0, 1, 0, 1, 0, "advisory"),
    (0, 1, 0, 1, 1, "advisory"),
    (0, 1, 1, 0, 0, "advisory"),
    (0, 1, 1, 0, 1, "advisory"),
    (0, 1, 1, 1, 0, "advisory"),
    (0, 1, 1, 1, 1, "advisory"),
    (1, 0, 0, 0, 0, "advisory"),
    (1, 0, 0, 0, 1, "advisory"),
    (1, 0, 0, 1, 0, "advisory"),
    (1, 0, 0, 1, 1, "advisory"),
    (1, 0, 1, 0, 0, "advisory"),
    (1, 0, 1, 0, 1, "advisory"),
    (1, 0, 1, 1, 0, "advisory"),
    (1, 0, 1, 1, 1, "advisory"),
    (1, 1, 0, 0, 0, "advisory"),
    (1, 1, 0, 0, 1, "advisory"),
    (1, 1, 0, 1, 0, "advisory"),
    (1, 1, 0, 1, 1, "advisory"),
    (1, 1, 1, 0, 0, "advisory"),
    (1, 1, 1, 0, 1, "advisory"),
    (1, 1, 1, 1, 0, "advisory"),
    (1, 1, 1, 1, 1, "advisory"),
]


def _ledger_reports(nothing, refuted, sampled, lower, passed):
    """A check report and a bound report that carry the same ledger and outcome."""
    ledger = {
        "points_checked": 0 if nothing else 3,
        "constants": (Constant(name="K", value=2.0, source="sampled" if sampled else "analytic"),
                      Constant(name="kappa", value=1.0, source="analytic")),
        "refuted": ("target bisectional 1.0e+00 > 0 near radius 0.5",) if refuted else (),
        "lower_estimate": bool(lower),
    }
    check = CheckReport(kind="boch1", max_abs_residual=0.0 if passed else 1.0,
                        worst_point=None, tolerance=1e-6, **ledger)
    bound = BoundReport(kind="schwarz", observed=1.0, bound=2.0, slack=0.5 if passed else -0.5,
                        tolerance=1e-8, **ledger)
    return check, bound


def test_classification_rules():
    assert len({row[:5] for row in VERDICT_TABLE}) == 32
    for *row, verdict in VERDICT_TABLE:
        for report in _ledger_reports(*row):
            assert classify(report) == verdict, (type(report).__name__, row)


@pytest.mark.parametrize("refuted, points, status", [
    ((), 3, "ok"), ((), 0, "skipped"), (("x",), 3, "not_applicable"),
    (("x",), 0, "not_applicable"),
])
def test_check_status_is_read_off_the_ledger(refuted, points, status):
    report = CheckReport(kind="psh[log_D]", points_checked=points, max_abs_residual=0.0,
                         worst_point=None, tolerance=1e-8, refuted=refuted)
    assert report.status == status


def test_a_refuted_check_with_every_point_skipped_is_not_applicable():
    doc, status = run_scenario(load_scenario(manifest(
        domain={"catalog": "complex_hyperbolic_ball", "params": {"dim": 2}},
        target={"catalog": "flat", "params": {"dim": 2}},
        map=["z1", "0"],
        sampler={"count": 4, "radius": 0.5, "seed": 7},
        checks=[{"kind": "psh", "quantity": "log_D"}])))
    (entry,) = doc["checks"]
    assert status == 0
    assert (entry["points_checked"], entry["skipped_points"]) == (0, 4)
    assert entry["status"] == "not_applicable" and entry["verdict"] == "advisory"
    assert "domain Ricci eigenvalue" in " ".join(entry["notes"])
    assert entry["notes"].index("no checkable points") < entry["notes"].index(
        "hypotheses not satisfied:")


def test_the_renderer_keeps_the_ledger_order():
    check, bound = _ledger_reports(0, 1, 1, 1, 0)
    bound = dataclasses.replace(bound, notes=("own note",),
                                refuted=("b", "a", "b", "c", "d", "e", "f"))
    assert report_notes(bound) == [
        "K=2 (sampled) ; kappa=1 (analytic)",
        "sampled hypothesis constants: the verdict is advisory, not certified",
        "own note",
        "sampled maximum underestimates the true maximum; a failure is advisory",
        "hypotheses not satisfied:", "b", "a", "c", "d", "e",
    ]


def _three_circle_run(component):
    return run_scenario(load_scenario(manifest(
        target={"catalog": "flat", "params": {"dim": 1}},
        map=[component],
        checks=[{"kind": "three_circle", "radii": [0.5, 0.8, 1.1], "counts": [64, 64, 2]}])))


@pytest.mark.parametrize("component", [
    "z1^3 + (0.05*i)*z1^5", "z1^3 + (0.02+0.04*i)*z1^4", "z1^2 + (0.1*i)*z1^3"])
def test_a_three_circle_failure_on_sampled_maxima_is_advisory(component):
    # Hadamard's theorem holds for these maps into a flat target: the failure is sampling's
    doc, status = _three_circle_run(component)
    (entry,) = doc["checks"]
    assert status == 0
    assert not entry["passed"] and entry["status"] == "ok"
    assert entry["verdict"] == "advisory"
    assert entry["notes"][-1] == (
        "sampled maximum underestimates the true maximum; a failure is advisory")


def test_an_exact_power_still_passes_three_circle():
    doc, status = _three_circle_run("0.7*z1^3")
    (entry,) = doc["checks"]
    assert status == 0 and entry["passed"] and entry["verdict"] == "passed"


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


def recursive_render_json(obj, indent: int = 0) -> str:
    """The recursive writer that ``render_json`` replaced, kept as its reference."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = (f"{inner}{json.dumps(str(k))}: {recursive_render_json(v, indent + 1)}"
                for k, v in obj.items())
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = (f"{inner}{recursive_render_json(v, indent + 1)}" for v in obj)
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ConfigurationError(f"cannot serialize non-finite value {value}")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ConfigurationError(f"cannot serialize {type(obj).__name__} into a report")


def test_render_json_writes_what_the_recursive_writer_wrote():
    docs = []
    for name in sorted(shipped_scenarios()):
        docs += [run_scenario(shipped_scenario(name))[0],
                 run_scenario(shipped_scenario(name), details=True)[0],
                 curvature_report(shipped_scenario(name))]
    docs.append({
        "empty": [{}, [], (), {"a": [[], {}]}], "tuple": (1, (2.5, "x")), "np_int": np.int64(-7),
        "np_uint": np.uint8(200), "np_float": np.float64(0.1), "np_float32": np.float32(1.5),
        "zero": -0.0, "tiny": 5e-324, "huge": 1.7976931348623157e308, 3: "int key",
        'quote "q" \\ back': "control \x00\x1f\t\n\r and \u2264 \u2202f \U0001d53b",
        "flags": [True, False, None], "big": 10**30})
    docs += [[], {}, "\u2264", 0.0, np.int32(4), ((),)]
    for doc in docs:
        assert render_json(doc) == recursive_render_json(doc)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64("nan"), object(),
                                 np.bool_(True), np.complex128(1j), {1, 2}, b"bytes"])
def test_render_json_errors_match_the_recursive_writer(bad):
    for doc in (bad, {"ok": 1.0, "nested": [0, {"bad": bad}]}):
        with pytest.raises(ConfigurationError) as want:
            recursive_render_json(doc)
        with pytest.raises(ConfigurationError) as got:
            render_json(doc)
        assert str(got.value) == str(want.value)


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


@pytest.mark.parametrize("name", ["near_edge_disk_identity", "near_edge_ball_identity"])
def test_curvature_near_a_bounded_edge_reads_the_closed_form(capsys, name):
    # sample points at radius 1 − 1e-7, where the metric jets' curvature gave up: the disk's
    # metric jets were singular there and the ball's potential was not real-valued
    manifest_path = Path(__file__).resolve().parents[1] / "tools" / "snapshot_manifests"
    assert main(["curvature", str(manifest_path / f"{name}.json")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    for chart in json.loads(out)["charts"]:
        hol_sec = chart["sampled"]["hol_sec"]
        assert abs(hol_sec["min"] + 2.0) <= 1e-12 and abs(hol_sec["max"] + 2.0) <= 1e-12


def test_curvature_at_a_metric_scale_of_1e300_reads_h_from_the_facts(capsys):
    # |Z|⁴ overflows past a metric scale of about 1e154: numpy warned, which this test
    # suite turns into an error, and the sampled H read 0
    manifest_path = (Path(__file__).resolve().parents[1] / "tools" / "snapshot_manifests"
                     / "huge_metric_scale_disk_into_projective.json")
    assert main(["curvature", str(manifest_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    for chart in json.loads(out)["charts"]:
        want = chart["facts"]["hol_sec_min"]
        for got in chart["sampled"]["hol_sec"].values():
            assert abs(got - want) <= 1e-12 * abs(want)


NEAR_EDGE_BOCH1 = (Path(__file__).resolve().parents[1] / "tools" / "snapshot_manifests"
                   / "near_edge_ball_boch1_rounding.json")


def test_boch1_near_the_ball_edge_passes(capsys):
    # an identity cannot fail; at radius 1 − 4.6e-6 the residual read off the metric jets'
    # g⁻¹ and log det g was 1.3e-6, and the closed-form jets bring it to 8.2e-8
    assert main(["run", str(NEAR_EDGE_BOCH1)]) == 0
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["verdict"] == "passed" and check["max_abs_residual"] <= 1e-7


def test_a_planted_boch1_defect_near_the_ball_edge_still_fails(monkeypatch, capsys):
    sides = identities._boch1

    def planted(stack, k, v):  # a relative 0.1 offset on the right side
        lhs, rhs = sides(stack, k, v)
        return lhs, rhs + 0.1 * (1.0 + abs(rhs))

    monkeypatch.setattr(identities, "_boch1", planted)
    assert main(["run", str(NEAR_EDGE_BOCH1)]) == 1
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["verdict"] == "failed" and check["max_abs_residual"] > 0.01


def test_successive_main_calls_give_what_fresh_runs_give(capsys):
    # main builds its parser once; no flag of one call may reach the next
    import_root = str(Path(kahlercheck.__file__).resolve().parents[1])
    calls = [["run", "boch1_flat_to_ball", "--details", "--seed", "5"],
             ["curvature", "boch1_flat_to_ball"],
             ["run", "boch1_flat_to_ball"]]
    for argv in calls:
        status = main(argv)
        out = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "kahlercheck", *argv], capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root},
        )
        assert (status, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert '"residuals"' not in out.out and '"seed": 7,' in out.out


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


def test_running_every_shipped_scenario_never_imports_scipy():
    # a fresh process, so no other test's import of scipy is in sys.modules
    import_root = str(Path(kahlercheck.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from kahlercheck.cli import curvature_report, load_scenario, run_scenario, shipped_scenarios\n"
        "for doc in shipped_scenarios().values():\n"
        "    run_scenario(load_scenario(doc), details=True)\n"
        "    curvature_report(load_scenario(doc))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    "catalog_params_list": {"domain": {"catalog": "flat", "params": [1, 2]}},
    "catalog_params_null": {"domain": {"catalog": "flat", "params": None}},
    "catalog_name_list": {"domain": {"catalog": ["flat"]}},
    "region_number": {"domain": {"dim": 1, "potential": "abs2(z1)", "region": 5}},
    "metric_number": {"domain": {"dim": 1, "metric": 5}},
    "metric_row_number": {"domain": {"dim": 1, "metric": [5]}},
    "catalog_dim_float": {"domain": {"catalog": "flat", "params": {"dim": 2.0}}},
    "catalog_m_float": {"domain": {"catalog": "flat", "params": {"m": 1.0}}},
    "schwarz_kapa_typo": {"checks": [{"kind": "schwarz", "kapa": 5}]},
    "volume_mode": {"checks": [{"kind": "volume", "mode": "volume"}]},
    "boch1_seed": {"checks": [{"kind": "boch1", "seed": 1}]},
    "three_circle_hypothesis_samples": {"checks": [{"kind": "three_circle", "radii": [0.2, 0.4, 0.8],
                                                    "hypothesis_samples": 2}]},
    "averaging_points": {"checks": [{"kind": "averaging", "weights": [1.0], "points": [0.1]}]},
    "name_list": {"name": ["x"]},
    "label_number": {"domain": {"dim": 1, "potential": "abs2(z1)", "label": 5}},
    "potential_and_metric": {"domain": {"dim": 1, "potential": "abs2(z1)", "metric": [["1"]]}},
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


EXPRESSION_DOMAIN = {"dim": 1, "potential": "abs2(z1)"}


@pytest.mark.parametrize("overrides, key", [
    ({"constant": {"K": 0.1}}, "constant"),
    ({"domain": {"catalog": "flat", "parms": {"dim": 1}}}, "parms"),
    ({"domain": {"catalog": "flat", "label": "plane"}}, "label"),
    ({"sampler": {"count": 6, "cuont": 500, "radius": 0.8, "seed": 7}}, "cuont"),
    ({"constants": {"K": 0.5, "kapa": 1}}, "kapa"),
    ({"domain": {**EXPRESSION_DOMAIN, "regoin": {"kind": "ball"}}}, "regoin"),
    ({"domain": {**EXPRESSION_DOMAIN, "region": {"kind": "ball", "radii": [1.0]}}}, "radii"),
    ({"domain": {**EXPRESSION_DOMAIN, "region": {"kind": "full", "radius": 1.0}}}, "radius"),
    ({"domain": {**EXPRESSION_DOMAIN, "region": {"kind": "polydisk", "radii": [1.0],
                                                 "radius": 1.0}}}, "radius"),
])
def test_unknown_manifest_key_exits_two_naming_it(tmp_path, capsys, overrides, key):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(manifest(**overrides)))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


def test_a_sampler_radius_too_large_to_sample_exits_two(tmp_path, capsys):
    # the row norms of the Gaussian cloud overflow near a radius of 1e155, and clamping
    # by them would collapse every point to 0 and pass this unbounded map
    doc = manifest(domain={"catalog": "flat"}, target={"catalog": "flat"}, map=["z1^2"],
                   checks=[{"kind": "schwarz", "K": 1, "kappa": 1}])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**doc, "sampler": {"count": 3, "radius": 1e300, "seed": 1}}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: sampler radius 1e+300 is too large to sample\n"
    points = sample_points(load_scenario({**doc, "sampler": {"count": 3, "radius": 1e154, "seed": 1}}))
    assert np.all(np.isfinite(points)) and np.all(np.abs(points) > 1e153)


@pytest.mark.parametrize("component, radius, where", [
    ("z1^2", 1e154, "the stretch of ∂f"),  # f*h overflows; the map's jets do not
    ("z1^3", 1e154, "the map"),
    ("1e160*z1", 1e-3, "the stretch of ∂f"),
], ids=["square", "cube", "steep_line"])
def test_an_overflow_at_a_sample_point_exits_two_naming_it(tmp_path, capsys, component,
                                                             radius, where):
    doc = manifest(domain={"catalog": "flat"}, target={"catalog": "flat"}, map=[component],
                   sampler={"count": 6, "radius": radius, "seed": 7},
                   checks=[{"kind": "schwarz", "K": 1, "kappa": 1}])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    first = sample_points(load_scenario(doc))[0]
    assert err == f"error: toy: {where} overflows at the domain point {first.tolist()}\n"


_BARE_BOUNDS = [{"kind": "schwarz"}, {"kind": "volume"}, {"kind": "royden"}]


@pytest.mark.parametrize("chart, sampler, bounds", [
    ({"catalog": "poincare_disk"}, {"count": 20, "radius": 0.9999999, "seed": 1}, [1, 1, 1]),
    ({"catalog": "complex_hyperbolic_ball", "params": {"dim": 2}},
     {"count": 8, "radius": 0.9999999, "seed": 68}, [1, 1, 2]),
], ids=["disk", "ball"])
def test_a_model_identity_near_its_edge_meets_its_bounds(tmp_path, chart, sampler, bounds):
    # the bounds read the metric matrices, which come from the closed form; jets of its
    # potential or entries would be singular or fail the realness check this close
    dim = chart.get("params", {}).get("dim", 1)
    doc = manifest(domain=chart, target=chart, map=[f"z{k}" for k in range(1, dim + 1)],
                   sampler=sampler, checks=_BARE_BOUNDS)
    path = tmp_path / "near_edge.json"
    path.write_text(json.dumps(doc))
    import_root = str(Path(kahlercheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "kahlercheck", "run", str(path)],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    checks = json.loads(proc.stdout)["checks"]
    assert [check["verdict"] for check in checks] == ["passed"] * 3
    assert [check["bound"] for check in checks] == bounds
    assert [check["observed"] for check in checks] == bounds


_DISK = {"catalog": "poincare_disk"}


@pytest.mark.parametrize("domain, components, named", [
    (_DISK, ["z1/0"], "zero_division component 1 'z1/0'"),
    ({"dim": 1, "potential": "abs2(z1)/0"}, ["z1/2"], "potential 'abs2(z1)/0'"),
    ({"dim": 1, "potential": "abs2(z1) + 0/0"}, ["z1/2"], "potential 'abs2(z1) + 0/0'"),
    (_DISK, ["z1/2 + exp(z1)/0"], "zero_division component 1 'z1/2 + exp(z1)/0'"),
], ids=["monomial_map", "potential", "constant_potential_term", "tree_map"])
def test_a_division_by_zero_names_its_expression_and_exits_2(tmp_path, domain, components,
                                                              named):
    doc = manifest(name="zero_division", domain=domain, target=_DISK, map=components,
                   sampler={"count": 4, "radius": 0.5, "seed": 5},
                   checks=[{"kind": "boch1"}, {"kind": "schwarz", "K": 1, "kappa": 1}])
    path = tmp_path / "zero_division.json"
    path.write_text(json.dumps(doc))
    import_root = str(Path(kahlercheck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "kahlercheck", "run", str(path)],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {named} divides by zero\n"


def test_a_singular_expression_metric_names_its_chart_and_point(tmp_path, capsys):
    disk = {"dim": 1, "metric": [["1/(1 - abs2(z1))^2"]], "region": {"kind": "ball"},
            "label": "disk_expr"}
    doc = manifest(domain=disk, target=disk, map=["z1"],
                   sampler={"count": 20, "radius": 0.9999999, "seed": 1},
                   checks=[{"kind": "schwarz", "K": 2, "kappa": 2}])
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    point = sample_points(load_scenario(doc))[5]
    assert err.startswith(f"error: disk_expr: the metric is singular at the domain point "
                          f"{point.tolist()} (cannot divide by a jet with constant term ")
    assert err.endswith(" at point 5 of the stack)\n") and err.count("\n") == 1


_FLAT1 = {"catalog": "flat", "params": {"dim": 1}}
_FS2 = {"catalog": "fubini_study", "params": {"dim": 2}}
_FAR_AVERAGING = {"kind": "averaging", "weights": [1.0, 1.0], "point": [1e200, 0.0], "count": 100}
_STEEP_LINE = {"domain": _FLAT1, "map": ["1e160*z1"],
               "sampler": {"count": 3, "radius": 0.5, "seed": 1}}
# a metric e^{|z|²} whose entries reach 1e15 at radius 6 and 1e62 at radius 12
_EXP_POTENTIAL = {"domain": {"dim": 1, "potential": "exp(abs2(z1))"}, "target": _FLAT1,
                  "map": ["z1"], "checks": [{"kind": "boch1"}]}


# pytest turns a numpy warning into an error, so one on the way would exit 3 here
@pytest.mark.parametrize("overrides, code, message", [
    # the metric at the averaging point underflows to 0, its potential overflows unread
    ({"domain": _FS2, "target": _FS2, "map": ["z1", "z2"], "checks": [_FAR_AVERAGING]}, 2,
     "fubini_study(2, c=1): metric is not positive definite (min eigenvalue 0.000e+00) "
     "at the point [(1e+200+0j), 0j]\n"),
    ({"domain": {"catalog": "flat", "params": {"dim": 2}},
      "target": {"catalog": "flat", "params": {"dim": 2}}, "map": ["z1", "z2"],
      "checks": [_FAR_AVERAGING]}, 0, None),
    # ‖∂f‖² = 1e320 overflows in f*h; a NaN Hessian eigenvalue must not read as a residual of 0
    ({**_STEEP_LINE, "target": _FLAT1, "checks": [{"kind": "psh", "quantity": "log1p_energy"}]},
     2, "toy: the psh[log1p_energy] residual is not finite at the domain point {first}"),
    ({**_STEEP_LINE, "target": _FLAT1, "checks": [{"kind": "boch1"}]}, 2,
     "toy: the stretch of ∂f overflows at the domain point {first}"),
    ({**_STEEP_LINE, "map": ["1e200*z1"], "checks": [{"kind": "schwarz"}],
      "target": {"catalog": "complex_hyperbolic_ball", "params": {"dim": 1}}}, 2,
     "leaves the target domain (|z| < 1) at point 0 of the stack"),
    ({**_EXP_POTENTIAL, "sampler": {"count": 2, "radius": 100, "seed": 1}}, 2,
     "error: domain: the metric overflows at the domain point {first}\n"),
], ids=["averaging_fubini_study", "averaging_flat", "psh_steep_line", "boch1_steep_line",
        "schwarz_into_the_ball", "exp_potential_far_out"])
def test_an_overflowing_point_or_residual_gives_one_error_line(tmp_path, capsys, overrides,
                                                                code, message):
    doc = manifest(**{"sampler": {"count": 2, "radius": 0.5, "seed": 1}, **overrides})
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == code
    err = capsys.readouterr().err
    if message is None:
        assert err == ""
        return
    first = sample_points(load_scenario(doc))[0]
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert message.format(first=first.tolist()) in err


_BIDISK = {"dim": 2, "metric": [["1/(1 - abs2(z1))^2", "0"], ["0", "1/(1 - abs2(z2))^2"]],
           "region": {"kind": "polydisk", "radii": [1, 1]}}
_BIDISK_RUN = {"domain": _BIDISK, "map": ["z1", "z2"],
               "target": {"catalog": "poincare_polydisk", "params": {"dim": 2}},
               "sampler": {"count": 5, "radii": [0.5, 0.5], "seed": 1},
               "checks": [{"kind": "boch1"}, {"kind": "schwarz", "K": 2, "kappa": 1}]}


@pytest.mark.parametrize("overrides, code, message", [
    (_BIDISK_RUN, 0, None),
    ({**_BIDISK_RUN, "domain": {**_BIDISK, "region": {"kind": "full"}}}, 0, None),
    ({**_BIDISK_RUN, "domain": {**_BIDISK, "region": {"kind": "polydisk", "radii": [1]}}}, 2,
     "error: polydisk region needs 2 radii\n"),
    # the Hermitian check scales with the entries, so rounding in them does not fail it
    ({**_EXP_POTENTIAL, "sampler": {"count": 2, "radius": 6, "seed": 1}}, 0, None),
    ({**_EXP_POTENTIAL, "sampler": {"count": 2, "radius": 12, "seed": 1}}, 0, None),
], ids=["bidisk_polydisk_region", "bidisk_full_region", "bidisk_one_radius",
        "exp_potential_radius_6", "exp_potential_radius_12"])
def test_expression_charts_with_regions_and_large_metrics(tmp_path, capsys, overrides, code,
                                                          message):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(manifest(**overrides)))
    assert main(["run", str(path)]) == code
    out, err = capsys.readouterr()
    if message is not None:
        assert err == message
        return
    assert err == ""
    assert [check["verdict"] for check in json.loads(out)["checks"]] == \
        ["passed"] * len(overrides["checks"])


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
    # one stacked evaluation per role for the whole scenario, at the probe points alone
    assert len(order_two) == 2
    assert all(points <= CONSTANT_PROBE_POINTS for points in order_two)


def test_unknown_check_kind_exits_two_before_any_check_runs(tmp_path, capsys, monkeypatch):
    from kahlercheck import maps

    def no_evaluation(*args, **kwargs):
        raise AssertionError("a stack was evaluated")

    monkeypatch.setattr(maps.PointStack, "metric", no_evaluation)
    monkeypatch.setattr(maps.HoloMap, "component_jets", no_evaluation)
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(manifest(checks=[BOCH1, {"kind": "bogus"}])))
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: unknown check kind 'bogus'")


@pytest.mark.parametrize("check, message", [
    ({"kind": "psh"}, "psh check is missing the 'quantity' field"),
    ({"kind": "psh", "quantity": "entropy"}, "psh quantity must be one of"),
    ({"kind": "psh", "quantity": ["log_D"]}, "psh quantity must be one of"),
    ({"kind": "three_circle"}, "three_circle check is missing the 'radii' field"),
    ({"kind": "averaging"}, "averaging check is missing the 'weights' field"),
])
def test_load_scenario_rejects_a_check_without_its_required_keys(check, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_scenario(manifest(checks=[BOCH1, check]))


def test_missing_required_key_exits_two_before_any_check_runs(tmp_path, capsys, monkeypatch):
    from kahlercheck import maps

    def no_evaluation(*args, **kwargs):
        raise AssertionError("a stack was evaluated")

    monkeypatch.setattr(maps.PointStack, "metric", no_evaluation)
    monkeypatch.setattr(maps.HoloMap, "component_jets", no_evaluation)
    path = tmp_path / "no_quantity.json"
    path.write_text(json.dumps(manifest(checks=[{"kind": "boch1"}, {"kind": "psh"}])))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: psh check is missing the 'quantity' field\n"


def _e1(f):
    return np.eye(f.m, dtype=complex)[0]


# (shipped scenario, a check of each kind with only its required keys, the library call
# with the library's defaults: (scenario, points, (K, kappa)) -> report)
ONLY_REQUIRED_KEYS = {
    "boch1": ("boch1_flat_to_ball", {},
              lambda sc, pts, kk: identities.verify_boch1(sc.holo_map, pts, _e1(sc.holo_map))),
    "boch2": ("boch2_surface_to_threefold", {},
              lambda sc, pts, kk: identities.verify_boch2(sc.holo_map, pts, _e1(sc.holo_map))),
    "log_w": ("logw_disk_to_ball", {},
              lambda sc, pts, kk: identities.verify_log_w(sc.holo_map, pts, _e1(sc.holo_map))),
    "schwarz": ("schwarz_disk_equality", {},
                lambda sc, pts, kk: bounds.schwarz_bound_report(sc.holo_map, pts, *kk)),
    "volume": ("volume_ball_equality", {},
               lambda sc, pts, kk: bounds.volume_bound_report(sc.holo_map, pts, *kk)),
    "royden": ("volume_ball_equality", {},
               lambda sc, pts, kk: bounds.royden_bound_report(sc.holo_map, pts, *kk)),
    "hoop": ("hoop_fs_equality", {},
             lambda sc, pts, kk: bounds.hoop_check(sc.holo_map, pts, "volume", *kk)),
    "three_circle": ("three_circle_z2", {"radii": [0.5, 1.0, 2.0]},
                     lambda sc, pts, kk: bounds.three_circle_check(
                         sc.holo_map, (0.5, 1.0, 2.0), seed=sc.seed)),
    "psh": ("psh_energy_curve", {"quantity": "log1p_energy"},
            lambda sc, pts, kk: identities.psh_check("log1p_energy", sc.holo_map, pts,
                                                     seed=sc.seed)),
    "averaging": ("averaging_chb", {"weights": [1.0, 2.0]},
                  lambda sc, pts, kk: identities.averaging_identity_check(
                      curvature_tensor(sc.domain, pts[0]), [1.0, 2.0], seed=sc.seed)),
}


def test_only_required_keys_run_with_the_library_defaults():
    from kahlercheck.cli import _CHECK_KINDS

    assert sorted(ONLY_REQUIRED_KEYS) == sorted(_CHECK_KINDS)
    for kind, (name, required, library_call) in ONLY_REQUIRED_KEYS.items():
        doc = shipped_scenarios()[name]
        scenario = load_scenario({**doc, "checks": [{"kind": kind, **required}]})
        (entry,) = run_scenario(scenario, details=True)[0]["checks"]
        del entry["verdict"]
        points = sample_points(scenario)
        constants = None
        if kind in ("schwarz", "volume", "royden", "hoop"):
            constants = resolve_bound_constants(scenario, scenario.checks[0], kind, lambda: None)
        report = library_call(scenario, points, constants)
        expected = (check_report_json(report, details=True) if isinstance(report, CheckReport)
                    else bound_report_json(report))
        assert render_json(entry) == render_json(expected), kind


def test_sampled_volume_kappa_of_a_curve_reads_holomorphic_sectional_curvature(tmp_path, capsys):
    # Ric_1 = H: an isometric disk in an expression 2-ball has κ = 2 and bound 1;
    # the full Ricci range (κ = 3) would give 2/3 against the observed 1
    ball = {"dim": 2, "potential": "-log(1 - abs2(z1) - abs2(z2))", "region": {"kind": "ball"}}
    doc = manifest(domain={"catalog": "poincare_disk"}, target=ball, map=["z1", "0"],
                   sampler={"count": 8, "radius": 0.7, "seed": 3}, checks=[{"kind": "volume"}])
    path = tmp_path / "volume_curve.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)["checks"][0]
    assert report["verdict"] == "advisory"
    constants = {c["name"]: c for c in report["constants"]}
    assert constants["K"] == {"name": "K", "value": 2.0, "source": "analytic"}
    assert constants["kappa"]["source"] == "sampled"
    assert constants["kappa"]["value"] == pytest.approx(2.0, rel=1e-9)
    assert report["bound"] == pytest.approx(1.0, rel=1e-9)
    assert report["observed"] == pytest.approx(1.0, rel=1e-9)


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
    # once per stack of sample points, whatever its size: the domain metric, the target
    # metric at the images, both curvatures and the map; log_w's normal-chart changes
    # are stacked too
    from kahlercheck import geometry, maps

    calls = {}

    def counted(cls, name):
        original = cls.__dict__[name]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (geometry.PotentialChart, geometry.ComponentChart, geometry.PulledBackChart):
        counted(cls, "metric_jets")
    counted(maps.HoloMap, "component_jets")
    counted(maps.HoloMap, "__init__")
    curvature_tensor = geometry.curvature_tensor

    def counted_curvature(*args):
        calls["curvature"] += 1
        return curvature_tensor(*args)

    for module in (geometry, maps):
        monkeypatch.setattr(module, "curvature_tensor", counted_curvature)
    direction = [1.0, [0.5, -0.25]]
    checks = [{"kind": kind, "direction": direction} for kind in ("boch1", "boch2", "log_w")]
    checks.append({"kind": "psh", "quantity": "log1p_energy"})
    for count in (5, 50):
        calls.update(metric_jets=0, component_jets=0, __init__=0, curvature=0)
        doc, status = run_scenario(load_scenario(manifest(
            domain={"catalog": "flat", "params": {"dim": 2}},
            target={"catalog": "complex_hyperbolic_ball", "params": {"dim": 3}},
            map=["0.4*z1 + 0.1*z2^2", "0.25*z2", "0.1*z1*z2"],
            sampler={"count": count, "radius": 0.7, "seed": 3},
            checks=checks)))
        assert status == 0
        assert all(entry["points_checked"] == count for entry in doc["checks"])
        assert calls["metric_jets"] <= 2
        assert calls["curvature"] <= 2
        assert calls["component_jets"] == 1
        assert calls["__init__"] == 1  # one HoloMap per scenario


def test_each_stack_reaches_curvature_stretch_and_hessian_through_their_module_names(monkeypatch):
    # the benchmark times these layers by swapping the maps module's attributes, so each
    # stack must call them there: both curvatures, the stretch and the Hessian once each
    from kahlercheck import maps

    calls = {}

    def counted(name):
        original = getattr(maps, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        calls[name] = 0
        monkeypatch.setattr(maps, name, wrapper)

    for name in ("curvature_tensor", "map_point_data", "map_hessian"):
        counted(name)
    monkeypatch.setattr(maps, "STACK_CHUNK", 4)
    doc, status = run_scenario(load_scenario(manifest(
        domain={"catalog": "flat", "params": {"dim": 2}},
        target={"catalog": "complex_hyperbolic_ball", "params": {"dim": 3}},
        map=["0.4*z1 + 0.1*z2^2", "0.25*z2", "0.1*z1*z2"],
        sampler={"count": 10, "radius": 0.7, "seed": 3},
        checks=[{"kind": kind} for kind in ("boch1", "boch2", "log_w")])))
    assert status == 0
    assert all(entry["points_checked"] == 10 for entry in doc["checks"])
    stacks = 3  # 10 points in stacks of at most 4
    assert calls == {"curvature_tensor": 2 * stacks, "map_point_data": stacks,
                     "map_hessian": stacks}


def test_a_tiny_full_rank_map_skips_the_singular_logs_loudly():
    # rank 1 by the rank rule, but det(f*h) = W = 1e-14 is below the jets' singular floor
    doc, status = run_scenario(load_scenario(manifest(
        target={"catalog": "flat", "params": {"dim": 1}}, map=["1e-7*z1"],
        sampler={"count": 3, "radius": 0.5, "seed": 1},
        checks=[{"kind": "boch2"}, {"kind": "log_w"}, {"kind": "psh", "quantity": "log_D"},
                {"kind": "boch1"}])))
    assert status == 0
    *logs, boch1 = doc["checks"]
    for entry, what in zip(logs, ("log D", "log W", "log D")):
        assert entry["status"] == "skipped" and entry["skipped_points"] == 3
        assert sum(f"{what} is singular at [" in note for note in entry["notes"]) == 3
    assert boch1["verdict"] == "passed" and boch1["points_checked"] == 3


def test_a_small_positive_definite_domain_metric_passes_boch1_and_psh():
    # det g = 1e-14 is below the jets' singular floor, but the metric is regular
    doc, status = run_scenario(load_scenario(manifest(
        domain={"dim": 2, "potential": "1e-7*(abs2(z1) + abs2(z2))"},
        target={"catalog": "flat", "params": {"dim": 2}}, map=["z1", "z2"],
        sampler={"count": 3, "radius": 0.5, "seed": 1},
        checks=[{"kind": "boch1"}, {"kind": "psh", "quantity": "log1p_energy"}])))
    assert status == 0
    assert [(entry["verdict"], entry["points_checked"]) for entry in doc["checks"]] == [
        ("passed", 3), ("passed", 3)]


@pytest.mark.parametrize("chunk", [1, 3, 4])
def test_reports_do_not_depend_on_how_points_are_cut_into_stacks(monkeypatch, chunk):
    from kahlercheck import maps

    # unequal sphere counts, so stacks of 3 and 4 points straddle the spheres' boundaries
    uneven = manifest(domain={"catalog": "flat", "params": {"dim": 2}},
                      target={"catalog": "flat", "params": {"dim": 3}},
                      map=["z1 + z2^2", "z1*z2", "0.5*z1^3"],
                      checks=[{"kind": "three_circle", "radii": [0.3, 0.6, 1.2],
                               "counts": [5, 7, 3], "seed": 2}])

    def reports():
        return [render_json(run_scenario(shipped_scenario(name), details=True)[0])
                + render_json(curvature_report(shipped_scenario(name)))
                for name in sorted(shipped_scenarios())] + [
                    render_json(run_scenario(load_scenario(uneven), details=True)[0])]

    want = reports()
    monkeypatch.setattr(maps, "STACK_CHUNK", chunk)
    assert reports() == want


def test_a_zero_catalog_constant_is_reported_as_plus_zero():
    # schwarz reads K = −H_min of the domain, which is −0.0 for the flat catalog chart
    doc, _ = run_scenario(load_scenario(manifest(
        target={"catalog": "complex_hyperbolic_ball", "params": {"dim": 1}}, map=["z1/3"],
        checks=[{"kind": "schwarz"}])))
    (entry,) = doc["checks"]
    k = entry["constants"][0]
    assert k["name"] == "K" and k["value"] == 0 and math.copysign(1.0, k["value"]) == 1.0
    assert math.copysign(1.0, entry["bound"]) == 1.0
    text = render_json(doc)
    assert not re.search(r"-0(?![.\d])", text) and "K=0 (analytic)" in text


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
