"""Golden reports of the shipped scenarios.

``tests/golden`` holds the ``run`` and ``curvature`` reports of every
shipped scenario as ``kahlercheck run NAME`` and ``kahlercheck
curvature NAME`` printed them.  A fresh report must be the same report
by ``tools/report_diff.py``'s one rule: verdicts, statuses, strings,
booleans and counts exactly as they are, and floats moved at rounding
level only.  The mutation table checks that the tool and this test give
the same answer.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from kahlercheck.cli import (
    curvature_report,
    render_json,
    run_scenario,
    shipped_scenario,
    shipped_scenarios,
)

GOLDEN = Path(__file__).parent / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parents[1] / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


def _golden(stem: str) -> dict:
    return json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))


def _fresh(doc) -> dict:
    # through the renderer, so numbers read back as the golden file's do
    return json.loads(render_json(doc))


def _assert_same_report(stem: str, want: dict, got: dict) -> None:
    diff = report_diff.Diff().compare_reports(stem, want, got)
    assert not diff.failed, diff.summary()


@pytest.mark.parametrize("name", sorted(shipped_scenarios()))
def test_run_report_matches_golden(name):
    want = _golden(f"{name}.run")
    got, status = run_scenario(shipped_scenario(name))
    _assert_same_report(f"{name}.run", want, _fresh(got))
    assert status == (0 if want["summary"]["failed"] == 0 else 1)


@pytest.mark.parametrize("name", sorted(shipped_scenarios()))
def test_curvature_report_matches_golden(name):
    want = _golden(f"{name}.curvature")
    _assert_same_report(f"{name}.curvature", want,
                        _fresh(curvature_report(shipped_scenario(name))))


def test_every_shipped_scenario_has_golden_reports():
    names = {path.name.split(".")[0] for path in GOLDEN.glob("*.json")}
    assert names == set(shipped_scenarios())


def _observed_moved(doc):
    doc["checks"][0]["observed"] *= 1.0 + 1e-10


def _verdict_changed(doc):
    doc["checks"][0]["verdict"] = "failed"


def _note_changed(doc):
    doc["checks"][0]["notes"][0] += " "


def _noise_worst_point_moved(doc):
    check = doc["checks"][0]
    assert abs(check["max_abs_residual"]) <= report_diff.ROUNDING_ULPS * report_diff.EPS
    check["worst_point"][0][0] += 0.25


# (golden, mutation, whether the report is still the same)
MUTATIONS = [
    ("schwarz_disk_equality.run", _observed_moved, False),
    ("schwarz_disk_equality.run", _verdict_changed, False),
    ("schwarz_disk_equality.run", _note_changed, False),
    ("boch1_flat_to_ball.run", _noise_worst_point_moved, True),
]


@pytest.mark.parametrize("stem, mutate, same", MUTATIONS,
                         ids=[f"{stem}-{mutate.__name__[1:]}" for stem, mutate, _ in MUTATIONS])
def test_the_tool_and_the_golden_test_give_the_same_answer(tmp_path, stem, mutate, same):
    want = _golden(stem)
    got = copy.deepcopy(want)
    mutate(got)
    for side, doc in (("old", want), ("new", got)):
        (tmp_path / side / "run").mkdir(parents=True)
        (tmp_path / side / "run" / f"{stem}.json").write_text(
            f"exit 0\n{json.dumps(doc, indent=2)}\n", encoding="utf-8")
    assert (report_diff.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0) == same
    if same:
        _assert_same_report(stem, want, got)
    else:
        with pytest.raises(AssertionError):
            _assert_same_report(stem, want, got)
