"""Golden reports of the shipped scenarios.

``tests/golden`` holds the ``run`` and ``curvature`` reports of every
shipped scenario as ``kahlercheck run NAME`` and ``kahlercheck
curvature NAME`` printed them.  A refactor must leave verdicts,
statuses, strings, booleans and counts as they are; floats may move at
rounding level only.
"""

import json
import math
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
# rel_tol is rounding level; the absolute floor is there because residuals and
# slacks are rounding noise near zero (~1e-16), far below every check's tolerance,
# and their relative change between two correct builds can be of order one
REL_TOL = ABS_TOL = 1e-12


def _assert_same(want, got, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _assert_same(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (a, b) in enumerate(zip(want, got)):
            _assert_same(a, b, f"{path}[{k}]")
    elif isinstance(want, bool) or isinstance(got, bool) or want is None or isinstance(want, str):
        assert got == want and type(got) is type(want), path
    elif isinstance(want, int) and isinstance(got, int):
        assert got == want, path  # counts, and floats that print as integers both times
    else:
        assert isinstance(got, (int, float)), path
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), f"{path}: {got!r} != {want!r}"


def _fresh(doc) -> dict:
    # through the renderer, so numbers read back as the golden file's do
    return json.loads(render_json(doc))


@pytest.mark.parametrize("name", sorted(shipped_scenarios()))
def test_run_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.run.json").read_text(encoding="utf-8"))
    got, status = run_scenario(shipped_scenario(name))
    _assert_same(want, _fresh(got))
    assert status == (0 if want["summary"]["failed"] == 0 else 1)


@pytest.mark.parametrize("name", sorted(shipped_scenarios()))
def test_curvature_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.curvature.json").read_text(encoding="utf-8"))
    _assert_same(want, _fresh(curvature_report(shipped_scenario(name))))


def test_every_shipped_scenario_has_golden_reports():
    names = {path.name.split(".")[0] for path in GOLDEN.glob("*.json")}
    assert names == set(shipped_scenarios())
