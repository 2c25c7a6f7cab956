"""tools/report_diff.py: exact fields must match, and each moved float is classed.

The trees are small snapshots in ``tools/report_snapshot.py``'s layout:
one identity report with its residuals and one bound report.
"""

import contextlib
import importlib.util
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from kahlercheck.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


def _tool():
    if not TOOL.is_file():
        pytest.skip("tools/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return f"exit {status}\n{out.getvalue()}"


@pytest.fixture(scope="module")
def tree(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("old")
    for rel, argv in (("run-details/logw_disk_to_ball.json", ["run", "logw_disk_to_ball", "--details"]),
                      ("run/schwarz_disk_equality.json", ["run", "schwarz_disk_equality"])):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(_report(argv), encoding="utf-8")
    return root


def _planted(tree: Path, tmp_path: Path, rel: str, edit) -> Path:
    """A copy of ``tree`` with the report at ``rel`` changed by ``edit(doc)``."""
    new = tmp_path / "new"
    shutil.copytree(tree, new)
    path = new / rel
    status, _, body = path.read_text(encoding="utf-8").partition("\n")
    doc = json.loads(body)
    edit(doc)
    path.write_text(f"{status}\n{json.dumps(doc, indent=2)}\n", encoding="utf-8")
    return new


def _run(tool, old: Path, new: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = tool.main([str(old), str(new)])
    return status, out.getvalue()


def test_a_tree_against_itself_prints_nothing(tree):
    assert _run(_tool(), tree, tree) == (0, "")


def test_a_planted_verdict_change_fails(tree, tmp_path):
    def edit(doc):
        doc["checks"][0]["verdict"] = "failed"

    status, out = _run(_tool(), tree, _planted(tree, tmp_path, "run/schwarz_disk_equality.json", edit))
    assert status == 1
    assert out.startswith("exact-field change: run/schwarz_disk_equality.json:/checks[0]/verdict")


def test_a_one_ulp_residual_change_is_rounding_level(tree, tmp_path):
    def edit(doc):
        (check,) = [c for c in doc["checks"] if c["kind"] == "log_w"]
        check["residuals"][3] = float(np.nextafter(check["residuals"][3], 1.0))

    status, out = _run(_tool(), tree,
                       _planted(tree, tmp_path, "run-details/logw_disk_to_ball.json", edit))
    assert status == 0
    assert "exact-field change" not in out and "moved:" not in out
    assert "  log_w residuals: 1 values in 1 reports" in out


def test_a_relative_1e_9_change_to_an_observed_bound_is_moved(tree, tmp_path):
    def edit(doc):
        doc["checks"][0]["observed"] *= 1.0 + 1e-9

    status, out = _run(_tool(), tree, _planted(tree, tmp_path, "run/schwarz_disk_equality.json", edit))
    assert status == 1
    assert out.startswith("moved: run/schwarz_disk_equality.json:/checks[0]/observed")
    assert "rounding-level" not in out


def _slack_tree(tmp_path: Path, observed: float, bound: float, slack: float) -> Path:
    """A one-report tree whose bound check carries the given numbers."""
    root = tmp_path / f"slack-{slack!r}"
    path = root / "run" / "equality.json"
    path.parent.mkdir(parents=True)
    check = {"type": "bound", "kind": "volume", "observed": observed, "bound": bound,
             "slack": slack, "verdict": "passed"}
    path.write_text(f"exit 0\n{json.dumps({'checks': [check]}, indent=2)}\n", encoding="utf-8")
    return root


def test_a_four_ulp_move_of_an_equality_slack_is_rounding_level(tmp_path):
    # the slack is bound − observed, so near an equality case it is noise around 0: its
    # move is counted in ulps of the bound, not of the slack itself
    old = _slack_tree(tmp_path, 1.0 + 4 * 2**-52, 1.0, -4 * 2**-52)
    new = _slack_tree(tmp_path, 1.0 + 8 * 2**-52, 1.0, -8 * 2**-52)
    status, out = _run(_tool(), old, new)
    assert status == 0
    assert "  volume slack: 1 values in 1 reports" in out
    assert "volume observed: 1 values in 1 reports" in out


def test_a_relative_1e_9_move_of_a_slack_is_moved(tmp_path):
    old = _slack_tree(tmp_path, 0.6, 1.0, 0.4)
    new = _slack_tree(tmp_path, 0.6 * (1.0 - 1e-9), 1.0, 0.4 * (1.0 + 1e-9))
    status, out = _run(_tool(), old, new)
    assert status == 1
    assert "moved: run/equality.json:/checks[0]/slack" in out
