"""tools/report_snapshot.py and tools/traffic_lines.py write nothing they were not asked to.

An argument that starts with ``-`` prints the tool's docstring and exits
2; so does an output that is already there (a file for traffic_lines,
anything but an empty directory for report_snapshot), which is left as
it was.  Each case runs the tool in a subprocess inside ``tmp_path``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_tool(name, args, cwd):
    if not (TOOLS / name).is_file():
        pytest.skip("tools/ is not part of this checkout")
    return subprocess.run([sys.executable, str(TOOLS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("name", ["report_snapshot.py", "traffic_lines.py"])
@pytest.mark.parametrize("args", [["--help"], ["-h"], ["out", "--help"], ["-"], [], ["a", "b", "c"]])
def test_flags_and_wrong_counts_print_the_docstring_and_write_nothing(tmp_path, name, args):
    proc = run_tool(name, args, tmp_path)
    assert proc.returncode == 2
    assert f"python tools/{name}" in proc.stderr and proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_traffic_lines_refuses_an_existing_outfile(tmp_path):
    target = tmp_path / "module.py"
    target.write_text("kept\n")
    proc = run_tool("traffic_lines.py", [str(target)], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {target} exists; nothing was written\n"
    assert target.read_text() == "kept\n"


def test_traffic_lines_refuses_an_existing_directory(tmp_path):
    (tmp_path / "out").mkdir()
    proc = run_tool("traffic_lines.py", ["out"], tmp_path)
    assert proc.returncode == 2 and proc.stderr == "error: out exists; nothing was written\n"


@pytest.mark.parametrize("kind", ["file", "used directory"])
def test_report_snapshot_refuses_an_outdir_in_use(tmp_path, kind):
    out = tmp_path / "old"
    if kind == "file":
        out.write_text("kept\n")
    else:
        out.mkdir()
        (out / "run").mkdir()
        (out / "run" / "stale.json").write_text("kept\n")
    proc = run_tool("report_snapshot.py", [str(out)], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {out} is not an empty directory; nothing was written\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == (
        ["old"] if kind == "file" else ["old", "run", "stale.json"])
