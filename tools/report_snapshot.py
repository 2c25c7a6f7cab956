"""Write every report a refactor must leave byte-identical, one file each.

    python tools/report_snapshot.py OUTDIR [CHECKOUT]

OUTDIR must be new or empty.  CHECKOUT (default: the checkout holding
this script) is where the package is imported from (``CHECKOUT/src``)
and where the benchmark's manifests are built
(``CHECKOUT/bench/workloads.py``).  The reports are

- ``run/NAME.json`` and ``run-details/NAME.json``: ``kahlercheck run``
  on each shipped scenario, without and with ``--details``;
- ``curvature/NAME.json``: ``kahlercheck curvature`` on each of them;
- ``WORKLOAD-sSEED/NNN-NAME.json`` and ``WORKLOAD-sSEED-details/...``:
  ``kahlercheck run`` on every manifest of both benchmark workloads at
  seeds 1 and 3, without and with ``--details``;
- ``manifests/NAME.json``, ``manifests-details/NAME.json`` and
  ``manifests-curvature/NAME.json``: ``kahlercheck run`` without and with
  ``--details``, and ``kahlercheck curvature``, on each fixed manifest in
  ``snapshot_manifests/`` beside this script.  They reach what the other
  jobs do not: expression charts (potentials with ``exp``, ``log`` and
  ``/``, ``"metric"`` charts on ball, polydisk and full regions),
  sampled hypothesis constants on schwarz, volume, royden and both hoop
  modes, model charts near their edge (boch1 on the ball among them), far
  out and at a metric scale of 1e300, a map of 126 monomials and one
  past the monomial cap, the exit-2 lines of a singular and of a not
  positive definite metric and of a map that divides by zero, and the
  exit-1 line of a failed bound and of a failed identity.

The fixed manifests are read from this script's directory, not from
CHECKOUT, so two checkouts run the same jobs.

Each file holds the exit code on its first line, then the command's
stdout and stderr.  Comparing two commits is then

    python tools/report_snapshot.py /tmp/new
    python tools/report_snapshot.py /tmp/old /path/to/a/checkout/of/the/other/commit
    diff -r /tmp/old /tmp/new
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SEEDS = (1, 3)
MANIFESTS = Path(__file__).resolve().parent / "snapshot_manifests"


def _main_output(main, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return f"exit {status}\n{out.getvalue()}{err.getvalue()}"


def snapshot(outdir: Path, checkout: Path) -> int:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from kahlercheck.cli import main, shipped_scenarios

    import workloads

    jobs = []  # (relative path, argv, manifest or None)
    for name in sorted(shipped_scenarios()):
        jobs += [(f"run/{name}.json", ["run", name], None),
                 (f"run-details/{name}.json", ["run", name, "--details"], None),
                 (f"curvature/{name}.json", ["curvature", name], None)]
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for k, case in enumerate(workloads.BUILDERS[workload](seed)):
                stem = f"{k:03d}-{case.doc['name']}.json"
                jobs += [(f"{workload}-s{seed}/{stem}", ["run"], case.doc),
                         (f"{workload}-s{seed}-details/{stem}", ["run", "--details"], case.doc)]
    for path in sorted(MANIFESTS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        jobs += [(f"manifests/{path.name}", ["run"], doc),
                 (f"manifests-details/{path.name}", ["run", "--details"], doc),
                 (f"manifests-curvature/{path.name}", ["curvature"], doc)]
    outdir = outdir.resolve()
    # manifests go to one relative path, so no message names a temporary directory
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch):
        for rel, argv, doc in jobs:
            if doc is not None:
                Path("manifest.json").write_text(json.dumps(doc), encoding="utf-8")
                argv = argv[:1] + ["manifest.json"] + argv[1:]
            path = outdir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(_main_output(main, argv), encoding="utf-8")
    return len(jobs)


def command_line(doc: str, empty_dir_ok: bool) -> tuple[Path, Path]:
    """(OUT, CHECKOUT) from ``sys.argv``, CHECKOUT defaulting to the checkout holding this
    script.  A wrong argument count, or any argument that starts with ``-``, prints ``doc``
    and exits 2; so does an OUT that exists, unless it is an empty directory and
    ``empty_dir_ok``, with a message.  Nothing is ever written over."""
    args = sys.argv[1:]
    if len(args) not in (1, 2) or any(arg.startswith("-") for arg in args):
        sys.stderr.write(doc)
        sys.exit(2)
    out = Path(args[0])
    if out.exists() and not (empty_dir_ok and out.is_dir() and not any(out.iterdir())):
        what = "is not an empty directory" if empty_dir_ok else "exists"
        sys.stderr.write(f"error: {out} {what}; nothing was written\n")
        sys.exit(2)
    root = Path(args[1]) if len(args) == 2 else Path(__file__).resolve().parents[1]
    return out, root.resolve()


if __name__ == "__main__":
    # reports left in a used OUTDIR would trip diff -r
    outdir, root = command_line(__doc__, empty_dir_ok=True)
    written = snapshot(outdir, root)
    print(f"{written} reports written to {outdir}")
