"""Benchmark for kahlercheck: time to verdict and point checks per second.

    python3 bench/run.py --workload identity_shared --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory and nowhere else.  One process, single threaded, BLAS
pinned to one thread.  The run

1. generates the workload's manifests from the seed (``workloads``);
2. runs one untimed pass over the scenarios, whose reports are checked
   against the closed-form oracles (``checks``) and kept as the
   reference;
3. repeats whole passes for ``--seconds``, each scenario's report
   required byte-identical to the reference;
4. times ``setup_s`` as the median of fresh processes that import
   kahlercheck, load the manifests and build the jet tables the
   workload uses: one before the reference pass and one after every
   second timed pass.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics from spans around each layer (``--trace 1``).  An operation is
one scenario run with the checks on its outputs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_TIMEOUT_S = 120
MAX_JET_ORDER = 4  # curvature needs the potential to order 4
# A scenario's time is its median over the timed passes, and the pass
# time is the median pass.  The host alternates between a fast and a
# ~40% slower state within seconds; a median over passes taken far
# apart in time holds steadier than any single pass or a best-of.
MIN_PASSES = 4
TAIL_PERCENTILE = 90
MIN_SCENARIOS = 100  # so the tail percentile has at least ten scenarios beyond it

LAYER_CALLS = ("jets.mul", "jets.compose", "jets.derivative", "geometry.metric_jets",
               "geometry.pullback", "geometry.curvature", "maps.component_jets",
               "maps.point_data")
LAYER_MS = ("jets.mul", "jets.compose", "jets.derivative", "expressions.evaluate",
            "geometry.metric_jets", "geometry.pullback", "geometry.curvature",
            "maps.point_data", "maps.hessian", "linalg", "functionals", "identities",
            "bounds", "cli.load", "cli.constants", "cli.render")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    if not (SRC / "kahlercheck" / "__init__.py").is_file():
        raise BenchError(f"no kahlercheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kahlercheck

    if not kahlercheck.__file__.startswith(str(SRC)):
        raise BenchError(f"kahlercheck imported from {kahlercheck.__file__}, not {SRC}")
    return kahlercheck


def jet_spaces(cases) -> list[list[int]]:
    dims = sorted({c.domain.dim for c in cases} | {c.target.dim for c in cases})
    return [[d, order] for d in dims for order in range(MAX_JET_ORDER + 1)]


class SetupProbe:
    """Times fresh processes doing the workload's set-up, from spawn to exit.

    One probe runs before the reference pass and one after every second
    timed pass, so the median spans the host's states over the run.
    """

    def __init__(self, cases):
        self.job = json.dumps({"src": str(SRC), "manifests": [c.doc for c in cases],
                               "spaces": jet_spaces(cases)})
        self.times: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], input=self.job,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr}")


def run_case(kc, case):
    """One scenario from manifest to rendered report: (seconds, text, report, status)."""
    start = time.perf_counter()
    report, status = kc.run_scenario(kc.load_scenario(case.doc))
    text = kc.render_json(report)
    return time.perf_counter() - start, text, report, status


def reference_pass(kc, cases):
    """Untimed first pass: fills lazy tables, checks every report, keeps the texts."""
    texts, errors, faults, point_checks = [], [], 0, 0
    for case in cases:
        _, text, report, status = run_case(kc, case)
        case_errors, fault = checks.check_case(kc, case, report, status)
        errors += case_errors
        faults += fault
        point_checks += sum(c["points_checked"] for c in report["checks"])
        texts.append(text)
    return texts, errors, faults, point_checks


def timed_passes(kc, cases, texts, seconds, min_passes, tracer=None, between=None):
    """Whole passes for ``seconds`` of pass time; scenario times as [pass][scenario].

    ``between`` runs after every second pass, outside the timed window.
    """
    scenario_s, pass_spans, mismatches = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(scenario_s) < min_passes or time.perf_counter() < deadline:
        if tracer is not None:
            pass_spans.append(tracer.open("pass"))
        row = []
        for case, ref in zip(cases, texts):
            span = tracer.open("scenario") if tracer is not None else None
            elapsed, text, _, _ = run_case(kc, case)
            if tracer is not None:
                tracer.close(span)
            mismatches += text != ref
            row.append(elapsed)
        if tracer is not None:
            tracer.close(pass_spans[-1])
        scenario_s.append(row)
        if between is not None and len(scenario_s) % 2 == 0:
            start = time.perf_counter()
            between()
            deadline += time.perf_counter() - start
    return np.array(scenario_s), pass_spans, mismatches


def end_to_end(scenario_s, point_checks, setup_s):
    scenario_ms = np.median(scenario_s, axis=0) * 1000.0
    return {
        "point_checks_per_s": (point_checks / float(np.median(scenario_s.sum(axis=1))), "1/s"),
        "scenario_ms_p50": (float(np.median(scenario_ms)), "ms"),
        "scenario_ms_tail": (float(np.percentile(scenario_ms, TAIL_PERCENTILE)), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(names, calls, selfs, scenario_s, point_checks):
    """Per-pass layer figures: calls of the first pass, median self time over passes."""
    index = {name: k for k, name in enumerate(names)}

    def count(name):
        return int(calls[0, index[name]]) if name in index else 0

    def self_ms(name):
        return float(np.median(selfs[:, index[name]])) * 1000.0 if name in index else 0.0

    out = {}
    for name in LAYER_CALLS:
        out[f"{name}_calls"] = (count(name), "count")
    for name in LAYER_MS:
        out[f"{name}_ms" if "." in name else f"{name}.ms"] = (self_ms(name), "ms")
    out["geometry.metric_jets_per_point_check"] = (
        count("geometry.metric_jets") / point_checks, "calls/check")
    out["jets.mul_per_point_check"] = (count("jets.mul") / point_checks, "calls/check")
    out["point_checks"] = (point_checks, "count")
    out["pass_ms"] = (float(np.median(scenario_s.sum(axis=1))) * 1000.0, "ms")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    started = time.perf_counter()
    try:
        kc = import_program()
        cases = workloads.BUILDERS[args.workload](args.seed)
        if len(cases) < MIN_SCENARIOS:
            raise BenchError(f"{len(cases)} scenarios leave no p{TAIL_PERCENTILE} tail")
        probe = None if args.trace else SetupProbe(cases)
        if probe is not None:
            probe()
        setup_done = time.perf_counter()
        texts, errors, faults, point_checks = reference_pass(kc, cases)
        reference_done = time.perf_counter()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer, kc)
        # the harness's own long-lived objects stay out of the collector's way
        gc.collect()
        gc.freeze()
        scenario_s, pass_spans, mismatches = timed_passes(
            kc, cases, texts, args.seconds, 1 if args.trace else MIN_PASSES, tracer, probe)
        timed_done = time.perf_counter()
        if args.trace:
            calls, selfs = tracing.per_pass(tracer, pass_spans)
            if np.any(calls != calls[0]):
                errors.append("layer call counts differ between identical passes")
            metrics = per_layer(tracer.names, calls, selfs, scenario_s, point_checks)
            tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
        else:
            metrics = end_to_end(scenario_s, point_checks, statistics.median(probe.times))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if mismatches:
        errors.append(f"{mismatches} timed reports differ from the reference pass")
    for line in errors[:20]:
        sys.stderr.write(f"check failed: {line}\n")
    passes = len(scenario_s)
    sys.stderr.write(
        f"{args.workload} seed {args.seed}: {len(cases)} scenarios x {passes} passes, "
        f"{point_checks} point checks per pass; set-up {setup_done - started:.1f} s, "
        f"reference pass and oracles {reference_done - setup_done:.1f} s, "
        f"timed passes and set-up probes {timed_done - reference_done:.1f} s\n")
    result = {
        "correct": not errors,
        "attempted": len(cases) * passes,
        "failed": faults * passes,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
