"""Compare one scenario's report with the closed-form oracles.

:func:`check_case` returns the list of disagreements that no known
fault explains, and whether the kept volume fault showed.  Values the
program computes are compared with ``oracles`` at a relative
tolerance of 1e-9; verdicts, counts and provenance must match
exactly.
"""

from __future__ import annotations

import numpy as np

import oracles


def _points_match(point_json, points) -> bool:
    if point_json is None:
        return False
    z = np.array([complex(re, im) for re, im in point_json])
    return bool(np.any(np.all(np.abs(points - z[None, :]) <= 1e-12, axis=1)))


def _check_identity(entry, check, case, errors):
    want_kind = f"psh[{check['quantity']}]" if check["kind"] == "psh" else check["kind"]
    name = f"{case.doc['name']}:{want_kind}"
    if entry["kind"] != want_kind:
        errors.append(f"{name}: report kind {entry['kind']}")
    if entry["verdict"] != "passed" or entry["status"] != "ok" or not entry["passed"]:
        errors.append(f"{name}: verdict {entry['verdict']} status {entry['status']}, "
                      "but the identity is a theorem")
    if entry["points_checked"] != len(case.points) or entry["skipped_points"] != 0:
        errors.append(f"{name}: {entry['points_checked']} checked, "
                      f"{entry['skipped_points']} skipped of {len(case.points)}")
    if not entry["max_abs_residual"] <= entry["tolerance"]:
        errors.append(f"{name}: residual {entry['max_abs_residual']} above tolerance")
    if not _points_match(entry["worst_point"], case.points):
        errors.append(f"{name}: worst point is not one of the sampled points")


def _check_boch1_lhs(kc, scenario, case, errors, points=2):
    """boch1 left side against a finite-difference Levi form of the closed-form energy."""
    v = case.direction if case.direction is not None else np.eye(case.domain.dim)[0]

    def energy(z):
        return oracles.energy(case.domain, case.target, case.terms, z)

    for p in case.points[:points]:
        lhs, _ = kc.identities.boch1_sides(scenario.holo_map, p, v)
        fd = oracles.fd_levi_form(energy, p, v)
        if oracles.scaled_residual(lhs, fd) > oracles.FD_TOLERANCE:
            errors.append(f"{case.doc['name']}: boch1 LHS {lhs!r}, finite differences {fd!r}")


def _check_bound(entry, check, case, stretches, errors) -> bool:
    """Returns True when the only disagreement is the kept volume fault."""
    kind = check["kind"]
    want = oracles.expected_bound(kind, check.get("mode"), case.domain, case.target,
                                  stretches, check["tolerance"])
    label = f"{case.doc['name']}:{want.kind}"
    if entry["kind"] != want.kind:
        errors.append(f"{label}: report kind {entry['kind']}")
    if entry["points_checked"] != len(case.points):
        errors.append(f"{label}: {entry['points_checked']} points checked")
    if not oracles.close(entry["observed"], want.observed):
        errors.append(f"{label}: observed {entry['observed']!r}, oracle {want.observed!r}")
    if want.coefficient is not None and entry["coefficient"] != want.coefficient:
        errors.append(f"{label}: coefficient {entry['coefficient']}, oracle {want.coefficient}")
    if ({c["source"] for c in entry["constants"]} != {"analytic"}
            or {c["name"] for c in entry["constants"]} != {"K", "kappa"}):
        errors.append(f"{label}: constants {entry['constants']}")
        return False
    bound_ok = oracles.close(entry["bound"], want.bound, 1e-12)
    verdict_ok = entry["verdict"] == want.verdict
    if bound_ok and verdict_ok:
        return False
    if case.volume_fault and kind == "volume":
        return True
    errors.append(f"{label}: bound {entry['bound']!r} verdict {entry['verdict']}, "
                  f"oracle {want.bound!r} {want.verdict}")
    return False


def _check_three_circle(entry, check, case, errors):
    coef, power, radii = case.three_circle
    want = oracles.three_circle_maxima(coef, power, radii)
    got = oracles.parse_three_circle_notes(entry["notes"])
    if not all(oracles.close(a, b, 1e-10) for a, b in zip(got, want)):
        errors.append(f"{case.doc['name']}: M(r) {got}, oracle {want}")
    if entry["verdict"] != "passed" or entry["status"] != "ok":
        errors.append(f"{case.doc['name']}: three_circle verdict {entry['verdict']}")
    if entry["points_checked"] != 3 * check["counts"]:
        errors.append(f"{case.doc['name']}: three_circle checked {entry['points_checked']}")


def check_case(kc, case, report: dict, status: int):
    """(errors, fault_seen) for one scenario run."""
    errors: list[str] = []
    fault = False
    scenario = kc.load_scenario(case.doc)
    stretches = None
    tally = {"passed": 0, "failed": 0, "advisory": 0}
    if len(report["checks"]) != len(case.doc["checks"]):
        return [f"{case.doc['name']}: {len(report['checks'])} reports for "
                f"{len(case.doc['checks'])} checks"], False
    for entry, check in zip(report["checks"], case.doc["checks"]):
        tally[entry["verdict"]] += 1
        kind = check["kind"]
        if kind == "three_circle":
            _check_three_circle(entry, check, case, errors)
        elif kind in oracles.IDENTITY_CHECKS:
            _check_identity(entry, check, case, errors)
            if kind == "boch1":
                _check_boch1_lhs(kc, scenario, case, errors)
        else:
            if stretches is None:
                stretches = [oracles.stretch(case.domain, case.target, case.terms, p)
                             for p in case.points]
            fault |= _check_bound(entry, check, case, stretches, errors)
    if report["summary"] != tally:
        errors.append(f"{case.doc['name']}: summary {report['summary']}, verdicts {tally}")
    want_status = 1 if tally["failed"] else 0
    if status != want_status:
        errors.append(f"{case.doc['name']}: exit status {status}, verdicts say {want_status}")
    return errors, fault
