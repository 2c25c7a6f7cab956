"""Scenario manifests, check orchestration, and machine-readable reports.

A manifest is a JSON document (``"schema": 1``)::

    {
      "schema": 1,
      "name": "boch1_flat_to_ball",
      "domain": {"catalog": "flat", "params": {"dim": 1}},
      "target": {"catalog": "complex_hyperbolic_ball", "params": {"dim": 2, "c": 1.0}},
      "map": ["z1/2", "z1^2/2"],
      "sampler": {"count": 50, "radius": 0.8, "seed": 7},
      "checks": [{"kind": "boch1", "tolerance": 1e-6}]
    }

Charts are either catalog references or expression-defined
(``{"dim": 1, "potential": "-log(1 - abs2(z1))", "region": {"kind": "ball"}}``;
a ``"metric"`` matrix of expressions is accepted in place of a potential).
Check kinds: boch1, boch2, log_w, schwarz, volume, royden, hoop,
three_circle, psh, averaging.  Hypothesis constants for the bound checks
come from the check parameters or the scenario ``"constants"`` block
(trusted as analytic), else from catalog curvature facts (analytic),
else from sampling (advisory).

The report is a JSON document with top level
``{schema, scenario, seed, checks, summary}`` where summary counts
passed / failed / advisory checks; :func:`classify` reads each verdict
off the report's hypothesis ledger (the README's verdict table).
Floats are written with 17 significant digits and complex values as
[re, im] pairs, so a report is byte-identical across runs of the same
manifest and seed.  Exit status: 0 when no check failed (advisory
outcomes do not gate), 1 on check failure, 2 on a configuration
problem (a bad manifest, flag or chart, or input the checks reject), 3
on any other error, which is a fault of the program and is reported as
one line on stderr.  So 1 only ever means that a certifiable check
failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import identities as ident_mod
from .errors import ConfigurationError, KahlerCheckError
from .functionals import _gaussian_vectors, holo_sectional, ricci, scalar_curvature
from .geometry import (
    CATALOG,
    Ball,
    FullSpace,
    KahlerChart,
    Polydisk,
    PotentialChart,
    ComponentChart,
    _count,
    _finite,
    catalog,
    curvature_tensor,
)
from .identities import CheckReport
from .linalg import pencil_eigh, rng_for
from .maps import HoloMap, point_stacks

SCHEMA_VERSION = 1
SAMPLER_STREAM = 37
CURVATURE_STREAM = 83
# cap on every sample count a manifest or flag can ask for
MAX_SAMPLE_COUNT = 100_000
# sample points a sampled hypothesis constant and the curvature report read
CONSTANT_PROBE_POINTS = 12
CURVATURE_REPORT_POINTS = 20


# -- manifest loading -------------------------------------------------------------


def _require(doc: dict, key: str, what: str):
    if key not in doc:
        raise ConfigurationError(f"{what} is missing the {key!r} field")
    return doc[key]


def _only(doc: dict, keys, what: str) -> dict:
    """``doc``, a manifest object, once it is known to set no key outside ``keys``."""
    extra = [key for key in doc if key not in keys]
    if extra:
        raise ConfigurationError(f"{what} has no key {extra[0]!r}; it reads {', '.join(keys)}")
    return doc


_REGION_KEYS = {"full": ("kind",), "ball": ("kind", "radius"), "polydisk": ("kind", "radii")}


def _region_from_spec(spec, dim: int):
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigurationError(f"region spec must be an object, got {spec!r}")
    kind = _require(spec, "kind", "region spec")
    if not isinstance(kind, str) or kind not in _REGION_KEYS:
        raise ConfigurationError(f"unknown region kind {kind!r}")
    _only(spec, _REGION_KEYS[kind], f"{kind} region")
    if kind == "full":
        return FullSpace(dim)
    if kind == "ball":
        return Ball(dim, _positive(spec.get("radius", 1.0), "ball region radius"))
    radii = spec.get("radii")
    if not isinstance(radii, list) or len(radii) != dim:
        raise ConfigurationError(f"polydisk region needs {dim} radii")
    return Polydisk(dim, tuple(_positive(r, "polydisk region radius") for r in radii))


def chart_from_spec(spec: dict, role: str) -> KahlerChart:
    """Build a chart from a manifest entry: catalog reference or expressions."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{role} spec must be an object")
    if "catalog" in spec:
        _only(spec, ("catalog", "params"), f"{role} spec")
        name, params = spec["catalog"], spec.get("params", {})
        if not isinstance(name, str) or not isinstance(params, dict):
            raise ConfigurationError(f"{role} catalog must be a chart name, its params an object")
        return catalog(name, **params)
    _only(spec, ("dim", "label", "region", "potential", "metric"), f"{role} spec")
    if ("potential" in spec) == ("metric" in spec):
        raise ConfigurationError(f"{role} spec needs 'catalog' or one of 'potential', 'metric'")
    dim = _count(_require(spec, "dim", f"{role} spec"), f"{role} dim", minimum=1)
    region = _region_from_spec(spec.get("region"), dim)
    label = spec.get("label", role)
    if not isinstance(label, str):
        raise ConfigurationError(f"{role} label must be a string, got {label!r}")
    if "potential" in spec:
        return PotentialChart(dim, spec["potential"], region, label)
    metric = spec["metric"]
    if not isinstance(metric, list) or not all(isinstance(row, list) for row in metric):
        raise ConfigurationError(f"{role} metric must be a list of lists of expressions")
    return ComponentChart(dim, metric, region, label)


def _complex_from_json(value, what: str) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigurationError(f"{what} entries must be numbers or [re, im] pairs")
        return complex(_finite(value[0], f"{what} entry"), _finite(value[1], f"{what} entry"))
    return complex(_finite(value, f"{what} entry"))


def _vector_from_json(value, dim: int | None, what: str) -> np.ndarray:
    """A complex vector from numbers and [re, im] pairs; ``dim=None`` accepts any length."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{what} must be a list of numbers or [re, im] pairs")
    vec = np.array([_complex_from_json(v, what) for v in value], dtype=complex)
    if dim is not None and vec.shape != (dim,):
        raise ConfigurationError(f"{what} must have {dim} entries, got {len(vec)}")
    return vec


def _sample_count(value, what: str, minimum: int = 1) -> int:
    return _count(value, what, minimum, MAX_SAMPLE_COUNT)


def _positive(value, what: str) -> float:
    return _finite(value, what, positive=True)


def _finite_list(value, what: str, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or (length is not None and len(value) != length):
        size = f"{length} " if length is not None else ""
        raise ConfigurationError(f"{what} must be a list of {size}numbers, got {value!r}")
    return tuple(_finite(v, f"{what} entry") for v in value)


def _checked_spec(check) -> dict:
    """A copy of one check spec with its kind, keys, numbers, counts and seed validated."""
    if not isinstance(check, dict):
        raise ConfigurationError("check spec must be an object")
    kind = _require(check, "kind", "check spec")
    if not isinstance(kind, str):
        raise ConfigurationError(f"check kind must be a string, got {kind!r}")
    if kind not in _CHECK_KINDS:
        raise ConfigurationError(f"unknown check kind {kind!r}; "
                                 f"known: {', '.join(sorted(_CHECK_KINDS))}")
    _only(check, ("kind",) + _CHECK_KINDS[kind].keys, f"{kind} check")
    for key in _CHECK_KINDS[kind].required:
        _require(check, key, f"{kind} check")
    spec = dict(check)
    if "tolerance" in spec:
        spec["tolerance"] = _positive(spec["tolerance"], f"{kind} tolerance")
    if "seed" in spec:
        spec["seed"] = _count(spec["seed"], f"{kind} seed", minimum=0)
    if "count" in spec:
        spec["count"] = _sample_count(spec["count"], f"{kind} count", minimum=2)
    if "counts" in spec:
        counts = spec["counts"]
        if isinstance(counts, list):
            if len(counts) != 3:
                raise ConfigurationError(f"{kind} counts must be one count or a list of 3")
            spec["counts"] = tuple(_sample_count(c, f"{kind} counts entry") for c in counts)
        else:
            spec["counts"] = _sample_count(counts, f"{kind} counts")
    if kind == "hoop":
        spec.setdefault("mode", "volume")
    for key, choices in (("mode", bounds_mod.HOOP_MODES), ("quantity", ident_mod.PSH_QUANTITIES)):
        if key in spec and spec[key] not in choices:
            raise ConfigurationError(f"{kind} {key} must be one of {choices}, got {spec[key]!r}")
    for name in ("K", "kappa"):
        if name in spec:
            spec[name] = _finite(spec[name], f"{kind} {name}")
    if "weights" in spec:
        spec["weights"] = _finite_list(spec["weights"], f"{kind} weights")
    if "radii" in spec:
        spec["radii"] = _finite_list(spec["radii"], f"{kind} radii", length=3)
    for name in ("direction", "point"):
        if name in spec:  # the length is checked against the domain when the check runs
            _vector_from_json(spec[name], None, f"{kind} {name}")
    return spec


@dataclass
class Scenario:
    """A validated manifest, ready to run."""

    name: str
    domain: KahlerChart
    target: KahlerChart
    holo_map: HoloMap
    count: int
    radius: float | None
    radii: tuple[float, ...] | None
    seed: int
    checks: list[dict]
    constants: dict = field(default_factory=dict)


def load_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigurationError("manifest must be a JSON object")
    _only(doc, ("schema", "name", "domain", "target", "map", "sampler", "checks", "constants"),
          "manifest")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(f"manifest schema must be {SCHEMA_VERSION}, got {doc.get('schema')!r}")
    name = _require(doc, "name", "manifest")
    if not isinstance(name, str):
        raise ConfigurationError(f"manifest name must be a string, got {name!r}")
    domain = chart_from_spec(_require(doc, "domain", "manifest"), "domain")
    target = chart_from_spec(_require(doc, "target", "manifest"), "target")
    components = _require(doc, "map", "manifest")
    if not isinstance(components, list):
        raise ConfigurationError("map must be a list of component expressions")
    if len(components) != target.dim:
        raise ConfigurationError(
            f"map has {len(components)} components but the target dimension is {target.dim}"
        )
    holo_map = HoloMap(domain, target, components, label=name)
    sampler = _require(doc, "sampler", "manifest")
    if not isinstance(sampler, dict) or "seed" not in sampler:
        raise ConfigurationError("sampler must be an object with an explicit seed (reproducibility)")
    _only(sampler, ("seed", "count", "radius", "radii"), "sampler")
    seed = _count(sampler["seed"], "sampler seed", minimum=0)
    count = _sample_count(sampler.get("count", 20), "sampler count")
    radius = sampler.get("radius")
    radii = sampler.get("radii")
    if (radius is None) == (radii is None):
        raise ConfigurationError("sampler needs exactly one of 'radius' or 'radii'")
    if radii is not None:
        if not isinstance(radii, (list, tuple)) or len(radii) != domain.dim:
            raise ConfigurationError(f"sampler radii must be a list of {domain.dim} entries")
        radii = tuple(_positive(r, "sampler radii entry") for r in radii)
    checks = _require(doc, "checks", "manifest")
    if not isinstance(checks, list) or not checks:
        raise ConfigurationError("manifest needs a nonempty list of checks")
    checks = [_checked_spec(check) for check in checks]
    constants = doc.get("constants", {})
    if not isinstance(constants, dict):
        raise ConfigurationError("constants must be an object of named numbers")
    constants = {name: _finite(value, f"constant {name}")
                 for name, value in _only(constants, ("K", "kappa"), "constants").items()}
    return Scenario(
        name=name,
        domain=domain,
        target=target,
        holo_map=holo_map,
        count=count,
        radius=None if radius is None else _positive(radius, "sampler radius"),
        radii=radii,
        seed=seed,
        checks=checks,
        constants=constants,
    )


def load_manifest(path: str) -> Scenario:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:
            raise ConfigurationError(f"{path}: manifest nests too deeply to parse") from None
    return load_scenario(doc)


def sample_points(scenario: Scenario) -> np.ndarray:
    """Seeded Gaussian cloud, row norms clamped into the sampling region."""
    dim = scenario.domain.dim
    rng = rng_for(scenario.seed, SAMPLER_STREAM)
    raw = rng.normal(size=(scenario.count, dim)) + 1j * rng.normal(size=(scenario.count, dim))
    if scenario.radius is not None:
        pts = raw * (0.4 * scenario.radius)
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(pts, axis=1)
        if not np.all(np.isfinite(norms)):  # the clamp below would send every point to 0
            raise ConfigurationError(f"sampler radius {scenario.radius!r} is too large to sample")
        floor = 1e-12 * scenario.radius  # keeps a zero norm from dividing, at any radius
        return pts * np.minimum(1.0, scenario.radius / np.maximum(norms, floor))[:, None]
    scales = np.asarray(scenario.radii)
    pts = raw * (0.4 * scales)[None, :]
    caps = np.minimum(1.0, scales[None, :] / np.maximum(np.abs(pts), 1e-12 * scales[None, :]))
    return pts * caps


# -- hypothesis constants ----------------------------------------------------------

# kind -> ((facts field for K, sign), (facts field for kappa, sign))
_CONSTANT_RULES = {
    "schwarz": (("hol_sec_min", -1.0), ("hol_sec_max", -1.0)),
    "volume": (("scalar", -1.0), ("ricci_m_max", -1.0)),
    "royden": (("ricci_min", -1.0), ("hol_sec_max", -1.0)),
    ("hoop", "volume"): (("ricci_min", 1.0), ("ricci_max", 1.0)),
    ("hoop", "stretching"): (("hol_sec_min", 1.0), ("hol_sec_max", 1.0)),
}


def _sampled_range(stacks, role: str, quantity: str, seed: int):
    """Range of a curvature quantity at the stacks' points (domain) or images (target)."""
    rng = rng_for(seed, CURVATURE_STREAM)
    values = []
    for cp in (stack.curvature(role) for stack in stacks):
        if quantity.startswith("hol_sec"):  # 8 directions per point, on a sample axis
            z, = _gaussian_vectors(rng, (*cp.g.shape[:-2], 8), cp.g.shape[-1:])
            values.append(holo_sectional(cp.at(np.s_[:, None]), z)[1])
        else:
            values.append(pencil_eigh(ricci(cp), cp.g)[0] if quantity.startswith("ricci")
                          else scalar_curvature(cp))
    return float(min(map(np.min, values))), float(max(map(np.max, values)))


def _resolve_constant(scenario, check, const_name, rule, role, probe):
    """Check params and scenario constants are trusted analytic; catalog facts
    are analytic; anything else falls back to sampled (advisory) estimates."""
    if const_name in check:
        return bounds_mod.Constant.analytic(const_name, check[const_name])
    if const_name in scenario.constants:
        return bounds_mod.Constant.analytic(const_name, scenario.constants[const_name])
    facts_field, sign = rule
    chart = scenario.domain if role == "domain" else scenario.target
    if chart.facts is not None:
        value = getattr(chart.facts, facts_field)
        if facts_field == "ricci_m_max":  # m = domain dimension; the volume check rejects m > n
            value = value[min(scenario.domain.dim, chart.dim) - 1]
        return bounds_mod.Constant.analytic(const_name, sign * value)
    quantity = facts_field
    if facts_field == "ricci_m_max" and scenario.domain.dim == 1:
        quantity = "hol_sec_max"  # Ric_1(v) = H(v); m = n reads Ric_n = Ric, which is exact
    lo, hi = _sampled_range(probe(), role, quantity, scenario.seed)
    value = lo if facts_field.endswith("_min") or facts_field == "scalar" else hi
    return bounds_mod.Constant.sampled(const_name, sign * value)


def resolve_bound_constants(scenario, check, kind, probe):
    """(K, κ) for a bound check.  A sampled fallback reads the curvature of ``probe()``,
    the scenario's order-0 stack of its first ``CONSTANT_PROBE_POINTS`` sample points,
    so it never raises the stacks' order."""
    key = (kind, check["mode"]) if kind == "hoop" else kind
    k_rule, kappa_rule = _CONSTANT_RULES[key]
    k = _resolve_constant(scenario, check, "K", k_rule, "domain", probe)
    kappa = _resolve_constant(scenario, check, "kappa", kappa_rule, "target", probe)
    return k, kappa


# -- check runners ------------------------------------------------------------------


def _direction(scenario, check):
    if "direction" in check:
        return _vector_from_json(check["direction"], scenario.domain.dim, "direction")
    vec = np.zeros(scenario.domain.dim, dtype=complex)
    vec[0] = 1.0
    return vec


def _given(check, *keys) -> dict:
    """The library arguments among ``keys`` that a check spec sets; its tolerance is ``tol``."""
    return {"tol" if key == "tolerance" else key: check[key] for key in keys if key in check}


def _run_identity(scenario, check, stacks, probe):
    verify = {"boch1": ident_mod.verify_boch1,
              "boch2": ident_mod.verify_boch2,
              "log_w": ident_mod.verify_log_w}[check["kind"]]
    return verify(scenario.holo_map, stacks, _direction(scenario, check),
                  **_given(check, "tolerance"))


def _run_bound(scenario, check, stacks, probe):
    kind = check["kind"]
    k, kappa = resolve_bound_constants(scenario, check, kind, probe)
    if kind == "hoop":
        return bounds_mod.hoop_check(scenario.holo_map, stacks, check["mode"], k, kappa,
                                     **_given(check, "tolerance"))
    runner = {"schwarz": bounds_mod.schwarz_bound_report,
              "volume": bounds_mod.volume_bound_report,
              "royden": bounds_mod.royden_bound_report}[kind]
    return runner(scenario.holo_map, stacks, k, kappa, **_given(check, "tolerance"))


def _run_three_circle(scenario, check, stacks, probe):
    return bounds_mod.three_circle_check(
        scenario.holo_map, check["radii"],
        seed=check.get("seed", scenario.seed), **_given(check, "counts", "tolerance"))


def _run_psh(scenario, check, stacks, probe):
    return ident_mod.psh_check(
        check["quantity"], scenario.holo_map, stacks,
        seed=check.get("seed", scenario.seed), **_given(check, "tolerance"))


def _run_averaging(scenario, check, stacks, probe):
    anchor = (_vector_from_json(check["point"], scenario.domain.dim, "averaging point")
              if "point" in check else stacks[0].points[0])
    return ident_mod.averaging_identity_check(
        curvature_tensor(scenario.domain, anchor), check["weights"],
        seed=check.get("seed", scenario.seed), **_given(check, "count", "kappa", "tolerance"))


class _CheckKind(NamedTuple):
    """How a check kind runs: the keys it reads beside "kind" (any other key is a
    configuration problem), its runner, the jet order of the map it reads at the
    sample points and the keys a spec must set."""

    keys: tuple[str, ...]
    run: Callable
    jet_order: int = 1
    required: tuple[str, ...] = ()


_IDENTITY = _CheckKind(("direction", "tolerance"), _run_identity, ident_mod.IDENTITY_JET_ORDER)
_BOUND = _CheckKind(("K", "kappa", "tolerance"), _run_bound)
_CHECK_KINDS = {
    "boch1": _IDENTITY,
    "boch2": _IDENTITY,
    "log_w": _IDENTITY,
    "schwarz": _BOUND,
    "volume": _BOUND,
    "royden": _BOUND,
    "hoop": _CheckKind(("mode", "K", "kappa", "tolerance"), _run_bound),
    "three_circle": _CheckKind(("radii", "counts", "tolerance", "seed"), _run_three_circle,
                               required=("radii",)),
    "psh": _CheckKind(("quantity", "tolerance", "seed"), _run_psh,
                      ident_mod.IDENTITY_JET_ORDER, required=("quantity",)),
    "averaging": _CheckKind(("weights", "point", "count", "seed", "kappa", "tolerance"),
                            _run_averaging, required=("weights",)),
}


def _scenario_jet_order(scenario: Scenario) -> int:
    """The one jet order of a scenario's sample stacks: the highest any check needs."""
    return max(_CHECK_KINDS[check["kind"]].jet_order for check in scenario.checks)


# -- report assembly ----------------------------------------------------------------


def _sampled(report) -> bool:
    return any(c.source == bounds_mod.SAMPLED for c in report.constants)


def classify(report) -> str:
    """passed / failed / advisory, read off a report's hypothesis ledger (the README's verdict
    table); advisory outcomes never gate the exit code."""
    if report.points_checked == 0 or report.refuted or _sampled(report):
        return "advisory"
    if report.passed:
        return "passed"
    return "advisory" if report.lower_estimate else "failed"


def report_notes(report) -> list[str]:
    """A report's notes with its ledger rendered in: the constants, the sampled-constants
    note, the check's own notes, the one-sided note and the refuted hypotheses."""
    notes = [" ; ".join(c.describe() for c in report.constants)] if report.constants else []
    if _sampled(report):
        notes.append("sampled hypothesis constants: the verdict is advisory, not certified")
    notes += report.notes
    if report.lower_estimate:
        notes.append("sampled maximum underestimates the true maximum; a failure is advisory")
    if report.refuted:
        notes += ["hypotheses not satisfied:", *list(dict.fromkeys(report.refuted))[:5]]
    return notes


def _complex_json(value: complex):
    return [float(value.real), float(value.imag)]


def _point_json(point):
    return None if point is None else [_complex_json(complex(v)) for v in np.asarray(point)]


def check_report_json(report: CheckReport, details: bool) -> dict:
    doc = {
        "type": "check",
        "kind": report.kind,
        "passed": report.passed,
        "status": report.status,
        "points_checked": report.points_checked,
        "skipped_points": report.skipped_points,
        "max_abs_residual": report.max_abs_residual,
        "tolerance": report.tolerance,
        "worst_point": _point_json(report.worst_point),
        "notes": report_notes(report),
    }
    if details and report.details is not None:
        doc["residuals"] = list(report.details)
    return doc


def bound_report_json(report) -> dict:
    return {
        "type": "bound",
        "kind": report.kind,
        "passed": report.passed,
        "equality_case": report.equality_case,
        "observed": report.observed,
        "bound": report.bound,
        "slack": report.slack,
        "tolerance": report.tolerance,
        "points_checked": report.points_checked,
        "coefficient": report.coefficient,
        "constants": [
            {"name": c.name, "value": c.value, "source": c.source} for c in report.constants
        ],
        "notes": report_notes(report),
    }


def run_scenario(scenario: Scenario, details: bool = False) -> tuple[dict, int]:
    """Execute all checks in declaration order; report document plus exit code."""
    points = sample_points(scenario)
    # the sample points' stacks, shared by every check and dropped on return; the first
    # evaluation of a stack validates both charts at all of its points
    stacks = point_stacks(scenario.holo_map, points, _scenario_jet_order(scenario))
    # the curvature probe of sampled constants, built on first need and shared by every
    # bound check; its own stacks read an expression chart's order-2 metric jets, the sample
    # stacks only what their checks need
    probe = functools.cache(
        lambda: point_stacks(scenario.holo_map, points[:CONSTANT_PROBE_POINTS], 0))
    checks_json = []
    tally = {"passed": 0, "failed": 0, "advisory": 0}
    for check in scenario.checks:
        report = _CHECK_KINDS[check["kind"]].run(scenario, check, stacks, probe)
        verdict = classify(report)
        tally[verdict] += 1
        doc = (check_report_json(report, details) if isinstance(report, CheckReport)
               else bound_report_json(report))
        doc["verdict"] = verdict
        checks_json.append(doc)
    report_doc = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "checks": checks_json,
        "summary": dict(tally),
    }
    return report_doc, (0 if tally["failed"] == 0 else 1)


def curvature_report(scenario: Scenario) -> dict:
    """Closed-form facts where available plus sampled curvature ranges."""
    points = sample_points(scenario)
    probe = point_stacks(scenario.holo_map, points[:CURVATURE_REPORT_POINTS], 0)
    charts = []
    for role, chart in (("domain", scenario.domain), ("target", scenario.target)):
        entry = {"role": role, "label": chart.label, "dim": chart.dim}
        if chart.family is not None:
            entry["family"] = chart.family
        facts = chart.facts
        if facts is not None:
            entry["facts"] = {name: getattr(facts, name) for name in ("hol_sec_min", "hol_sec_max",
                              "ricci_min", "ricci_max", "scalar", "constant_hol_sec", "einstein")}
        entry["sampled"] = {
            name: dict(zip(("min", "max"), _sampled_range(probe, role, name, scenario.seed)))
            for name in ("hol_sec", "ricci", "scalar")}
        entry["points_sampled"] = sum(len(stack) for stack in probe)
        charts.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "charts": charts,
    }


# -- serialization -------------------------------------------------------------------


def render_json(obj) -> str:
    """JSON with floats at 17 significant digits, keys in insertion order."""
    out: list[str] = []
    append, isfinite = out.append, math.isfinite

    def emit(obj, pad: str) -> None:
        # pad is the line break and indent before the closing bracket of obj; the exact
        # types a report holds dispatch first, a subclass or numpy scalar after them
        kind = type(obj)
        if kind is float:
            if not isfinite(obj):
                raise ConfigurationError(f"cannot serialize non-finite value {obj}")
            append(format(obj, ".17g"))
        elif kind is str:
            append(_quote(obj))
        elif kind is dict or kind is list or kind is tuple:
            if not obj:
                append("{}" if kind is dict else "[]")
                return
            inner = pad + "  "
            if kind is dict:
                opening = "{" + inner
                for key, value in obj.items():
                    append(opening + _quote(str(key)) + ": ")
                    opening = "," + inner
                    emit(value, inner)
                append(pad + "}")
            else:
                opening = "[" + inner
                for value in obj:
                    append(opening)
                    opening = "," + inner
                    emit(value, inner)
                append(pad + "]")
        elif kind is int:
            append(str(obj))
        elif kind is bool or obj is None:
            append("null" if obj is None else "true" if obj else "false")
        elif isinstance(obj, dict):
            emit(dict(obj), pad)
        elif isinstance(obj, (list, tuple)):
            emit(list(obj), pad)
        elif isinstance(obj, (int, np.integer)):
            append(str(int(obj)))
        elif isinstance(obj, (float, np.floating)):
            emit(float(obj), pad)
        elif isinstance(obj, str):
            append(_quote(obj))
        else:
            raise ConfigurationError(f"cannot serialize {type(obj).__name__} into a report")

    try:
        emit(obj, "\n")
    finally:
        del emit  # it calls itself through its closure: a cycle that would keep out alive
    return "".join(out)


def write_report(doc: dict, output: str | None):
    text = render_json(doc) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


# -- shipped scenarios ----------------------------------------------------------------


def shipped_scenarios() -> dict[str, dict]:
    """Name -> manifest document for the scenarios bundled with the package."""
    root = resources.files(__package__).joinpath("scenarios")
    docs = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            docs[entry.name[: -len(".json")]] = json.loads(entry.read_text(encoding="utf-8"))
    return docs


def shipped_scenario(name: str) -> Scenario:
    docs = shipped_scenarios()
    if name not in docs:
        raise ConfigurationError(f"unknown shipped scenario {name!r}; known: {', '.join(sorted(docs))}")
    return load_scenario(docs[name])


# -- command line ---------------------------------------------------------------------


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if args.points is not None:
        scenario.count = _sample_count(args.points, "--points")
    if args.seed is not None:
        scenario.seed = _count(args.seed, "--seed", minimum=0)
    if args.tol is not None:
        tol = _positive(args.tol, "--tol")
        scenario.checks = [{**check, "tolerance": tol} for check in scenario.checks]
    return scenario


def _scenario_from_arg(path: str) -> Scenario:
    try:
        return load_manifest(path)
    except FileNotFoundError:
        # allow the bundled scenarios to be named directly
        return shipped_scenario(path)


@functools.cache  # built once per process, on the first call of main
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlercheck",
        description="curvature identities and Schwarz-type bounds for holomorphic maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def manifest_flags(p, with_details):
        p.add_argument("manifest", help="manifest path or shipped scenario name")
        p.add_argument("--tol", type=float, default=None, help="override every check tolerance")
        p.add_argument("--seed", type=int, default=None, help="override the sampler seed")
        p.add_argument("--points", type=int, default=None, help="override the sample count")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        if with_details:
            p.add_argument("--details", action="store_true", help="include per-point residuals")

    manifest_flags(sub.add_parser("run", help="run a scenario's checks"), with_details=True)
    manifest_flags(sub.add_parser("curvature", help="curvature report only"), with_details=False)
    catalog_parser = sub.add_parser("catalog", help="inspect built-in data")
    catalog_parser.add_argument("what", choices=["list"], help="'list' the chart catalog")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            for name, entry in sorted(CATALOG.items()):
                sys.stdout.write(f"{name:24s} {entry.params:32s} {entry.description}\n")
            for name in sorted(shipped_scenarios()):
                sys.stdout.write(f"scenario:{name}\n")
            return 0
        scenario = _apply_overrides(_scenario_from_arg(args.manifest), args)
        if args.command == "curvature":
            write_report(curvature_report(scenario), args.output)
            return 0
        doc, status = run_scenario(scenario, details=args.details)
        write_report(doc, args.output)
        return status
    except (KahlerCheckError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a fault of the program, never a check's verdict
        message = " ".join(str(exc).split())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
