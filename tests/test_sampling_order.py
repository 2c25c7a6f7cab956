"""The stacked curvature sampling draws what the point-by-point loops drew.

psh's hypotheses, three_circle's probe and the sampled curvature ranges
(sampled constants and ``kahlercheck curvature``) each draw one stack's
directions at once.  :mod:`reference` keeps the loops that draw them
point by point and sample by sample, one functional call each; the
stacked code must give the same notes and the same ranges, bit for bit,
over several stacks, so the streams carry on across stacks as in the
loops.
"""

import pytest

import reference
from kahlercheck import maps
from kahlercheck.bounds import three_circle_check
from kahlercheck.cli import (
    CONSTANT_PROBE_POINTS,
    _sampled_range,
    load_scenario,
    run_scenario,
    sample_points,
)
from kahlercheck.identities import IDENTITY_JET_ORDER, psh_check
from kahlercheck.maps import point_stacks

# a potential whose bisectional curvature takes both signs near the origin
MIXED = {"dim": 2, "potential": "abs2(z1) + abs2(z2) + 0.3*abs2(z1)^2 - 0.2*abs2(z1*z2)",
         "region": {"kind": "ball", "radius": 1.0}}


def scenario(domain, target, mapping, count, seed, checks=()):
    return load_scenario({
        "schema": 1, "name": "sampling_order", "domain": domain, "target": target,
        "map": mapping, "sampler": {"count": count, "radius": 0.5, "seed": seed},
        "checks": list(checks) or [{"kind": "boch1"}]})


@pytest.fixture(autouse=True)
def small_stacks(monkeypatch):
    monkeypatch.setattr(maps, "STACK_CHUNK", 3)


@pytest.mark.parametrize("quantity", ["log1p_energy", "log_D"])
@pytest.mark.parametrize("seed", [0, 5])
def test_psh_refuted_notes_follow_the_point_by_point_draws(quantity, seed):
    sc = scenario(MIXED, {"catalog": "fubini_study", "params": {"dim": 2}},
                  ["0.8*z1 + 0.2*z2^2", "0.6*z2 - 0.3*z1*z2"], count=7, seed=seed)
    points = sample_points(sc)
    stacks = point_stacks(sc.holo_map, points, IDENTITY_JET_ORDER)
    assert len(stacks) == 3
    refuted = psh_check(quantity, sc.holo_map, stacks, seed=seed).refuted
    want = reference.psh_hypotheses(quantity, point_stacks(sc.holo_map, points, 0), seed)
    # some of the domain's 7 × 3 samples refute, not all; the target's all do
    assert 0 < sum(note.startswith("domain bisectional") for note in want) < 7 * 3
    assert sum(note.startswith("target bisectional") for note in want) == 7 * 3
    assert list(refuted) == want


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_three_circle_refuted_notes_follow_the_point_by_point_draws(monkeypatch, seed):
    monkeypatch.setattr(maps, "STACK_CHUNK", 1)  # its two probe points in two stacks
    target = {**MIXED, "region": {"kind": "full"}}
    sc = scenario({"catalog": "flat", "params": {"dim": 2}}, target,
                  ["0.5*z1 + 0.1*z2", "0.4*z2"], count=1, seed=seed)
    radii = (0.2, 0.5, 0.9)
    report = three_circle_check(sc.holo_map, radii, counts=4, seed=seed)
    assert list(report.refuted) == reference.three_circle_refuted(sc.holo_map, radii, seed)


def test_some_three_circle_probe_refutes_and_some_does_not():
    target = {**MIXED, "region": {"kind": "full"}}
    sc = scenario({"catalog": "flat", "params": {"dim": 2}}, target,
                  ["0.5*z1 + 0.1*z2", "0.4*z2"], count=1, seed=0)
    counts = {len(reference.three_circle_refuted(sc.holo_map, (0.2, 0.5, 0.9), seed))
              for seed in range(4)}
    assert len(counts) > 1


# the bidisk's metric as an expression chart: its curvature is read off its jets, so its
# constant Ricci and scalar curvature vary at rounding level from point to point, where
# the catalog bidisk's closed form gives one value at every point
BIDISK = {"dim": 2, "region": {"kind": "polydisk", "radii": [1, 1]},
          "metric": [["1/(1 - abs2(z1))^2", "0"], ["0", "1/(1 - abs2(z2))^2"]]}


@pytest.mark.parametrize("quantity", ["hol_sec", "ricci", "scalar"])
@pytest.mark.parametrize("role", ["domain", "target"])
def test_sampled_ranges_follow_the_point_by_point_draws(role, quantity):
    sc = scenario(MIXED, BIDISK,
                  ["0.8*z1 + 0.2*z2^2", "0.6*z2 - 0.3*z1*z2"], count=8, seed=4)
    stacks = point_stacks(sc.holo_map, sample_points(sc), 0)
    assert len(stacks) == 3
    lo, hi = _sampled_range(stacks, role, quantity, sc.seed)
    want_lo, want_hi = reference.sampled_range(stacks, role, quantity, sc.seed)
    # equal, not close: each row's value rounds as the one-point call's does
    assert lo < hi and (lo, hi) == (want_lo, want_hi)


def test_a_sampled_kappa_from_an_expression_target_follows_the_draws():
    # royden's kappa is −max H of the target, sampled with 8 directions per probe point
    target = {"dim": 2, "label": "bidisk_by_metric", "region": {"kind": "polydisk", "radii": [1, 1]},
              "metric": [["1/(1 - abs2(z1))^2", "0"], ["0", "2/(1 - abs2(z2))^2"]]}
    sc = scenario({"catalog": "poincare_disk"}, target, ["0.6*z1", "0.4*z1 + 0.3*z1^2"],
                  count=16, seed=22, checks=[{"kind": "royden", "K": 1.0}])
    doc, status = run_scenario(sc)
    assert status == 0
    (kappa,) = [c for c in doc["checks"][0]["constants"] if c["name"] == "kappa"]
    probe = point_stacks(sc.holo_map, sample_points(sc)[:CONSTANT_PROBE_POINTS], 0)
    assert len(probe) == 4 and kappa["source"] == "sampled"
    _, want_hi = reference.sampled_range(probe, "target", "hol_sec_max", sc.seed)
    assert kappa["value"] == -want_hi
