"""A register of the false verdicts that are still open, one strict xfail each.

Each case runs one manifest and asserts the outcome the paper's theorems
call for, so it fails until the ROADMAP item named in its reason is
done.  ``strict=True`` turns an unnoticed mend into a failure: the
change that mends a case drops its mark.
"""

import pytest

from kahlercheck.cli import load_scenario, run_scenario

DISK = {"catalog": "poincare_disk", "params": {"a": 1.0}}
BARE_BOUNDS = [{"kind": "schwarz"}, {"kind": "volume"}, {"kind": "royden"}]


def _run(domain, target, components, radius, checks):
    return run_scenario(load_scenario({
        "schema": 1,
        "name": "open_defect",
        "domain": domain,
        "target": target,
        "map": components,
        "sampler": {"count": 6, "radius": radius, "seed": 7},
        "checks": checks,
    }))


def _does_not_exit_one(result):
    _, status = result
    assert status != 1


def _volume_bound_is_one(result):
    doc, _ = result
    assert doc["checks"][0]["bound"] == pytest.approx(1.0, rel=0.01)


OPEN = [
    pytest.param(  # no nonconstant holomorphic map C → D exists; z/3 leaves D at |z| = 3
        ({"catalog": "flat", "params": {"dim": 1}}, DISK, ["z1/3"], 0.5, BARE_BOUNDS),
        _does_not_exit_one, id="flat_into_disk",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 7")),
    pytest.param(  # 2z is not a self-map of the disk
        (DISK, DISK, ["2*z1"], 0.4, [{"kind": "schwarz"}]),
        _does_not_exit_one, id="disk_doubling",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 7")),
    pytest.param(  # the disk has H = -2, so the declared H >= -0.5 is false
        (DISK, DISK, ["z1"], 0.5, [{"kind": "schwarz", "K": 0.5}]),
        _does_not_exit_one, id="declared_k_refuted",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3")),
    pytest.param(  # the m-Ricci kappa is 3, so the bound is (6 / (2 * 3))^2 = 1
        ({"catalog": "complex_hyperbolic_ball", "params": {"dim": 2}},
         {"dim": 3, "potential": "-log(1 - abs2(z1) - abs2(z2) - abs2(z3))",
          "region": {"kind": "ball"}},
         ["z1", "z2", "0"], 0.5, [{"kind": "volume"}]),
        _volume_bound_is_one, id="sampled_volume_kappa",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3")),
]


@pytest.mark.parametrize("manifest, correct", OPEN)
def test_open_false_verdict(manifest, correct):
    correct(_run(*manifest))
