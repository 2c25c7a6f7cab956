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


BALL2 = {"catalog": "complex_hyperbolic_ball", "params": {"dim": 2}}
# the boch1 manifest of tools/snapshot_manifests/near_edge_ball_boch1_rounding.json
NEAR_EDGE_BOCH1 = (BALL2, {"catalog": "flat", "params": {"dim": 2}},
                   ["(-0.711533)*z2^1", "(-0.0906319)*z2^2"])


def _run(domain, target, components, radius, checks, count=6, seed=7):
    return run_scenario(load_scenario({
        "schema": 1,
        "name": "open_defect",
        "domain": domain,
        "target": target,
        "map": components,
        "sampler": {"count": count, "radius": radius, "seed": seed},
        "checks": checks,
    }))


def _does_not_exit_one(result):
    _, status = result
    assert status != 1


def _exits_zero(result):
    _, status = result
    assert status == 0


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
    pytest.param(  # boch1 is an identity; its left side, the energy jet's Levi form, rounds
        (*NEAR_EDGE_BOCH1, 1 - 1e-6, [{"kind": "boch1"}], 8, 68),
        _exits_zero, id="boch1_near_the_ball_edge_1e-6",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 14")),
    pytest.param(
        (*NEAR_EDGE_BOCH1, 1 - 1e-7, [{"kind": "boch1"}], 8, 68),
        _exits_zero, id="boch1_near_the_ball_edge_1e-7",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 14")),
]


@pytest.mark.parametrize("manifest, correct", OPEN)
def test_open_false_verdict(manifest, correct):
    correct(_run(*manifest))
