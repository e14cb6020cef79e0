"""E12 — Extension: does each non-default mode policy earn its keep?

The paper has one mode rule, Fig. 6's linear extrapolation.  Every
other registered policy runs against it at six operating points where
prediction could matter, under common random numbers (seeds 1–8,
paired by seed, 95% intervals), on both of the paper's costs: drop
rate and messages per acquisition (Tables 1–3).

The rule (docs/POLICIES.md) a policy P must pass to stay:

* (a) no worse anywhere — at every point P − linear's drop-rate
  interval ends at or below +0.015, and its messages interval does not
  lie wholly above zero;
* (b) better somewhere — at one point or more, the drop-rate or the
  messages interval lies wholly below zero.

Expected shape: ``quantile`` passes, with fewer messages at every
point and no drop rate distinguishable from linear's.
"""

from _common import Scenario, print_banner, render_table, run_grid
from repro.harness import compare
from repro.policies import policy_names
from repro.traffic import HotspotLoad, TemporalHotspot

SEEDS = range(1, 9)
HOLDING = 180.0
#: How far above linear's a policy's drop-rate interval may reach.
DROP_MARGIN = 0.015
BASE = Scenario(scheme="adaptive", duration=1500.0, warmup=300.0)
POINTS = {
    "E1 hot spot": BASE.with_(pattern=HotspotLoad(2.0 / HOLDING, [24], 25.0 / HOLDING)),
    "E2 5 E": BASE.with_(offered_load=5.0),
    "E2 10 E": BASE.with_(offered_load=10.0),
    "E2 15 E": BASE.with_(offered_load=15.0),
    "E8 mobility": BASE.with_(offered_load=7.0, mean_dwell=150.0),
    "regime shift": BASE.with_(
        pattern=TemporalHotspot(
            4.0 / HOLDING, [16, 17, 23, 24, 25, 31, 32], 16.0 / HOLDING, start=600.0, end=1100.0
        )
    ),
}


def test_policy_rule():
    policies = policy_names()
    grid = run_grid(
        {
            (point, policy, seed): scenario.with_(seed=seed, policy=policy)
            for point, scenario in POINTS.items()
            for policy in policies
            for seed in SEEDS
        }
    )

    def reports(point, policy):
        return [grid[point, policy, seed] for seed in SEEDS]

    rows = []
    verdicts = {}
    for policy in policies:
        if policy == "linear":
            continue
        no_worse, better = True, False
        for point in POINTS:
            drop, msgs = (
                compare(reports(point, policy), reports(point, "linear"), metric)
                for metric in ("drop_rate", "messages_per_acquisition")
            )
            no_worse &= drop.high <= DROP_MARGIN and not msgs.low > 0
            better |= drop.high < 0 or msgs.high < 0
            rows.append(
                [
                    policy,
                    point,
                    f"{drop.mean:+.4f} ± {drop.half_width:.4f}",
                    f"{msgs.mean:+.1f} ± {msgs.half_width:.1f}",
                ]
            )
        verdicts[policy] = (no_worse, better)

    print_banner("E12", "each mode policy against linear at six points, 8 seeds")
    print(
        render_table(
            ["policy", "point", "Δdrop ± 95%", "Δmsgs/acq ± 95%"],
            rows,
            note="Δ = policy minus linear, paired by seed",
        )
    )

    assert sum(r.violations for r in grid.values()) == 0
    assert len(grid) == len(POINTS) * len(policies) * len(SEEDS)
    for policy, (no_worse, better) in verdicts.items():
        assert no_worse, f"{policy} is worse than linear somewhere (rule a)"
        assert better, f"{policy} is better than linear nowhere (rule b)"
