"""E12 — Extension: mode-policy regret against the clairvoyant oracle.

Every shipped mode policy runs the same contended workload (the paper
grid at 10 Erlang/cell) under common random numbers, beside an oracle
that replays the traced free-primary series with perfect lookahead
(docs/POLICIES.md).  Regret is a policy's drop rate minus the oracle's
on the same seed; the table gives its mean over eight seeds with the
paired-by-seed 95% half-width.

Expected shape: every interval straddles or touches zero and none
reaches past 0.015 — at this load no shipped policy is distinguishable
from the oracle, or from another policy, so no ordering is asserted.
"""

from _common import Scenario, print_banner, render_table
from repro.policies import compare_policies

SEEDS = range(1, 9)


def test_policy_regret():
    base = Scenario(scheme="adaptive", offered_load=10.0, duration=600.0, warmup=100.0)

    comparison = compare_policies(base, seeds=SEEDS, workers=None, cache=False)

    intervals = {name: comparison.regret_interval(name) for name in comparison.policies}
    rows = []
    for name, ci in sorted(intervals.items(), key=lambda item: item[1].mean):
        mean_drop = sum(comparison.reports[name, s].drop_rate for s in SEEDS) / len(SEEDS)
        rows.append(
            [
                name,
                f"{mean_drop:.4f}",
                f"{ci.mean:+.4f} ± {ci.half_width:.4f}",
                "yes" if ci.excludes_zero() else "no",
            ]
        )

    print_banner("E12", "mode-policy regret vs the oracle at 10 Erlang/cell, 8 seeds")
    print(
        render_table(
            ["policy", "mean drop", "regret ± 95% half-width", "excludes 0"],
            rows,
            note="regret = drop rate minus the oracle's, paired by seed",
        )
    )

    for seed in SEEDS:
        assert comparison.reports["oracle", seed].regret_vs_oracle == 0.0
    assert len(comparison.rows) == 40
    assert all(row["violations"] == 0 for row in comparison.rows)
    # Bounded above, not ordered: the largest measured high end is
    # harvest's 0.0098.
    for name, ci in intervals.items():
        assert ci.high <= 0.015, name
