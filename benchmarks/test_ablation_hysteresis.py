"""E5 — Ablation of the threshold hysteresis (paper §3.5).

"Using state dependent threshold value for triggering transition
between local and borrowing modes prevents the situation in which a
cell jumps back and forth between local and borrowing modes."

We run the adaptive scheme on a churn-heavy workload with θ_l = θ_h
(no hysteresis) versus a widening gap, and count mode transitions and
the CHANGE_MODE + STATUS message overhead they generate.

Expected shape: transitions (and their message cost) drop as the gap
widens, with little effect on the drop rate.
"""

from _common import Scenario, print_banner, render_table, run_grid
from repro.harness import summarize

GAPS = [
    ("2 / 2 (none)", 2.0, 2.0),
    ("2 / 3", 2.0, 3.0),
    ("2 / 4", 2.0, 4.0),
    ("2 / 6", 2.0, 6.0),
]
SEEDS = (53, 54, 55)


def test_hysteresis_ablation():
    base = Scenario(
        scheme="adaptive",
        offered_load=6.5,  # hovers right around the borrowing threshold
        duration=3000.0,
        warmup=400.0,
    )
    grid = run_grid(
        {
            (label, seed): base.with_(seed=seed, theta_low=lo, theta_high=hi)
            for label, lo, hi in GAPS
            for seed in SEEDS
        }
    )
    results = {label: [grid[label, seed] for seed in SEEDS] for label, _, _ in GAPS}

    rows = []
    stats = {}
    for label, _, _ in GAPS:
        reps = results[label]
        ci = summarize(reps, ["mode_changes", "drop_rate", "messages_per_acquisition"])
        transitions = ci["mode_changes"].mean
        overhead = sum(
            r.messages_by_kind.get("ChangeMode", 0) + r.messages_by_kind.get("Response", 0)
            for r in reps
        ) / len(reps)
        drop = ci["drop_rate"].mean
        msgs = ci["messages_per_acquisition"].mean
        stats[label] = (transitions, overhead, drop, msgs)
        rows.append(
            [label, round(transitions), round(overhead), round(drop, 4), round(msgs, 1)]
        )

    print_banner(
        "E5",
        "threshold hysteresis ablation at 6.5 Erlang/cell (3 seeds each)",
    )
    print(
        render_table(
            [
                "theta_l / theta_h",
                "mode changes",
                "ChangeMode+Response msgs",
                "drop rate",
                "msgs/req",
            ],
            rows,
            note="Response counts include the STATUS replies every "
            "CHANGE_MODE triggers (Fig. 5)",
        )
    )

    none = stats["2 / 2 (none)"]
    widest = stats["2 / 6"]
    # Hysteresis cuts flapping substantially...
    assert widest[0] < none[0] * 0.8
    # ...without hurting service.
    assert widest[2] <= none[2] + 0.02
    assert all(r.violations == 0 for reps in results.values() for r in reps)
