"""E11 — Extension: guard channels (handoff priority) under mobility.

Classic cellular admission control (Hong & Rappaport 1986): reserve the
last g free primaries for handoffs, because users experience a dropped
ongoing call as far worse than a blocked new one.  We sweep g for the
fixed and adaptive schemes on a mobile workload.

Expected shape: forced terminations fall monotonically with g while
new-call blocking rises — the textbook trade-off — and the guard is
dramatically more effective under the adaptive scheme: a guarded
handoff that finds no free primary can still *borrow*, so g=1 already
pushes adaptive forced terminations near zero while fixed needs g≈4.
"""

from _common import Scenario, print_banner, render_table, run_grid

GUARDS = [0, 1, 2, 4]


def test_guard_channel_sweep():
    base = Scenario(
        offered_load=8.5,
        mean_dwell=150.0,
        duration=2500.0,
        warmup=400.0,
        seed=107,
    )
    results = run_grid(
        {
            (scheme, g): base.with_(scheme=scheme, extra_params={"guard_channels": g})
            for scheme in ("fixed", "adaptive")
            for g in GUARDS
        }
    )

    rows = []
    for (scheme, g), rep in results.items():
        rows.append(
            [
                scheme,
                g,
                round(rep.new_call_block_rate, 4),
                round(rep.handoff_failure_rate, 4),
                round(rep.drop_rate, 4),
                rep.violations,
            ]
        )

    print_banner(
        "E11",
        "guard-channel sweep at 8.5 Erlang/cell with mobility (dwell 150)",
    )
    print(
        render_table(
            [
                "scheme",
                "guard g",
                "new-call block",
                "handoff failure",
                "drop (all)",
                "violations",
            ],
            rows,
            note="reserving g primaries for handoffs trades new-call "
            "blocking for fewer forced terminations",
        )
    )

    for scheme in ("fixed", "adaptive"):
        ho = [results[(scheme, g)].handoff_failure_rate for g in GUARDS]
        nb = [results[(scheme, g)].new_call_block_rate for g in GUARDS]
        # Strong guarding protects handoffs and costs new calls.
        assert ho[-1] < ho[0]
        assert nb[-1] > nb[0]
    # The borrow path makes the adaptive guard far more effective:
    # one guarded primary already nearly eliminates forced terminations.
    assert results[("adaptive", 1)].handoff_failure_rate < 0.01
    # At every guard level the adaptive scheme's forced terminations are
    # below fixed's (its borrow path is an implicit guard).
    for g in GUARDS:
        assert (
            results[("adaptive", g)].handoff_failure_rate
            <= results[("fixed", g)].handoff_failure_rate
        )
    assert all(r.violations == 0 for r in results.values())
