"""T3 — Paper Table 3: min/max bounds per scheme across the load range.

Table 3 bounds each scheme's per-acquisition message complexity and
acquisition time over all loads.  We sweep offered load from 5% to
180% of capacity and report the *observed* per-request minima/maxima
against the paper's bounds:

    scheme            msgs min/max        time min/max
    Basic Search      2N / 2N             2T / (N+1)T
    Basic Update      2N / inf            2T / inf
    Advanced Update   N  / inf            0  / inf
    Adaptive          0  / 2αN+4N         0  / (2αN+1)T

Finite bounds must hold for every observation; infinite bounds are
reported as the growth observed at the top of the sweep.
"""


from repro.analysis import bounds_table

from _common import (
    N_REGION,
    PAPER_LABELS,
    Scenario,
    print_banner,
    render_table,
    run_grid,
)

SCHEMES = ["basic_search", "basic_update", "advanced_update", "adaptive"]
LOADS = [0.5, 2.0, 5.0, 8.0, 11.0, 14.0, 18.0]


def per_request_messages(report) -> float:
    """Messages per request that actually ran the protocol.

    At overload a slice of calls abandons in the setup queue before the
    protocol starts (blocked-calls-cleared); they cost zero messages
    and would dilute the per-acquisition averages the paper's bounds
    describe.
    """
    protocol_requests = sum(
        1 for r in report.metrics.records if r.mode != "queue_timeout"
    )
    if not protocol_requests:
        return 0.0
    return report.messages_total / protocol_requests


def test_table3_bounds():
    base = Scenario(duration=1500.0, warmup=300.0, seed=31)
    grid = run_grid(
        {
            (scheme, load): base.with_(scheme=scheme, offered_load=load)
            for scheme in SCHEMES
            for load in LOADS
        }
    )
    results = {s: [grid[s, load] for load in LOADS] for s in SCHEMES}
    paper = bounds_table(N=N_REGION, alpha=base.alpha, T=base.latency_T)

    rows = []
    for scheme in SCHEMES:
        reps = results[scheme]
        msgs = [per_request_messages(r) for r in reps]
        acq_means = [r.mean_acquisition_time for r in reps]
        acq_max = max(r.max_acquisition_time for r in reps)
        p = paper[scheme]
        rows.append(
            [
                PAPER_LABELS[scheme],
                f"{p['msg_min']:g}..{p['msg_max']:g}",
                f"{min(msgs):.1f}..{max(msgs):.1f}",
                f"{p['time_min']:g}..{p['time_max']:g}",
                f"{min(acq_means):.2f}..{acq_max:.1f}",
            ]
        )

    print_banner(
        "T3 (Table 3)",
        f"observed bounds over load sweep {LOADS} Erlang/cell",
    )
    print(
        render_table(
            ["scheme", "msgs bound (paper)", "msgs observed", "time bound (paper)", "time observed"],
            rows,
            note="msgs observed are per-request averages (min..max across "
            "loads); time observed is min of means .. max single request",
        )
    )

    # -- finite paper bounds must hold observation-wise -------------------
    adaptive = results["adaptive"]
    msg_cap = paper["adaptive"]["msg_max"]
    time_cap = paper["adaptive"]["time_max"]
    for rep in adaptive:
        assert rep.max_acquisition_time <= time_cap
    # Per-request *average* messages stay under the worst-case bound.
    assert max(per_request_messages(r) for r in adaptive) <= msg_cap

    # Adaptive and advanced update reach zero-cost floor at light load.
    assert per_request_messages(adaptive[0]) == 0.0
    assert adaptive[0].mean_acquisition_time == 0.0

    # Basic search's cost is load-independent (2N every time).
    searches = [per_request_messages(r) for r in results["basic_search"]]
    assert max(searches) - min(searches) < 2.0

    # Basic update's time grows with load (unbounded in the paper);
    # check monotone-ish growth across the sweep ends.
    bu = results["basic_update"]
    assert bu[-1].mean_acquisition_time > bu[0].mean_acquisition_time
