"""B0 — Simulator event counts: kernel events and messages per scheme.

Not a paper artifact — this pins the reproduction itself (the DES
kernel plus protocol logic).  The run is deterministic, so the two
counts are exact on any host: a change that moves one has changed what
the simulator does, whatever it did to its speed.  Speed is measured by
``python -m bench``.  The interference monitor and metrics pipeline are
enabled, as in every experiment.
"""

from repro.harness import Scenario, build_simulation
from repro.sim.engine import EmptySchedule

from _common import print_banner, render_table

#: scheme -> (kernel events, messages), read on a clean copy of f02d344.
COUNTS = {
    "fixed": (12_096, 0),
    "basic_search": (108_199, 91_637),
    "basic_update": (236_028, 219_384),
    "advanced_update": (106_935, 93_922),
    "prakash": (34_390, 21_064),
    "adaptive": (109_752, 95_493),
}


def run_and_count(scheme: str):
    sim = build_simulation(
        Scenario(
            scheme=scheme,
            offered_load=8.0,
            duration=1200.0,
            warmup=200.0,
            seed=101,
        )
    )
    sim.source.start()
    env = sim.env
    events = 0
    # Count kernel events by stepping manually.
    while True:
        if env.peek() > 1200.0:
            break
        try:
            env.step()
        except EmptySchedule:
            break
        events += 1
    return events, sim.network.total_sent


def test_simulator_throughput():
    results = {scheme: run_and_count(scheme) for scheme in COUNTS}

    print_banner(
        "B0", "simulator event counts at 8 Erlang/cell (49 cells, 1200 time units)"
    )
    print(
        render_table(
            ["scheme", "kernel events", "messages"],
            [[scheme, events, msgs] for scheme, (events, msgs) in results.items()],
        )
    )

    assert results == COUNTS
