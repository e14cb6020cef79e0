"""Known gap: Theorem 1 after a cold restart (docs/PROTOCOL.md §10, docs/CHECKS.md).

Found while sizing the ``adaptive_faults`` benchmark workload
(bench/README.md): on the 7×7 grid, under the hostile plan below, seed
16 trips the interference monitor —

    t=350.067: channel 8 acquired by cell 10 while in use by
    interfering cell 24

Cell 10 crashes at t = 275 *with state loss* and restarts at t = 330.
Cell 24 has held borrowed channel 8 — a primary of cell 10 — since
before the crash.  Twenty time units after the restart cell 10's mirror
``U[24]`` is still empty: the re-sync STATUS round (``_restart_hook``'s
CHANGE_MODE(0) broadcast) is subject to the same loss as everything
else, and a cold-restarted station serves its primaries without
waiting for — or surviving the loss of — that round.

The reproducer is pinned ``xfail(strict=True)``: the fix changes
fault-run rows (and therefore the benchmark's ``adaptive_faults``
goldens), so it is a correctness issue of its own; when it lands this
test starts passing and the marker must go.
"""

import pytest

from repro.faults import CrashWindow, FaultPlan, LinkPartition
from repro.harness import Scenario, build_simulation

PLAN = FaultPlan(
    drop_prob=0.05,
    dup_prob=0.03,
    delay_prob=0.05,
    extra_delay=2.0,
    crashes=(
        CrashWindow(cell=10, at=275.0, downtime=55.0, lose_state=True),
        CrashWindow(cell=30, at=660.0, downtime=55.0),
    ),
    partitions=(LinkPartition(a=3, b=4, start=440.0, end=550.0),),
)


def run_past_the_restart(seed):
    """Run the scenario to t = 400 (restart at 330, violation at 350);
    the monitor and the sanitizer suite raise on any breach."""
    scenario = Scenario(
        scheme="adaptive",
        policy="linear",
        offered_load=10.0,
        duration=1100.0,
        warmup=100.0,
        seed=seed,
        faults=PLAN,
    )
    sim = build_simulation(scenario)
    sim.source.start()
    sim.env.run(until=400.0)
    assert sim.monitor.violations == []
    assert not sim.stations[10].down and 10 not in sim.injector.down


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="open gap: a cold-restarted station serves its primaries before "
    "its re-sync STATUS round has completed (Theorem 1 violation at t=350.067)",
)
def test_cold_restart_keeps_mutual_exclusion_seed_16():
    run_past_the_restart(16)


@pytest.mark.parametrize("seed", [3, 7])
def test_cold_restart_keeps_mutual_exclusion_control_seeds(seed):
    run_past_the_restart(seed)
