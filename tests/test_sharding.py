"""Sharded space-parallel execution: partitioner, parity, oracles.

The headline contract under test: ``shards=N`` is **row-identical** to
``shards=1`` — same report, for every scheme, under a hostile fault
plan, with the full sanitizer suite raising (the session-wide
``conftest`` policy).  The conservative window protocol earns that by
construction; these tests check the construction.
"""

import dataclasses

import pytest

from repro.cellular import CellularTopology, topology_for
from repro.faults import CrashWindow, FaultPlan, LinkPartition
from repro.harness import (
    Scenario,
    build_simulation,
    check_compatible,
    merge_shard_results,
    run_cells,
    run_scenario,
    run_sharded,
    run_sharded_results,
)
from repro.harness import sharded
from repro.harness.sharded import (
    _ShardRun,
    _WindowClock,
    _cross_shard_violations,
    _windows,
)
from repro.sim import Environment, plan_shards

SCHEMES = [
    "fixed",
    "basic_search",
    "basic_update",
    "advanced_update",
    "adaptive",
    "prakash",
]


def small(scheme="adaptive", **overrides):
    defaults = dict(
        scheme=scheme,
        offered_load=5.0,
        duration=220.0,
        warmup=40.0,
        seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def rows(report):
    """Every Report field that must be shard-invariant."""
    data = dataclasses.asdict(report)
    data.pop("scenario")
    data.pop("obs")
    data.pop("metrics")
    return data


def topo7():
    return CellularTopology(7, 7, num_channels=70, cluster_size=7, wrap=True)


# -- partitioner -----------------------------------------------------------


def test_plan_shards_partitions_rows_contiguously():
    plan = plan_shards(topo7(), 3)
    # 7 rows over 3 shards: bands of 3, 2, 2 rows (row-major ids).
    assert [len(band) for band in plan.cells] == [21, 14, 14]
    flat = [c for band in plan.cells for c in band]
    assert flat == list(range(49))
    for shard, band in enumerate(plan.cells):
        assert band == tuple(range(band[0], band[-1] + 1))
        for cell in band:
            assert plan.owner[cell] == shard
            assert plan.shard_of(cell) == shard


def test_plan_shards_frontier_is_cross_shard_interference():
    topo = topo7()
    plan = plan_shards(topo, 2)
    for shard in range(2):
        frontier = set(plan.frontier_of(shard))
        for cell in plan.cells_of(shard):
            crosses = any(
                plan.owner[peer] != shard for peer in topo.IN(cell)
            )
            assert (cell in frontier) == crosses


def test_plan_shards_single_shard_has_no_frontier():
    plan = plan_shards(topo7(), 1)
    assert plan.cells == (tuple(range(49)),)
    assert plan.frontier_of(0) == ()


def test_plan_shards_rejects_bad_counts():
    with pytest.raises(ValueError):
        plan_shards(topo7(), 0)
    with pytest.raises(ValueError):
        plan_shards(topo7(), 8)  # more shards than rows


def test_validate_shardable_gates():
    with pytest.raises(ValueError, match="deterministic"):
        check_compatible(
            small(latency_model="uniform", latency_spread=1.0), shards=2
        )
    with pytest.raises(ValueError, match="mean_dwell"):
        check_compatible(small(mean_dwell=600.0), shards=2)
    # A fluid cell is off the event heap: its kernel has no lookahead
    # into the analytic interval, so the conservative window protocol
    # cannot order it.  Rejected up front, not degraded.
    with pytest.raises(ValueError, match="fastlane"):
        check_compatible(small(fastlane=True), shards=2)
    check_compatible(small(), shards=2)  # and the happy path is silent


# -- window schedule -------------------------------------------------------


def test_window_boundaries_are_multiplicative_and_capped():
    assert list(_windows(5.0, 2.0)) == [2.0, 4.0, 5.0]
    assert list(_windows(3.0, 10.0)) == [3.0]
    # k * T, not an accumulating sum: no float drift over many windows.
    boundaries = list(_windows(400.0, 0.1))
    assert boundaries[-1] == 400.0
    assert boundaries[99] == 100 * 0.1


def test_window_clock_adaptive_jumps_stay_on_grid():
    clock = _WindowClock(10.0, 2.0, "adaptive")
    # Earliest pending instant inside the first window: no jump.
    assert clock.next(0.5) == 2.0
    # Earliest pending instant at 7.0: nothing can deliver before
    # 7.0 + T = 9.0, so the largest safe grid boundary is 8.0.
    assert clock.next(7.0) == 8.0
    # Fully quiescent: one final window straight to the horizon.
    assert clock.next(float("inf")) == 10.0
    assert clock.next(float("inf")) is None
    assert clock.windows == 3


def test_window_clock_adaptive_boundary_is_conservative():
    """Every adaptive boundary b satisfies b <= low + T (the lookahead
    safety bound) and lies on the fixed-mode grid."""
    T = 0.1
    grid = set(_windows(40.0, T))
    for low in (0.0, 0.05, 0.3, 0.30000000000000004, 1.0, 7.77, 39.9):
        clock = _WindowClock(40.0, T, "adaptive")
        boundary = clock.next(low)
        assert boundary <= low + T + 1e-9
        assert boundary in grid


def test_environment_timeout_at_schedules_absolute_time():
    env = Environment()
    seen = []
    event = env.timeout_at(2.5, "x")
    event.callbacks.append(lambda e: seen.append((env.now, e._value)))
    env.run(until=5.0)
    assert seen == [(2.5, "x")]
    with pytest.raises(ValueError):
        env.timeout_at(env.now - 1.0)


# -- parity ----------------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sharded_rows_identical_per_scheme(scheme):
    scenario = small(scheme)
    classic = run_scenario(scenario)
    sharded = run_sharded(scenario, 2, mode="inline")
    assert rows(sharded) == rows(classic)


def test_sharded_rows_identical_at_many_shard_counts(monkeypatch):
    scenario = small("adaptive")
    classic = rows(run_scenario(scenario))
    shard_sims = []

    def recording_build(*args, **kwargs):
        shard_sims.append(build_simulation(*args, **kwargs))
        return shard_sims[-1]

    monkeypatch.setattr(sharded, "build_simulation", recording_build)
    plan_topologies = []

    def recording_plan(topo, shards):
        plan_topologies.append(topo)
        return plan_shards(topo, shards)

    monkeypatch.setattr(sharded, "plan_shards", recording_plan)
    for shards in (3, 7):
        assert rows(run_sharded(scenario, shards, mode="inline")) == classic
    # The coordinator (shard plan, cross-shard replay) and every shard
    # kernel work on one topology object, not shards + 1 equal copies.
    assert len(shard_sims) == 3 + 7
    shared = topology_for(scenario)
    assert all(sim.topo is shared for sim in shard_sims)
    assert all(topo is shared for topo in plan_topologies)


def test_sharded_rows_identical_under_hostile_faults():
    plan = FaultPlan(
        drop_prob=0.05,
        dup_prob=0.03,
        delay_prob=0.05,
        extra_delay=2.0,
        crashes=(
            CrashWindow(cell=10, at=90.0, downtime=30.0),
            CrashWindow(cell=24, at=140.0, downtime=25.0),
        ),
        partitions=(LinkPartition(a=3, b=4, start=80.0, end=130.0),),
    )
    for scheme in ("adaptive", "basic_update"):
        scenario = small(scheme, faults=plan, seed=7)
        classic = run_scenario(scenario)
        sharded = run_sharded(scenario, 3, mode="inline")
        assert rows(sharded) == rows(classic)
        # The plan actually bit: this is not vacuous parity.
        assert sum(classic.faults_injected.values()) > 0


def test_sharded_process_mode_matches_inline():
    scenario = small("adaptive")
    classic = rows(run_scenario(scenario))
    assert rows(run_sharded(scenario, 2, mode="process")) == classic


def test_adaptive_windows_row_identical_to_fixed():
    """The null-message optimization changes only the barrier count:
    merged reports are equal field for field, and on a lightly loaded
    grid the adaptive clock actually collapses windows."""
    scenario = small("adaptive", offered_load=0.25, duration=200.0,
                     warmup=50.0)
    plan, fixed = run_sharded_results(scenario, 2, mode="inline")
    plan_a, adaptive = run_sharded_results(
        scenario, 2, mode="inline", window_mode="adaptive"
    )
    assert rows(merge_shard_results(scenario, plan_a, adaptive)) == rows(
        merge_shard_results(scenario, plan, fixed)
    )
    assert max(r.windows for r in adaptive) < max(r.windows for r in fixed)


def test_adaptive_windows_process_mode_matches_classic():
    scenario = small("adaptive")
    assert rows(
        run_sharded(scenario, 2, mode="process", window_mode="adaptive")
    ) == rows(run_scenario(scenario))


def test_unknown_window_mode_rejected():
    with pytest.raises(ValueError, match="window mode"):
        run_sharded(small(), 2, window_mode="widest")


def test_run_scenario_shards_kwarg_routes_to_sharded():
    scenario = small("adaptive")
    assert rows(run_scenario(scenario, shards=2)) == rows(
        run_scenario(scenario)
    )


def test_run_cells_composes_with_shards():
    scenarios = [small("adaptive"), small("fixed")]
    plain = run_cells(scenarios, cache=False)
    sharded = run_cells(scenarios, cache=False, shards=2)
    assert [rows(a) for a in plain] == [rows(b) for b in sharded]
    with pytest.raises(ValueError):
        run_cells(scenarios, cache=False, shards=0)


def test_windowing_adds_only_stop_events():
    """The windowed kernel does the same simulation work as classic.

    At shards=1 the event count matches the single ``env.run(until)``
    kernel *exactly* once window-stop events are discounted (classic
    schedules one stop, the windowed loop schedules one per window).
    Extra shards may only add constant per-shard bookkeeping (their
    own warmup process), never per-event overhead.
    """
    scenario = small("basic_update")
    sim = build_simulation(scenario)
    sim.run()
    classic = sim.env._eid - len(sim.env._queue) - 1
    windows = len(list(_windows(scenario.duration, scenario.latency_T)))
    _, single = run_sharded_results(scenario, 1, mode="inline")
    base = sum(r.processed_events for r in single) - windows
    assert base == classic
    _, split = run_sharded_results(scenario, 2, mode="inline")
    total = sum(r.processed_events for r in split) - 2 * windows
    assert 0 <= total - base <= 8


# -- correctness oracles ---------------------------------------------------


def test_vector_clock_stamps_cross_the_boundary():
    """Cross-shard envelopes carry the sender's vector-clock stamp, the
    receiving checker adopts it, and the oracle stays silent on a
    clean FIFO run (any violation would raise under the conftest
    policy)."""
    scenario = small("basic_update")
    topo = topo7()
    plan = plan_shards(topo, 2)
    runs = [_ShardRun(scenario, plan, s) for s in range(2)]
    pending = [[], []]
    stamped_crossings = 0
    for until in _windows(scenario.duration, scenario.latency_T):
        drains = []
        for run, records in zip(runs, pending):
            run.inject(records)
            run.advance(until)
            drains.append(run.drain())
        stamped_crossings += sum(
            1 for drained in drains for r in drained if r.clock is not None
        )
        pending = [
            sorted(
                (r for drained in drains for r in drained
                 if plan.owner[r.dst] == shard),
                key=lambda r: r[:5],
            )
            for shard in range(2)
        ]
    assert stamped_crossings > 0
    for run in runs:
        checker = run.sim.sanitizers.vector_clock
        assert checker.messages_stamped > 0
        assert checker.violations == []
        assert run.port.exported > 0


def test_cross_shard_violation_replay_counts_boundary_conflicts():
    topo = topo7()
    plan = plan_shards(topo, 2)
    # Two interfering cells across the boundary: one from shard 0's
    # frontier and one of its IN-peers owned by shard 1.
    a = plan.frontier_of(0)[0]
    b = next(p for p in sorted(topo.IN(a)) if plan.owner[p] == 1)
    overlap = [(1.0, 1, a, 5), (2.0, 1, b, 5), (3.0, 0, a, 5), (4.0, 0, b, 5)]
    assert _cross_shard_violations(topo, plan, overlap) == 1
    # Release-before-acquire at the same instant is not a conflict.
    handoff = [(1.0, 1, a, 5), (2.0, 0, a, 5), (2.0, 1, b, 5)]
    assert _cross_shard_violations(topo, plan, handoff) == 0
    # Same-shard overlaps are the live monitors' job, not the replay's.
    c, d = plan.cells_of(0)[0], plan.cells_of(0)[1]
    local = [(1.0, 1, c, 5), (2.0, 1, d, 5)]
    assert _cross_shard_violations(topo, plan, local) == 0
