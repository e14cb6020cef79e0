"""A finished simulation is freed when its report exists.

``run_scenario``, ``run_from_snapshot`` and ``run_to_checkpoint`` hand
back plain data and call ``Simulation.close()`` on the simulation they
built; with the collector off, the stations, the network, the traffic
source and the monitor must already be gone when they return — at low
load and at saturation, with a fault plan and with ``--trace`` — and
closing must change nothing the report says.  While a run goes on, a
completed STATUS round goes the same way.
"""

import dataclasses
import gc
import sys
import weakref

import pytest

from repro.faults import CrashWindow, FaultPlan
from repro.harness import SCHEMES, Scenario, build_simulation, run_scenario, runner
from repro.obs import SAMPLE_INTERVAL
from repro.protocols import MSS
from repro.sim import ConditionEvent, Network
from repro.snap import run_from_snapshot, run_to_checkpoint

from test_call_path import rows

HEAVY = ("network", "source", "monitor", "injector", "observer", "sanitizers", "fastlane")


def faulty():
    return FaultPlan(
        drop_prob=0.05, dup_prob=0.03, delay_prob=0.05, extra_delay=2.0,
        crashes=(CrashWindow(cell=10, at=100.0, downtime=30.0),),
    )


def scenario(scheme, load=3.0, **overrides):
    fields = dict(scheme=scheme, offered_load=load, duration=220.0, warmup=40.0, seed=3)
    return Scenario(**{**fields, **overrides})


@pytest.fixture
def built(monkeypatch):
    """Weak references to the parts of every simulation built."""
    made = []
    real = runner.build_simulation

    def recording(scenario):
        sim = real(scenario)
        parts = list(sim.stations.values())
        parts += [getattr(sim, name) for name in HEAVY if getattr(sim, name) is not None]
        made.append([weakref.ref(part) for part in parts])
        return sim

    monkeypatch.setattr(runner, "build_simulation", recording)
    return made


@pytest.fixture
def collector_off(monkeypatch):
    """``gc`` disabled and saving what it would have freed; failures in
    finalizers (a generator's ``finally:`` on a torn-down stack) kept."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield unraisable
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def alive(parts):
    return [type(ref()).__name__ for ref in parts if ref() is not None]


def cyclic_leftovers():
    gc.collect()
    return [o for o in gc.garbage if isinstance(o, (MSS, Network))], len(gc.garbage)


CONFIGS = {
    "plain": {},
    "trace": {"obs": SAMPLE_INTERVAL},
    "faults+trace": {"faults": faulty(), "obs": SAMPLE_INTERVAL},
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_run_scenario_leaves_nothing_for_the_collector(built, collector_off, scheme, config):
    for load in (3.0, 12.0):  # nothing mid-flight at the horizon / queues at every station
        run_scenario(scenario(scheme, load, **CONFIGS[config]))  # imports, caches
        del built[:]
        gc.collect()
        gc.garbage.clear()
        report = run_scenario(scenario(scheme, load, **CONFIGS[config]))
        (parts,) = built
        assert alive(parts) == [], (load, "kept without the collector")
        heavy, count = cyclic_leftovers()
        assert heavy == []
        if load == 3.0 and "faults" not in config:
            # What is left is waits that timed out during the run (an
            # ``AnyOf`` and the event that never fired), not the teardown.
            assert count < 50
        assert report.offered > 50 and report.violations == 0
    assert collector_off == []


def test_a_fast_lane_run_is_freed_too(built, collector_off):
    lane_on = scenario("adaptive", 3.0, fastlane=True)
    run_scenario(lane_on)
    del built[:]
    report = run_scenario(lane_on)
    (parts,) = built
    assert report.fastlane["demotions"] > 0 and alive(parts) == [] and collector_off == []


@pytest.mark.parametrize("faults", [None, faulty()], ids=["clean", "faults"])
@pytest.mark.parametrize("scheme, load", [("adaptive", 6.0), ("basic_update", 0.2)])
def test_snapshot_drivers_leave_nothing_for_the_collector(built, collector_off, scheme, load, faults):
    base = scenario(scheme, load, faults=faults, obs=SAMPLE_INTERVAL)
    snapshot = run_to_checkpoint(base, 90.0)
    run_from_snapshot(snapshot, seed=11)
    del built[:]
    gc.collect()
    gc.garbage.clear()

    snapshot = run_to_checkpoint(base, 90.0)
    (parts,) = built
    assert alive(parts) == []
    forked = run_from_snapshot(snapshot, seed=11)
    resumed = run_from_snapshot(snapshot)
    assert len(built) == 3 and [alive(parts) for parts in built] == [[], [], []]
    heavy, _ = cyclic_leftovers()
    assert heavy == [] and collector_off == []
    assert rows(resumed) == rows(run_scenario(base)) != rows(forked)


def test_a_wait_that_timed_out_leaves_no_cycle(collector_off):
    # A setup deadline frees the call from a lock request, a round
    # deadline a station from a round's ``done``: neither event will
    # fire, and its ``cancel`` unhooks the ``AnyOf`` that listened on it.
    plan = dataclasses.replace(faulty(), round_deadline=4.0)
    sim = build_simulation(scenario("adaptive", 12.0, faults=plan))
    round_timeouts = []
    sim.env.subscribe("fault.round_timeout", lambda now, p: round_timeouts.append(p))
    report = sim.run()
    sim.close()
    del sim
    gc.collect()
    assert round_timeouts and "queue_timeout" in {r.mode for r in report.metrics.records}
    assert [o for o in gc.garbage if isinstance(o, ConditionEvent)] == []
    assert collector_off == []


def test_a_completed_status_round_is_let_go(collector_off):
    # Neither the round map nor ``_last_status_collector`` keeps a STATUS
    # round once it has completed: it goes by reference counting.
    sim = build_simulation(scenario("adaptive", 12.0))
    rounds = []
    for station in sim.stations.values():
        def recording(round_id, expected, opened=station._status_round):
            collector = opened(round_id, expected)
            rounds.append((weakref.ref(collector), collector.done))
            return collector

        station._status_round = recording
    sim.start()
    sim.env.run(until=150.0)
    completed = [ref for ref, done in rounds if done.processed]
    assert len(completed) > 10
    assert [ref for ref in completed if ref() is not None] == []
    sim.close()
    assert collector_off == []


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_a_closed_simulations_report_is_the_unclosed_ones(scheme):
    base = scenario(scheme, 9.0, faults=faulty(), obs=SAMPLE_INTERVAL)
    sim = build_simulation(base)
    kept = sim.run()
    closed = run_scenario(base)
    assert rows(closed) == rows(kept)
    assert closed.metrics.records == kept.metrics.records and len(kept.metrics.records) > 100
    assert closed.obs.spans == kept.obs.spans and closed.obs.series == kept.obs.series
    # ``Simulation.run`` leaves the simulation whole for its caller ...
    assert sim.env.peek() < float("inf") and sim.network.node(0) is sim.stations[0]
    before = rows(kept), list(kept.metrics.records)
    sim.close()
    sim.close()  # ... and closing it, twice, moves nothing the report holds.
    assert (rows(kept), list(kept.metrics.records)) == before
    assert sim.env.peek() == float("inf") and not sim.env._probes
