"""A finished simulation is freed when its report exists.

``run_scenario``, ``run_from_snapshot`` and ``run_to_checkpoint`` hand
back plain data and call ``Simulation.close()`` on the simulation they
built; with the collector off, the stations, the network, the traffic
source and the monitor must already be gone when they return — at low
load and at saturation, with a fault plan and with ``--trace`` — and
closing must change nothing the report says.  While a run goes on, a
completed STATUS round goes the same way.  What ``MSS.close`` abandons
is what a scheme declares in ``WAITS``: every wait primitive a station
holds mid-flight must be reachable through it.
"""

import copy
import gc
import sys
import weakref

import pytest

from repro.faults import CrashWindow, FaultPlan
from repro.harness import SCHEMES, Scenario, build_simulation, run_scenario, runner
from repro.obs import SAMPLE_INTERVAL
from repro.protocols import MSS
from repro.sim import Collector, ConditionEvent, Gate, Network, Resource
from repro.snap import run_from_snapshot, run_to_checkpoint

from conftest import HOSTILE_FAULTS, report_row

HEAVY = ("network", "source", "monitor", "injector", "observer", "sanitizers")


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
    # Freeing a dropped simulation closes its generators, which leaves
    # garbage for the next pass: collect until a pass finds nothing, or
    # DEBUG_SAVEALL keeps an earlier test's simulation as a leftover.
    while gc.collect():
        pass
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
    assert report_row(resumed) == report_row(run_scenario(base)) != report_row(forked)


def test_a_wait_that_timed_out_leaves_no_cycle(collector_off):
    # A setup deadline frees the call from a lock request, a round
    # deadline a station from a round's ``done``: neither event will
    # fire, and its ``cancel`` unhooks the ``AnyOf`` that listened on it.
    # Cell 10 stays down far longer than the derived round deadline, so
    # the rounds that wait on it time out.
    plan = FaultPlan(
        drop_prob=0.05, dup_prob=0.03, crashes=(CrashWindow(cell=10, at=40.0, downtime=170.0),)
    )
    sim = build_simulation(scenario("adaptive", 16.0, faults=plan))
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
    assert report_row(closed) == report_row(kept)
    assert closed.metrics.records == kept.metrics.records and len(kept.metrics.records) > 100
    assert closed.obs.spans == kept.obs.spans and closed.obs.series == kept.obs.series
    # ``Simulation.run`` leaves the simulation whole for its caller ...
    assert sim.env.peek() < float("inf") and sim.network.node(0) is sim.stations[0]
    before = copy.deepcopy(report_row(kept)), list(kept.metrics.records)
    sim.close()
    sim.close()  # ... and closing it, twice, moves nothing the report holds.
    assert (report_row(kept), list(kept.metrics.records)) == before
    assert sim.env.peek() == float("inf") and not sim.env._probes


def held_waits(station):
    """Every wait primitive in a station's attributes and their dict
    values, by attribute name."""
    for name, held in vars(station).items():
        for wait in held.values() if type(held) is dict else (held,):
            if type(wait) in (Collector, Gate, Resource):
                yield name, wait


def declared_waits(cls):
    return [name for klass in cls.__mro__ for name in vars(klass).get("WAITS", ())]


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_waits_declares_every_wait_a_station_holds(scheme):
    seen = set()
    # Saturated (requests parked on locks, rounds, the gate, STATUS
    # rounds, Prakash transfers) and under the hostile fault plan.
    for overrides in ({"offered_load": 14.0}, {"offered_load": 8.0, "faults": HOSTILE_FAULTS}):
        sim = build_simulation(scenario(scheme, **overrides))
        sim.start()
        for t in range(60, 140, 4):
            sim.env.run(until=t + 0.37)
            for station in sim.stations.values():
                reachable = set()
                for name in declared_waits(type(station)):
                    held = getattr(station, name)
                    reachable.update(map(id, held.values() if type(held) is dict else (held,)))
                for name, wait in held_waits(station):
                    assert id(wait) in reachable, (scheme, name)
                    seen.add(name)
        sim.close()
    added = set(declared_waits(SCHEMES[scheme])) - set(MSS.WAITS)
    assert "_lock" in seen and added <= seen
