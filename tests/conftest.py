"""Shared fixtures and helpers for protocol-level tests.

``make_stack`` builds a minimal live system (env, network, topology,
stations) for a given scheme so tests can drive individual requests
deterministically; ``drive``/``drive_all`` run request generators to
completion inside the event loop.
"""

import dataclasses
import multiprocessing
import os
from types import SimpleNamespace

import pytest

from repro.cellular import CellularTopology
from repro.faults import CrashWindow, FaultPlan, LinkPartition
from repro.harness import Scenario, build_simulation
from repro.metrics import MetricsCollector
from repro.protocols import InterferenceMonitor
from repro.sim import DeterministicLatency, Environment, Network
from repro.verify import SanitizerSuite, set_default_policy


@pytest.fixture(autouse=True, scope="session")
def _enable_sanitizers():
    """Run the whole suite with runtime sanitizers in raise mode.

    Every simulation built through ``repro.harness.build_simulation``
    (and every stack built through ``make_stack``) gets a
    :class:`SanitizerSuite` attached: the deadlock detector, the
    causality/FIFO checker and the quiescence checker all fail loudly
    the moment an invariant breaks anywhere in the test suite.
    """
    previous = set_default_policy("raise")
    yield
    set_default_policy(previous)


@pytest.fixture(autouse=True, scope="session")
def _disable_ambient_result_cache():
    """Keep the suite hermetic: no ``.repro-cache/`` reads or writes.

    Tests that exercise the cache opt in explicitly by passing
    ``cache=`` (a tmp-path-rooted ``ResultCache``) to the harness.
    """
    previous = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = "off"
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE", None)
    else:
        os.environ["REPRO_CACHE"] = previous


@pytest.fixture
def nothing_constructed(monkeypatch):
    """No kernel, no worker process: building either fails the test
    (for asserting that a request was refused before any work)."""

    def touched(*args, **kwargs):
        raise AssertionError("constructed before the validator fired")

    monkeypatch.setattr(Environment, "__init__", touched)
    monkeypatch.setattr(multiprocessing, "get_context", touched)


def make_stack(
    scheme_cls,
    rows: int = 7,
    cols: int = 7,
    num_channels: int = 70,
    T: float = 1.0,
    monitor_policy: str = "raise",
    **mss_kwargs,
):
    """Build a full protocol stack with one MSS per cell."""
    env = Environment()
    topo = CellularTopology(rows, cols, num_channels=num_channels, wrap=True)
    network = Network(env, DeterministicLatency(T))
    metrics = MetricsCollector()
    monitor = InterferenceMonitor(topo, policy=monitor_policy)
    # Runtime sanitizers ride along on every test stack; they observe
    # through the probe bus and raise on any protocol-invariant breach.
    SanitizerSuite(env, network, policy="raise")
    stations = {}
    for cell in topo.grid:
        stations[cell] = scheme_cls(
            env, network, topo, cell, metrics=metrics, monitor=monitor,
            **mss_kwargs,
        )
    for s in stations.values():
        s.start()
    return env, network, topo, stations, monitor, metrics


def drive(env: Environment, generator):
    """Run one request generator to completion, return its value."""
    proc = env.process(generator)
    return env.run(until=proc)


def drive_all(env: Environment, generators):
    """Run several request generators concurrently; return their values."""
    procs = [env.process(g) for g in generators]
    env.run(until=env.all_of(procs))
    return [p.value for p in procs]


# -- capability-table witnesses ---------------------------------------------

#: The hostile fault plan of the lane tests: loss, duplication, delay,
#: two crash windows and a partition, all inside a 160-unit horizon.
#: The crashes keep their state: a cold restart is a known gap of the
#: classic kernel itself (tests/test_fault_restart_safety.py; with state
#: loss, basic_search at 5 Erlang, seed 1 also trips the causality
#: sanitizer's reply_before_request), not a difference between lanes.
HOSTILE_FAULTS = FaultPlan(
    drop_prob=0.05,
    dup_prob=0.03,
    delay_prob=0.05,
    extra_delay=2.0,
    crashes=(
        CrashWindow(cell=10, at=60.0, downtime=30.0, lose_state=False),
        CrashWindow(cell=24, at=100.0, downtime=25.0, lose_state=False),
    ),
    partitions=(LinkPartition(a=3, b=4, start=50.0, end=90.0),),
)


def assert_drains_under_hostile_faults(scheme, seed=1):
    """Every request of ``scheme`` ends, whatever the network loses.

    HOSTILE_FAULTS with cell 10 down for 150 units — longer than the
    ARQ retry budget, so a round towards it can only end by its
    deadline — run to the horizon, then drained with arrivals stopped.
    A round without a deadline leaves its station holding the
    acquisition lock for good.
    """
    long_crash = dataclasses.replace(HOSTILE_FAULTS.crashes[0], downtime=150.0)
    plan = dataclasses.replace(HOSTILE_FAULTS, crashes=(long_crash, HOSTILE_FAULTS.crashes[1]))
    sim = build_simulation(
        Scenario(scheme=scheme, offered_load=6.0, mean_holding=60.0, duration=300.0,
                 warmup=50.0, seed=seed, faults=plan)
    )
    served, ended = set(), set()
    sim.env.subscribe("request.serve", lambda now, p: served.add(p[:2]))
    sim.env.subscribe("request.end", lambda now, p: ended.add(p[:2]))
    sim.start()
    sim.env.run(until=300.0)
    sim.source.horizon = 0
    sim.env.run()
    # No open round, no held acquisition lock: what MSS.snapshot_obstacle names.
    obstacles = {cell: s.snapshot_obstacle() for cell, s in sim.stations.items()}
    assert {cell: why for cell, why in obstacles.items() if why is not None} == {}
    assert served - ended == set()
    assert sim.monitor.violations == []
    sim.sanitizers.finalize()
    sim.sanitizers.assert_clean()


#: feature -> the smallest request that switches it on, for every
#: feature ``repro.harness.capability.CAPABILITIES`` mentions:
#: ``scenario`` (Scenario fields), ``lanes`` / ``source``
#: (``check_compatible`` keywords) and ``argv`` (the same thing said to
#: ``python -m repro``; absent where no flag says it).  The boundary
#: test and the lane oracle in tests/test_lanes.py both build their
#: requests from it, so a feature without a witness fails there.
WITNESS = {
    "classic kernel": dict(argv=[]),
    "fastlane": dict(scenario=dict(fastlane=True), argv=["--fastlane"]),
    "checkpoint": dict(lanes=("checkpoint",), argv=["--checkpoint-at", "100"]),
    "resume": dict(lanes=("resume",), argv=["--from-checkpoint", "no-such.snap"]),
    "fresh run": dict(lanes=("fresh run",), argv=[]),
    "fork seed": dict(lanes=("fork seed",), argv=["--fork-seed", "3"]),
    "workers": dict(lanes=("workers",), argv=["--workers", "2"]),
    "result cache": dict(),
    "all schemes": dict(lanes=("all schemes",), argv=["--all-schemes"]),
    "trace dir": dict(lanes=("trace dir",), argv=["--trace", "trace-out"]),
    "scheme without fluid model": dict(
        scenario=dict(scheme="basic_update"), argv=["--scheme", "basic_update"]
    ),
    "fault plan": dict(scenario=dict(faults=HOSTILE_FAULTS), argv=["--faults", "0.05"]),
    "mobility": dict(scenario=dict(mean_dwell=600.0), argv=["--dwell", "600"]),
    "guard channels": dict(scenario=dict(extra_params={"guard_channels": 2})),
    "TrafficMix": dict(source=SimpleNamespace(mix=object())),
    "obs": dict(scenario=dict(obs=20.0)),
    "random latency": dict(scenario=dict(latency_model="uniform", latency_spread=0.5)),
    "setup deadline": dict(scenario=dict(setup_deadline=10.0)),
    "planar grid": dict(scenario=dict(wrap=False), argv=["--no-wrap"]),
    "unordered links": dict(scenario=dict(fifo=False)),
}


def witness_request(*names, **fields):
    """The witnesses of ``names`` merged into one request, ``fields``
    overriding their Scenario fields: ``(check_compatible keywords, the
    argv saying the same or None where some feature has no flag)``."""
    scenario, argv = {}, []
    request = {"lanes": (), "source": None}
    for name in names:
        witness = WITNESS[name]
        scenario.update(witness.get("scenario", {}))
        request["lanes"] += witness.get("lanes", ())
        request["source"] = witness.get("source", request["source"])
        argv = None if argv is None or "argv" not in witness else argv + witness["argv"]
    scenario.update(fields)
    return dict(request, scenario=Scenario(**scenario)), argv
