"""Scenario execution: build the simulation stack, run it, report.

``run_scenario`` wires together the full system — topology, network,
one MSS per cell (of the configured scheme), traffic source, metrics
and safety monitor — runs it to the scenario horizon, and returns a
:class:`Report` with every quantity the paper's evaluation discusses.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..cellular import CellularTopology, topology_for
from ..metrics import MetricsCollector
from ..protocols import MSS, InterferenceMonitor
from ..sim import (
    DeterministicLatency,
    Environment,
    Network,
    StreamRegistry,
    UniformLatency,
)
from ..traffic import CallConfig, HotspotLoad, PiecewiseLoad, TemporalHotspot, TrafficSource
from .capability import SCHEMES, check_compatible
from .config import Scenario

if TYPE_CHECKING:
    from ..faults import FaultInjector
    from ..obs import ObsData, Observer
    from ..verify import SanitizerSuite

__all__ = ["SCHEMES", "Simulation", "Report", "build_simulation", "run_scenario", "run_replications"]


@dataclass
class Simulation:
    """A fully wired simulation ready to run (useful for custom drivers)."""

    scenario: Scenario
    env: Environment
    topo: CellularTopology
    network: Network
    stations: Dict[int, MSS]
    metrics: MetricsCollector
    monitor: InterferenceMonitor
    source: TrafficSource
    streams: StreamRegistry
    #: Runtime sanitizers (attached when a default policy is active,
    #: e.g. under pytest; None otherwise).
    sanitizers: Optional[SanitizerSuite] = None
    #: Fault injector (present iff the scenario has an enabled plan).
    injector: Optional[FaultInjector] = None
    #: Observability collectors (present iff ``scenario.obs`` is set).
    observer: Optional[Observer] = None

    #: Snapshot fields (see :mod:`repro.snap.state`): the components
    #: with a declaration of their own (not a dataclass field); the
    #: injector's and the observer's classes load with their feature.
    SNAPSHOT = (
        ("network", "network", Network),
        ("metrics", "metrics", MetricsCollector),
        ("monitor", "monitor", InterferenceMonitor),
        ("source", "source", TrafficSource),
        ("injector", "injector", object),
        ("obs", "observer", object),
    )

    def at_warmup(self, wake_at: Optional[float] = None):
        """Process: take the message baseline at the warm-up boundary
        (``wake_at`` re-enters one a snapshot caught still waiting)."""
        if wake_at is None:
            yield self.env.timeout(self.scenario.warmup)
        else:
            yield self.env.timeout_at(wake_at)
        self.metrics.snapshot_message_baseline(self.network)

    def start(self) -> None:
        """Start of every run: arm the warm-up process, start traffic."""
        self.env.process(self.at_warmup())
        self.source.start()

    def run(self) -> "Report":
        """Run to the scenario horizon and build the report."""
        self.start()
        self.env.run(until=self.scenario.duration)
        return Report.from_simulation(self)

    def close(self) -> None:
        """Take a finished simulation apart so that dropping it frees it.

        A simulation is one large reference cycle — queued timeouts and
        the processes parked on them, requests queued on a station's
        lock or waiting for a round, the network and its stations, a
        station and its bound handlers — so without this a dead one
        waits for a full garbage collection while a sweep or a fork
        lane builds the next.  After it, stations, network, source and
        monitor go by reference counting, at any load.

        Call it once nothing will run or read the simulation again:
        ``run_scenario`` and :mod:`repro.snap`'s drivers do, after the
        report (plain data; it keeps only the metrics collector) is
        built.  ``Simulation.run`` does not — its caller still holds
        the simulation to look at.  Order matters: subscribers go first
        so that a closing generator's ``finally:`` emits nothing, the
        network last so that what such a block sends still has an
        address.
        """
        if self.sanitizers is not None:
            self.sanitizers.detach()  # each checker lists its own bound methods
        self.env.close()
        for station in self.stations.values():
            station.close()
        self.env.close()  # what the abandoned requests scheduled on their way out
        self.network.close()


@dataclass
class Report:
    """Everything measured in one run, with paper-aligned accessors."""

    scenario: Scenario
    offered: int
    granted: int
    dropped: int
    drop_rate: float
    new_call_block_rate: float
    handoff_failure_rate: float
    mean_acquisition_time: float
    p95_acquisition_time: float
    max_acquisition_time: float
    mean_queue_wait: float
    mean_attempts: float
    max_attempts: int
    mode_fractions: Dict[str, float]
    messages_total: int
    messages_by_kind: Dict[str, int]
    messages_per_acquisition: float
    fairness_index: float
    per_cell_drop_rates: Dict[int, float]
    violations: int
    mode_changes: int
    calls_started: int
    calls_completed: int
    duration: float
    #: Adaptive-scheme extras: measured average number of borrowing
    #: neighbors at local acquisitions (the paper's N_borrow); 0 for
    #: other schemes.
    measured_n_borrow: float = 0.0
    # Fault-injection accounting (all zero / empty without a plan).
    faults_injected: Dict[str, int] = field(default_factory=dict)
    faults_recovered: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    retry_exhausted: int = 0
    #: Observability data (spans, series, kernel vitals) when the run
    #: was traced; see ``repro.obs``.  Plain data: pickles through the
    #: worker pool and the result cache unchanged.
    obs: Optional[ObsData] = field(repr=False, default=None)
    # Kept for custom post-processing.
    metrics: MetricsCollector = field(repr=False, default=None)

    @classmethod
    def from_simulation(cls, sim: Simulation) -> "Report":
        m = sim.metrics
        stations = sim.stations.values()
        mode_changes = sum(s.mode_changes for s in stations)
        local_acquires = sum(s.local_acquires for s in stations)
        local_notify = sum(s.local_notify_sum for s in stations)
        return cls(
            scenario=sim.scenario,
            **m.summary(),
            messages_total=m.messages_since_warmup(sim.network),
            messages_by_kind=m.messages_by_kind(sim.network),
            messages_per_acquisition=m.messages_per_acquisition(sim.network),
            violations=len(sim.monitor.violations),
            mode_changes=mode_changes,
            calls_started=sim.source.log.started,
            calls_completed=sim.source.log.completed,
            duration=sim.scenario.duration - sim.scenario.warmup,
            measured_n_borrow=(
                local_notify / local_acquires if local_acquires else 0.0
            ),
            faults_injected=dict(m.faults_injected),
            faults_recovered=dict(m.faults_recovered),
            retries=m.retries,
            retry_exhausted=m.retry_exhausted,
            obs=(
                sim.observer.collect() if sim.observer is not None else None
            ),
            metrics=m,
        )

    @property
    def xi(self) -> Dict[str, float]:
        """The paper's (ξ1, ξ2, ξ3) as {'local', 'update', 'search'}."""
        return {
            "local": self.mode_fractions.get("local", 0.0),
            "update": self.mode_fractions.get("update", 0.0),
            "search": self.mode_fractions.get("search", 0.0),
        }

    def summary(self) -> str:
        xi = self.xi
        lines = [
            f"scheme={self.scenario.scheme}  load={self.scenario.offered_load} "
            f"Erlang/cell  seed={self.scenario.seed}",
            f"  requests: {self.offered}  granted: {self.granted}  "
            f"drop rate: {self.drop_rate:.4f} "
            f"(new {self.new_call_block_rate:.4f} / "
            f"handoff {self.handoff_failure_rate:.4f})",
            f"  acquisition time: mean {self.mean_acquisition_time:.3f}  "
            f"p95 {self.p95_acquisition_time:.3f}  "
            f"max {self.max_acquisition_time:.3f} (units of T)",
            f"  messages: {self.messages_total} total, "
            f"{self.messages_per_acquisition:.2f} per request",
            f"  attempts: mean {self.mean_attempts:.2f}  max {self.max_attempts}",
            f"  xi(local/update/search): {xi['local']:.3f} / "
            f"{xi['update']:.3f} / {xi['search']:.3f}",
            f"  fairness index: {self.fairness_index:.4f}  "
            f"violations: {self.violations}",
        ]
        if self.faults_injected:
            lines.append(
                f"  faults: {sum(self.faults_injected.values())} injected, "
                f"{sum(self.faults_recovered.values())} recovered, "
                f"{self.retries} retries "
                f"({self.retry_exhausted} exhausted)"
            )
        return "\n".join(lines)


def default_sanitizer_policy() -> Optional[str]:
    """The process-wide sanitizer policy (:func:`repro.verify.set_default_policy`).

    Only that module sets one, so until something imports it there is
    none, and a run reads it without loading the checkers' package.
    """
    verify = sys.modules.get("repro.verify")
    return None if verify is None else verify.get_default_policy()


def _make_latency(scenario: Scenario, streams: StreamRegistry):
    if scenario.latency_model == "deterministic":
        return DeterministicLatency(scenario.latency_T)
    if scenario.latency_model == "uniform":
        return UniformLatency(
            scenario.latency_T,
            scenario.latency_T + scenario.latency_spread,
            streams.stream("network", "latency"),
        )
    raise ValueError(f"unknown latency model {scenario.latency_model!r}")


def _check_pattern_cells(pattern: Any, grid: Any) -> None:
    """Refuse a load pattern that names a cell the grid does not have."""
    if isinstance(pattern, (HotspotLoad, TemporalHotspot)):
        cells = pattern.hot_cells
    elif isinstance(pattern, PiecewiseLoad):
        cells = pattern.rates
    else:
        return
    outside = sorted(c for c in cells if c not in range(len(grid)))
    if outside:
        raise ValueError(
            f"{type(pattern).__name__} names cells {outside} outside the "
            f"{grid.rows}x{grid.cols} grid (cells 0..{len(grid) - 1})"
        )


def build_simulation(scenario: Scenario) -> Simulation:
    """Construct the full stack for a scenario (without running it)."""
    if scenario.scheme not in SCHEMES:
        raise ValueError(
            f"unknown scheme {scenario.scheme!r}; available: {sorted(SCHEMES)}"
        )
    check_compatible(scenario)
    streams = StreamRegistry(scenario.seed)
    env = Environment()
    topo = topology_for(scenario)
    _check_pattern_cells(scenario.pattern, topo.grid)
    network = Network(env, _make_latency(scenario, streams), fifo=scenario.fifo)
    metrics = MetricsCollector(warmup=scenario.warmup)
    monitor = InterferenceMonitor(topo)
    sanitizer_policy = default_sanitizer_policy()
    sanitizers: Optional[SanitizerSuite] = None
    if sanitizer_policy is not None:
        from ..verify import SanitizerSuite

        sanitizers = SanitizerSuite(env, network, monitor, policy=sanitizer_policy)

    # Fault injection + protocol hardening: wired only for a plan that
    # actually injects something, so a disabled/absent plan runs the
    # original reliable-network code paths event-for-event.
    injector: Optional[FaultInjector] = None
    hardening = None
    plan = scenario.faults
    if plan is not None and plan.enabled:
        from ..faults import FaultInjector, Hardening

        injector = FaultInjector(
            env,
            plan,
            streams,
            network.latency,
            metrics,
        )
        network.injector = injector
        hardening = Hardening.from_plan(plan, network.latency.max_delay)

    cls = SCHEMES[scenario.scheme]
    kwargs: Dict[str, Any] = dict(scenario.extra_params)
    if hardening is not None:
        kwargs["hardening"] = hardening
    for name in cls.SCENARIO_FIELDS:
        value = getattr(scenario, name)
        # A mutable value is copied: the stations must not share the scenario's.
        kwargs.setdefault(name, dict(value) if isinstance(value, dict) else value)

    stations: Dict[int, MSS] = {}
    for cell in topo.grid:
        stations[cell] = cls(
            env, network, topo, cell, metrics=metrics, monitor=monitor, **kwargs
        )
    for station in stations.values():
        station.start()
    if injector is not None:
        injector.install(stations)

    source = TrafficSource(
        env,
        stations,
        scenario.effective_pattern(),
        CallConfig(mean_holding=scenario.mean_holding, mean_dwell=scenario.mean_dwell),
        streams,
        horizon=scenario.duration,
    )

    # Observability: attached last so its probe subscriptions see the
    # fully wired stack.  With no sample interval, nothing here
    # subscribes and the kernel's no-probe fast path stays active.
    observer: Optional[Observer] = None
    if scenario.obs is not None:
        from ..obs import Observer

        observer = Observer(env, stations, scenario.obs, scenario.duration, network)

    return Simulation(
        scenario=scenario,
        env=env,
        topo=topo,
        network=network,
        stations=stations,
        metrics=metrics,
        monitor=monitor,
        source=source,
        streams=streams,
        sanitizers=sanitizers,
        injector=injector,
        observer=observer,
    )


def run_scenario(scenario: Scenario) -> Report:
    """Build and run one scenario; returns its :class:`Report`."""
    sim = build_simulation(scenario)
    try:
        return sim.run()
    finally:
        sim.close()


def run_replications(
    scenario: Scenario,
    n: int,
    workers: Optional[int] = 1,
    cache: Any = None,
) -> List[Report]:
    """Run ``n`` independent replications (seeds seed, seed+1, ...).

    ``workers`` fans replications out over a process pool (``None`` =
    one per CPU) with deterministically ordered results; ``cache``
    controls the persistent result cache (see
    :func:`repro.harness.cache.resolve_cache`).  The warm-start form —
    one run to a checkpoint, every replication forked from it — is
    ``fork_replications(run_to_checkpoint(scenario, t), n)`` (see
    :mod:`repro.snap`).  ``n`` below 1 is a ``ValueError``, raised
    before anything is built.
    """
    # Local import: parallel builds on this module's run_scenario.
    from .parallel import run_cells

    if not n >= 1:
        raise ValueError(f"n must be at least 1, got {n!r}")

    cells = [scenario.with_(seed=scenario.seed + i) for i in range(n)]
    return run_cells(cells, workers=workers, cache=cache)
