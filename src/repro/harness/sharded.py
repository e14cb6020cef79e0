"""Sharded space-parallel scenario execution.

One scenario, many kernels: the hex grid is partitioned into
contiguous row bands (:func:`repro.sim.sharding.plan_shards`), each
band runs a completely ordinary simulation stack — its own
:class:`~repro.sim.engine.Environment`, network, stations, traffic,
metrics, sanitizers — over *its* cells only, and the coordinator here
advances all bands in lockstep time windows.

**Synchronization protocol (conservative, null-message-free).**  The
deterministic latency model gives every message a hard minimum one-way
delay ``T``; with window width ``W = T``, a message sent anywhere in
the window ``[t, t + T)`` delivers no earlier than ``t + T``.  So each
shard can run a whole window in isolation: nothing another shard sent
*during* the window can affect it until the *next* window.  At the
barrier, cross-shard envelopes exported by every shard's
:class:`~repro.sim.sharding.ShardPort` are routed, merge-sorted by
``(deliver_at, sent_at, src, dst, msg_id)`` and injected into their
destination kernels before any kernel enters the next window.
``window_mode="adaptive"`` additionally widens windows across
quiescent stretches — when every kernel's next event and every
in-flight record lie past the next boundary, the barrier jumps ahead
(see :class:`_WindowClock`); results are row-identical either way.

**Determinism.**  Per-cell behavior is driven by per-cell named random
substreams, so a station's local decisions do not depend on which
kernel hosts it.  The merge order reproduces the single-kernel
tie-break for every tie a FIFO fabric produces: same-link ties arrive
in send order (``sent_at`` then ``msg_id``), and same-timestamp
arrivals from different senders — replies to one multicast round —
arrive in ascending source order, matching the protocols' sorted
``IN`` fan-out.  Everything else the interleaving could permute
(metrics aggregation, reply collection) is keyed by cell and
commutative.  ``shards=N`` is therefore row-identical to ``shards=1``;
the test suite asserts this per scheme, under faults, and with the
sanitizer suite raising.

**Correctness oracles.**  Each shard runs the full sanitizer suite;
the vector-clock checker is re-primed across the boundary via the
``shard.recv`` probe, so FIFO/causal-delivery checking spans shards.
Cross-shard co-channel interference (invisible to the per-shard
monitors) is checked after the run by replaying the frontier cells'
``channel.acquired``/``channel.released`` logs against the topology.

**Scope.**  What may be sharded — and why a non-deterministic latency
model, mobility, the fast lane and a mid-run snapshot may not — is the
``shards`` column of ``docs/CAPABILITIES.md``, generated from
:mod:`repro.harness.capability`.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cellular import CellularTopology, topology_for
from ..metrics import AcquisitionRecord, MetricsCollector
from ..obs import ObsData
from ..sim import RemoteRecord, ShardPlan, ShardPort, plan_shards
from ..verify import get_default_policy, set_default_policy
from .capability import check_compatible
from .config import Scenario
from .runner import Report, build_simulation

__all__ = [
    "ShardResult",
    "run_sharded",
    "run_sharded_results",
    "merge_shard_results",
]

#: One frontier-cell usage event: (time, op, cell, channel) with
#: op 0 = release, 1 = acquire — tuple order sorts releases first at
#: equal times, the conservative choice for the safety replay.
_Usage = Tuple[float, int, int, int]


@dataclass
class ShardResult:
    """Everything one shard measured, reduced to plain picklable data."""

    shard: int
    records: List[AcquisitionRecord] = field(default_factory=list)
    releases: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    faults_recovered: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    retry_exhausted: int = 0
    #: Messages sent since warmup by this shard's stations.
    messages_total: int = 0
    messages_by_kind: Dict[str, int] = field(default_factory=dict)
    mode_changes: int = 0
    local_acquires: int = 0
    local_notify: int = 0
    #: Intra-shard interference violations (local monitor).
    violations: int = 0
    calls_started: int = 0
    calls_completed: int = 0
    #: Frontier-cell channel usage log for the cross-shard replay.
    usage: List[_Usage] = field(default_factory=list)
    #: Envelopes exported to other shards.
    exported: int = 0
    #: Events this shard's kernel processed (includes one window-stop
    #: event per window — diagnostic, not a parity quantity).
    processed_events: int = 0
    #: Synchronization windows this shard ran (same for every shard of
    #: a run).  Under ``window_mode="adaptive"`` this is the quantity
    #: the null-message optimization shrinks; under ``"fixed"`` it is
    #: ``ceil(duration / T)``.
    windows: int = 0
    #: CPU seconds this shard's stack spent (build + all windows).  In
    #: process mode this is per worker process, so ``max(cpu_s)`` over
    #: shards approximates the run's critical path; in inline mode all
    #: shards share one process and the split is not meaningful.
    cpu_s: float = 0.0
    obs: Optional[ObsData] = None


class _ShardRun:
    """One shard's live stack plus its window-stepping interface."""

    def __init__(
        self, scenario: Scenario, plan: ShardPlan, shard: int
    ) -> None:
        self._cpu0 = time.process_time()
        self.scenario = scenario
        self.plan = plan
        self.shard = shard
        self.port = ShardPort(shard, plan.owner)
        sim = build_simulation(
            scenario, cells=plan.cells_of(shard), shard_port=self.port
        )
        self.sim = sim
        if sim.sanitizers is not None:
            stamps = sim.sanitizers.vector_clock._stamps
            self.port.stamp_of = lambda seq: stamps.pop(seq, None)
        #: Windows advanced so far (mirrors the coordinator's count).
        self.windows = 0
        #: Frontier-cell usage log (empty when the shard has no
        #: frontier, i.e. shards=1).
        self.usage: List[_Usage] = []
        frontier = frozenset(plan.frontier_of(shard))
        if frontier:
            env = sim.env
            usage = self.usage

            def on_acquired(now: float, payload: Tuple[int, int]) -> None:
                cell, channel = payload
                if cell in frontier:
                    usage.append((now, 1, cell, channel))

            def on_released(now: float, payload: Tuple[int, int]) -> None:
                cell, channel = payload
                if cell in frontier:
                    usage.append((now, 0, cell, channel))

            env.subscribe("channel.acquired", on_acquired)
            env.subscribe("channel.released", on_released)
        sim.start()

    def inject(self, records: Sequence[RemoteRecord]) -> None:
        network = self.sim.network
        for record in records:
            network.inject_remote(record)

    def advance(self, until: float) -> None:
        self.windows += 1
        self.sim.env.run(until=until)

    def drain(self) -> List[RemoteRecord]:
        return self.port.drain()

    def peek(self) -> float:
        """Time of this kernel's next pending event (``inf`` if idle).

        Read at the barrier, after :meth:`drain` — the coordinator's
        adaptive window widening needs the earliest instant at which
        any kernel can act.
        """
        return self.sim.env.peek()

    def result(self) -> ShardResult:
        sim = self.sim
        m = sim.metrics
        stations = sim.stations.values()
        return ShardResult(
            shard=self.shard,
            records=list(m.records),
            releases=m.releases,
            faults_injected=dict(m.faults_injected),
            faults_recovered=dict(m.faults_recovered),
            retries=m.retries,
            retry_exhausted=m.retry_exhausted,
            messages_total=m.messages_since_warmup(sim.network),
            messages_by_kind=m.messages_by_kind(sim.network),
            mode_changes=sum(getattr(s, "mode_changes", 0) for s in stations),
            local_acquires=sum(
                getattr(s, "local_acquires", 0) for s in stations
            ),
            local_notify=sum(
                getattr(s, "local_notify_sum", 0) for s in stations
            ),
            violations=len(sim.monitor.violations),
            calls_started=sim.source.log.started,
            calls_completed=sim.source.log.completed,
            usage=self.usage,
            exported=self.port.exported,
            processed_events=sim.env._eid - len(sim.env._queue),
            windows=self.windows,
            cpu_s=time.process_time() - self._cpu0,
            obs=(
                sim.observer.collect() if sim.observer is not None else None
            ),
        )


# -- window loop -----------------------------------------------------------


class _WindowClock:
    """Window-boundary sequencer for the coordinator loops.

    Boundaries always lie on the ``k * T`` grid, computed as ``k * T``
    (not accumulated) so float drift cannot desynchronize shards from
    the classic kernel's idea of, e.g., the warmup instant.

    ``mode="fixed"`` steps one grid point per window: ``1*T, 2*T, ...``
    capped at ``duration``.

    ``mode="adaptive"`` is the null-message optimization: at each
    barrier the coordinator knows ``low`` — the earliest instant
    anything can happen anywhere (min over every kernel's
    :meth:`_ShardRun.peek` and the ``deliver_at`` of every routed
    record still in flight).  No kernel processes an event before
    ``low``, so nothing is *sent* before ``low``, so nothing can
    *deliver* before ``low + T`` — any grid boundary ``b <= low + T``
    is as safe as the fixed step.  The clock jumps to the largest such
    boundary, collapsing quiescent stretches (call holds, idle traffic
    gaps with no cross-shard borrowing in flight) into one window.

    Windows under both modes process the identical sim-event sequence:
    a window stop is a priority ``-1`` event (ahead of every sim event
    at its time) and consumes one event id *between* windows, shifting
    all later sim-event ids uniformly — relative id order, the only
    thing heap tie-breaking reads, is unchanged.  ``adaptive`` is
    therefore row-identical to ``fixed``; the suite asserts it.
    """

    def __init__(self, duration: float, T: float, mode: str) -> None:
        if mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown window mode {mode!r}")
        self.duration = duration
        self.T = T
        self.adaptive = mode == "adaptive"
        self.k = 0
        self.t = 0.0
        #: Windows issued (for the bench's null-message accounting).
        self.windows = 0

    def next(self, low: float) -> Optional[float]:
        """Advance to the next window end, or ``None`` when done.

        ``low`` is the earliest pending instant across the whole run
        (``inf`` when fully quiescent); pass ``0.0`` for the first
        window, before any kernel state exists to inspect.
        """
        if self.t >= self.duration:
            return None
        k = self.k + 1
        if self.adaptive and low > k * self.T:
            if low >= self.duration:
                # Nothing pending before the horizon: one last window.
                k = max(k, int(self.duration // self.T) + 1)
            else:
                wide = int(low // self.T) + 1
                # Guard the conservative bound (wide-1)*T <= low against
                # float division rounding low/T up across a grid point.
                while wide > k and (wide - 1) * self.T > low:
                    wide -= 1
                k = max(k, wide)
        self.k = k
        self.t = min(k * self.T, self.duration)
        self.windows += 1
        return self.t


def _windows(duration: float, T: float):
    """Yield the fixed-mode window ends ``1*T, 2*T, ...`` capped at
    ``duration`` — the reference schedule adaptive mode must refine
    (every adaptive boundary is one of these)."""
    clock = _WindowClock(duration, T, "fixed")
    until = clock.next(0.0)
    while until is not None:
        yield until
        until = clock.next(0.0)


def _in_flight_low(pending: Sequence[Sequence[RemoteRecord]]) -> float:
    """Earliest delivery among routed-but-uninjected records."""
    return min(
        (record.deliver_at for bucket in pending for record in bucket),
        default=float("inf"),
    )


def _route(
    plan: ShardPlan, drains: Sequence[Sequence[RemoteRecord]]
) -> List[List[RemoteRecord]]:
    """Group drained records by destination shard, in merge order."""
    buckets: List[List[RemoteRecord]] = [[] for _ in range(plan.shards)]
    owner = plan.owner
    for drained in drains:
        for record in drained:
            buckets[owner[record.dst]].append(record)
    for bucket in buckets:
        # Payloads are excluded from the key: the five leading fields
        # already totally order every record one run can produce.
        bucket.sort(key=lambda r: r[:5])
    return buckets


def _run_inline(
    scenario: Scenario, plan: ShardPlan, window_mode: str = "fixed"
) -> List[ShardResult]:
    """All shards in this process, round-robin per window.

    Exactly the protocol of the process mode minus the transport —
    kept as the reference implementation (and the fast path for tests,
    which care about parity, not wall-clock).
    """
    clock = _WindowClock(scenario.duration, scenario.latency_T, window_mode)
    runs = [_ShardRun(scenario, plan, s) for s in range(plan.shards)]
    pending: List[List[RemoteRecord]] = [[] for _ in runs]
    until = clock.next(0.0)
    while until is not None:
        drains = []
        for run, records in zip(runs, pending):
            run.inject(records)
            run.advance(until)
            drains.append(run.drain())
        pending = _route(plan, drains)
        low = min(
            min(run.peek() for run in runs),
            _in_flight_low(pending),
        )
        until = clock.next(low)
    return [run.result() for run in runs]


def _shard_worker(
    conn: Any,
    scenario: Scenario,
    plan: ShardPlan,
    shard: int,
    policy: Optional[str],
) -> None:
    """Spawn-safe worker: one shard kernel driven over a pipe.

    Protocol: parent sends ``("window", until, records)`` per window
    and finally ``("finish",)``; the worker answers ``("drained",
    records, peek)`` per window — ``peek`` is the kernel's next event
    time, feeding the coordinator's adaptive window widening — and
    ``("result", ShardResult)`` at the end.  Any exception is shipped
    back as ``("error", traceback)``.
    """
    try:
        if get_default_policy() != policy:
            set_default_policy(policy)
        run = _ShardRun(scenario, plan, shard)
        conn.send(("ready",))
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "window":
                _, until, records = message
                run.inject(records)
                run.advance(until)
                conn.send(("drained", run.drain(), run.peek()))
            elif tag == "finish":
                conn.send(("result", run.result()))
                return
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown coordinator message {tag!r}")
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


def _expect(conn: Any, shard: int, tag: str) -> Tuple[Any, ...]:
    message = conn.recv()
    if message[0] == "error":
        raise RuntimeError(
            f"shard {shard} failed:\n{message[1]}"
        )
    if message[0] != tag:
        raise RuntimeError(
            f"shard {shard}: expected {tag!r}, got {message[0]!r}"
        )
    return message


def _run_process(
    scenario: Scenario, plan: ShardPlan, window_mode: str = "fixed"
) -> List[ShardResult]:
    """One worker process per shard, barrier-synchronized over pipes."""
    clock = _WindowClock(scenario.duration, scenario.latency_T, window_mode)
    ctx = multiprocessing.get_context("spawn")
    policy = get_default_policy()
    conns = []
    procs = []
    try:
        for shard in range(plan.shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(child_conn, scenario, plan, shard, policy),
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        for shard, conn in enumerate(conns):
            _expect(conn, shard, "ready")
        pending: List[List[RemoteRecord]] = [[] for _ in conns]
        until = clock.next(0.0)
        while until is not None:
            for conn, records in zip(conns, pending):
                conn.send(("window", until, records))
            replies = [
                _expect(conn, shard, "drained")
                for shard, conn in enumerate(conns)
            ]
            pending = _route(plan, [reply[1] for reply in replies])
            low = min(
                min(reply[2] for reply in replies),
                _in_flight_low(pending),
            )
            until = clock.next(low)
        results = []
        for shard, conn in enumerate(conns):
            conn.send(("finish",))
            results.append(_expect(conn, shard, "result")[1])
        return results
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join()


# -- merging ---------------------------------------------------------------


def _cross_shard_violations(
    topo: CellularTopology, plan: ShardPlan, usage: List[_Usage]
) -> int:
    """Replay the merged frontier usage log; count boundary violations.

    Only pairs owned by *different* shards are counted — same-shard
    pairs were already checked live by that shard's monitor.  At equal
    times releases replay before acquires (the log's tuple order), the
    conservative direction: a reuse that is legal under any
    interleaving is never flagged.
    """
    usage = sorted(usage)
    holders: Dict[int, set] = {}
    owner = plan.owner
    count = 0
    for _time, op, cell, channel in usage:
        users = holders.setdefault(channel, set())
        if op == 0:
            users.discard(cell)
            continue
        shard = owner[cell]
        region = topo.IN(cell)
        for other in users:
            if other in region and owner[other] != shard:
                count += 1
        users.add(cell)
    return count


def _merge_obs(parts: List[Optional[ObsData]]) -> Optional[ObsData]:
    """Combine per-shard ObsData into one run-level container.

    Spans/instants are concatenated and re-sorted on stable domain
    keys; the per-cell time series merge on their (disjoint) cell
    keys; kernel vitals are per-kernel by nature and nest under a
    ``"shards"`` list.
    """
    present = [p for p in parts if p is not None]
    if not present:
        return None
    out = ObsData(config=dict(present[0].config))
    spans: List[Dict[str, Any]] = []
    open_spans: List[Dict[str, Any]] = []
    instants: List[List[Any]] = []
    for part in present:
        spans.extend(part.spans)
        open_spans.extend(part.open_spans)
        instants.extend(part.instants)
        for key, value in part.span_stats.items():
            out.span_stats[key] = out.span_stats.get(key, 0) + value
    spans.sort(key=lambda s: (s.get("t_begin") or 0.0, s.get("cell", -1)))
    open_spans.sort(key=lambda s: (s.get("cell", -1), s.get("t_begin") or 0.0))
    instants.sort(key=lambda i: (i[0], str(i[1]), str(i[2])))
    out.spans = spans
    out.open_spans = open_spans
    out.instants = instants
    with_series = [p for p in present if p.series]
    if with_series:
        first = with_series[0].series
        times = max(
            (p.series.get("times", []) for p in with_series), key=len
        )
        cells: Dict[Any, Any] = {}
        for part in with_series:
            cells.update(part.series.get("cells", {}))
        out.series = {
            "interval": first.get("interval"),
            "times": times,
            "cells": cells,
        }
    kernels = [p.kernel for p in present if p.kernel]
    if kernels:
        out.kernel = {"shards": kernels}
    return out


def merge_shard_results(
    scenario: Scenario,
    plan: ShardPlan,
    results: List[ShardResult],
) -> Report:
    """Fold per-shard results into one :class:`Report`.

    Every merged quantity is either a sum over shards, an
    order-insensitive statistic over the concatenated acquisition
    records, or the cross-shard safety replay — so the merge is
    deterministic for any shard count.
    """
    merged = MetricsCollector(warmup=scenario.warmup)
    for result in results:
        merged.records.extend(result.records)
        merged.releases += result.releases
        merged.retries += result.retries
        merged.retry_exhausted += result.retry_exhausted
        for kind, n in sorted(result.faults_injected.items()):
            merged.faults_injected[kind] = (
                merged.faults_injected.get(kind, 0) + n
            )
        for kind, n in sorted(result.faults_recovered.items()):
            merged.faults_recovered[kind] = (
                merged.faults_recovered.get(kind, 0) + n
            )
    merged.records.sort(key=lambda r: (r.time, r.cell))

    messages_total = sum(r.messages_total for r in results)
    by_kind: Dict[str, int] = {}
    for result in results:
        for kind, n in result.messages_by_kind.items():
            by_kind[kind] = by_kind.get(kind, 0) + n
    by_kind = dict(sorted(by_kind.items()))

    violations = sum(r.violations for r in results)
    usage = [u for r in results for u in r.usage]
    if usage and plan.shards > 1:
        violations += _cross_shard_violations(
            topology_for(scenario), plan, usage
        )

    local_acquires = sum(r.local_acquires for r in results)
    local_notify = sum(r.local_notify for r in results)
    return Report(
        scenario=scenario,
        **merged.summary(),
        messages_total=messages_total,
        messages_by_kind=by_kind,
        messages_per_acquisition=(
            messages_total / merged.offered if merged.offered else 0.0
        ),
        violations=violations,
        mode_changes=sum(r.mode_changes for r in results),
        calls_started=sum(r.calls_started for r in results),
        calls_completed=sum(r.calls_completed for r in results),
        duration=scenario.duration - scenario.warmup,
        measured_n_borrow=(
            local_notify / local_acquires if local_acquires else 0.0
        ),
        faults_injected=dict(merged.faults_injected),
        faults_recovered=dict(merged.faults_recovered),
        retries=merged.retries,
        retry_exhausted=merged.retry_exhausted,
        obs=_merge_obs([r.obs for r in results]),
        metrics=merged,
    )


def run_sharded_results(
    scenario: Scenario,
    shards: int,
    mode: str = "process",
    window_mode: str = "fixed",
) -> Tuple[ShardPlan, List[ShardResult]]:
    """Run sharded and return the raw per-shard results (unmerged).

    For callers that want per-shard diagnostics — the bench driver
    reads ``cpu_s`` per worker to compute the critical-path speedup
    and ``windows`` to account for the null-message optimization —
    before folding into a :class:`Report` via
    :func:`merge_shard_results`.
    """
    check_compatible(scenario, lanes=("shards",))
    plan = plan_shards(topology_for(scenario), shards)
    if mode == "inline" or plan.shards == 1:
        return plan, _run_inline(scenario, plan, window_mode)
    if mode == "process":
        return plan, _run_process(scenario, plan, window_mode)
    raise ValueError(f"unknown shard mode {mode!r}")


def run_sharded(
    scenario: Scenario,
    shards: int,
    mode: str = "process",
    window_mode: str = "fixed",
) -> Report:
    """Run one scenario over ``shards`` conservatively synced kernels.

    ``mode="process"`` (the default, and what ``run_scenario(...,
    shards=N)`` uses) runs one spawn-context worker process per shard;
    ``mode="inline"`` runs every shard kernel in this process with the
    same window/merge protocol — bit-identical results, no spawn cost,
    no parallelism (used by the parity tests and as the reference
    implementation of the protocol).

    ``window_mode="adaptive"`` turns on the null-message optimization
    (see :class:`_WindowClock`): barriers are skipped across quiescent
    stretches where no kernel has a pending event and no cross-shard
    message is in flight.  Row-identical to ``"fixed"`` — only the
    number of barriers (and hence sync overhead) changes.
    """
    plan, results = run_sharded_results(
        scenario, shards, mode=mode, window_mode=window_mode
    )
    return merge_shard_results(scenario, plan, results)
