"""Live-state capture and re-application — the snapshot state codec.

:func:`capture_state` walks a running :class:`~repro.harness.runner
.Simulation` and produces a plain-data dict (JSON-safe through
:mod:`repro.snap.format`) describing everything the kernel would need
to continue the run bit-for-bit: RNG substream states, network
counters, in-flight envelopes, per-MSS protocol state for all six
schemes, ARQ windows and dedup filters, metrics/monitor/obs
accumulators, and a descriptor for every live event-queue entry.
:func:`apply_state` replays that dict onto a *freshly built* simulation
of the same scenario (restore-via-rebuild: static wiring comes from
``build_simulation``, only dynamic state is applied).

Safe points
-----------
Generator frames cannot be serialized, so capture only succeeds at a
**safe point**: no protocol round in flight, no process suspended
inside ``request_channel``, nothing parked on a gate or collector.
Call/arrival/crash/sampler processes suspended on plain timeouts *are*
capturable — each becomes a small descriptor, re-materialized at
restore as a purpose-built "resumed" generator that replays the rest
of the original control flow (same RNG draw order, same counters); a
call is re-entered through ``call_process``'s own ``resume`` argument.
Anything else raises :class:`UnsafeState`; the drain loop in
:func:`repro.snap.run_to_checkpoint` steps the kernel one event and
retries, so a checkpoint lands on the first safe point at or after the
requested instant.

Determinism
-----------
Queue descriptors are captured in heap order ``(when, priority, eid)``
and re-materialized in exactly that order with fresh ascending event
ids, so every same-time tie breaks identically after restore.  By
induction the restored kernel processes the same events in the same
order as the original — the restore-determinism tests assert full-run
row identity on every scheme.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..core.adaptive import Mode
from ..faults.arq import Ack, ReliableLink, _Pending
from ..obs.spans import Span
from ..protocols.messages import (
    AcqType,
    Acquisition,
    ChangeMode,
    Donate,
    Release,
    ReqType,
    Request,
    ResType,
    Response,
    Solicit,
)
from ..protocols.prakash import PollResponse, Transfer, TransferReply
from ..sim.events import NORMAL, PENDING, ConditionEvent, Process
from ..sim.network import Envelope
from ..sim.resources import Collector
from ..metrics.collector import AcquisitionRecord
from ..traffic.calls import call_process
from .format import SnapshotError

__all__ = ["UnsafeState", "capture_state", "apply_state"]

#: The locals of a suspended ``call_process`` frame a call descriptor is
#: read from: origin cell, serving station, held channel, holding time
#: left after the wake, handoffs attempted so far.
CALL_FRAME_LOCALS = ("cell", "mss", "channel", "remaining", "handoffs")


class UnsafeState(Exception):
    """The simulation is not at a snapshot-safe point.

    Internal control-flow signal: :func:`capture_state` raises it when
    a protocol round, resource acquisition, or other transient exchange
    is mid-flight; ``run_to_checkpoint`` catches it, steps the kernel
    one event, and retries.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Payload codec
# ---------------------------------------------------------------------------
#
# Every message class that can sit in an in-flight envelope or an ARQ
# queue, by class name, with its constructor field order.  Enum-typed
# fields are stored as ints and coerced back on decode.

_PAYLOADS: Dict[str, Tuple[type, Tuple[str, ...]]] = {
    "Request": (Request, ("req_type", "channel", "ts", "sender", "round_id")),
    "Response": (Response, ("res_type", "sender", "payload", "round_id")),
    "ChangeMode": (ChangeMode, ("mode", "sender", "round_id")),
    "Acquisition": (Acquisition, ("acq_type", "sender", "channel")),
    "Release": (Release, ("sender", "channel")),
    "Solicit": (Solicit, ("sender", "need")),
    "Donate": (Donate, ("sender", "channels")),
    "PollResponse": (PollResponse, ("sender", "allocated", "busy", "round_id")),
    "Transfer": (Transfer, ("sender", "channel", "ts", "round_id")),
    "TransferReply": (TransferReply, ("sender", "channel", "granted", "round_id")),
    "Ack": (Ack, ("msg_id",)),
}

_ENUM_FIELDS = {"req_type": ReqType, "res_type": ResType, "acq_type": AcqType}

#: Reply payloads (answers to a previously processed round) — used to
#: re-open causality-checker rounds for messages still queued at restore.
_REPLY_TYPES = (Response, PollResponse, TransferReply)


def _encode_payload(payload: Any) -> List[Any]:
    name = type(payload).__name__
    entry = _PAYLOADS.get(name)
    if entry is None:
        raise UnsafeState(f"unknown payload type {name!r} in flight")
    _, fields = entry
    return [name, [getattr(payload, field) for field in fields]]


def _decode_payload(record: Any) -> Any:
    name, values = record
    cls, fields = _PAYLOADS[name]
    kwargs = {}
    for field, value in zip(fields, values):
        enum_cls = _ENUM_FIELDS.get(field)
        if enum_cls is not None:
            value = enum_cls(value)
        kwargs[field] = value
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------


def capture_state(sim: Any) -> Dict[str, Any]:
    """Extract a plain-data description of ``sim``'s dynamic state.

    Raises :class:`UnsafeState` if the simulation (with a started
    traffic source) is not at a safe point.  For a never-started
    simulation the event queue is not captured (``"queue": None``) —
    restore is a plain rebuild and the caller runs the normal start
    choreography.
    """
    started = bool(getattr(sim.source, "_started", False))
    state: Dict[str, Any] = {
        "env": {"now": float(sim.env._now)},
        "streams": _capture_streams(sim.streams),
        "network": _capture_network(sim.network),
        "metrics": _capture_metrics(sim.metrics),
        "monitor": _capture_monitor(sim.monitor),
        "source": _capture_source(sim.source),
        "stations": {
            str(cell): _capture_station(station)
            for cell, station in sorted(sim.stations.items())
        },
        "injector": _capture_injector(sim.injector),
        "obs": _capture_obs(sim.observer),
    }
    if started:
        _scan_stations(sim)
        state["queue"] = _classify_queue(sim)
    else:
        state["queue"] = None
    return state


def _capture_streams(streams: Any) -> Dict[str, Any]:
    return {
        key: gen.bit_generator.state
        for key, gen in sorted(streams._cache.items())
    }


def _capture_network(network: Any) -> Dict[str, Any]:
    return {
        "last_delivery": dict(network._last_delivery),
        "msg_id": network._msg_id,
        "total_sent": network.total_sent,
        "sent_by_kind": dict(network.sent_by_kind),
    }


def _capture_metrics(metrics: Any) -> Dict[str, Any]:
    return {
        "records": [list(r) for r in metrics.records],
        "releases": metrics.releases,
        "message_baseline": dict(metrics._message_baseline),
        "message_baseline_total": metrics._message_baseline_total,
        "baseline_taken": metrics._baseline_taken,
        "faults_injected": dict(metrics.faults_injected),
        "faults_recovered": dict(metrics.faults_recovered),
        "retries": metrics.retries,
        "retry_exhausted": metrics.retry_exhausted,
    }


def _capture_monitor(monitor: Any) -> Optional[Dict[str, Any]]:
    if monitor is None:
        return None
    return {
        "users": {ch: set(users) for ch, users in sorted(monitor.users.items())},
        "violations": [
            [v.time, v.channel, v.cell, v.conflicting_cell]
            for v in monitor.violations
        ],
        "total_acquisitions": monitor.total_acquisitions,
        "total_releases": monitor.total_releases,
        "max_concurrent_users": monitor.max_concurrent_users,
        "active": monitor._active,
    }


def _capture_source(source: Any) -> Dict[str, Any]:
    if source.mix is not None:
        raise UnsafeState("multi-class TrafficMix sources are not snapshotable")
    log = source.log
    return {
        "log": {
            "started": log.started,
            "blocked": log.blocked,
            "completed": log.completed,
            "handoffs_attempted": log.handoffs_attempted,
            "handoffs_failed": log.handoffs_failed,
        },
    }


def _capture_injector(injector: Any) -> Optional[Dict[str, Any]]:
    if injector is None:
        return None
    return {
        "down": set(injector.down),
        "injected": dict(injector.injected),
    }


def _capture_link(link: Optional[ReliableLink]) -> Optional[Dict[str, Any]]:
    if link is None:
        return None
    return {
        "down": link.down,
        "pending": {
            msg_id: [p.dst, _encode_payload(p.payload), p.attempt]
            for msg_id, p in sorted(link._pending.items())
        },
        "inflight": dict(link._inflight),
        "queue": {
            dst: [_encode_payload(p) for p in q]
            for dst, q in sorted(link._queue.items())
            if q
        },
        "retransmissions": link.retransmissions,
        "recovered": link.recovered,
        "exhausted": link.exhausted,
    }


def _capture_dedup(dedup: Any) -> Optional[Dict[str, Any]]:
    if dedup is None:
        return None
    return {
        "seen": {src: list(order) for src, (_seen, order) in sorted(dedup._seen.items())},
        "suppressed": dedup.suppressed,
    }


def _capture_station(st: Any) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        "scheme": type(st).__name__,
        "use": set(st.use),
        "down": st.down,
        "crash_released": st._crash_released,
        "round_counter": st._round_counter,
        "req_seq": st._req_seq,
        "req_kind": st._req_kind,
        "alias": {ch: list(q) for ch, q in sorted(st._alias.items())},
        "grant_mode": getattr(st, "_grant_mode", None),
        "link": _capture_link(st._link),
        "dedup": _capture_dedup(st._dedup),
    }
    name = data["scheme"]
    if name == "AdaptiveMSS":
        last_status = None
        for rid, collector in st._status_collectors.items():
            if collector is st._last_status_collector:
                last_status = rid
                break
        data.update({
            "mode": int(st.mode),
            # ``peek``: reading must not materialize untouched mirrors.
            "U": {j: set(st.U.peek(j)) for j in st.IN},
            "granted_out": {j: set(st.granted_out.peek(j)) for j in st.IN},
            "UpdateS": set(st.UpdateS),
            "owed_acks": dict(st._owed_acks),
            "rounds": st.rounds,
            "policy": st.policy.state_dict(),
            "collector_round": st._collector_round,
            "status_collectors": {
                rid: [sorted(c._expected), dict(c._responses)]
                for rid, c in sorted(st._status_collectors.items())
            },
            "last_status": last_status,
            "mode_changes": st.mode_changes,
            "stale_responses": st.stale_responses,
            "local_acquires": st.local_acquires,
            "local_notify_sum": st.local_notify_sum,
            "repacks": st.repacks,
            "best_rng": (
                st._best_rng.bit_generator.state
                if st._best_rng is not None
                else None
            ),
        })
    elif name == "BasicSearchMSS":
        data["collector_round"] = st._collector_round
    elif name == "BasicUpdateMSS":
        data["U"] = {j: set(st.U[j]) for j in sorted(st.U)}
        data["collector_round"] = st._collector_round
    elif name == "AdvancedUpdateMSS":
        data["U"] = {j: set(st.U[j]) for j in sorted(st.U)}
        data["outstanding"] = {
            ch: tuple(entry) for ch, entry in sorted(st.outstanding.items())
        }
        data["collector_round"] = st._collector_round
    elif name == "PrakashMSS":
        data["allocated"] = set(st.allocated)
        data["pledged"] = set(st.pledged)
        data["collector_round"] = st._collector_round
        data["transfer_round"] = st._transfer_round
    elif name != "FixedMSS":
        raise SnapshotError(f"unknown station scheme {name!r}")
    return data


def _capture_obs(observer: Any) -> Optional[Dict[str, Any]]:
    if observer is None:
        return None
    data: Dict[str, Any] = {"tracer": None, "recorder": None, "profiler": None}
    tracer = observer.tracer
    if tracer is not None:
        data["tracer"] = {
            "closed": [_capture_span(s) for s in tracer.closed],
            "open": {key: _capture_span(s) for key, s in sorted(tracer.open.items())},
            "serving": dict(tracer._serving),
            "instants": [tuple(i) for i in tracer.instants],
            "stats": dict(tracer.stats),
        }
    recorder = observer.recorder
    if recorder is not None:
        data["recorder"] = {
            "times": list(recorder.times),
            "occupancy": {c: list(v) for c, v in sorted(recorder.occupancy.items())},
            "mode": {c: list(v) for c, v in sorted(recorder.mode.items())},
            "nfc_predicted": {
                c: list(v) for c, v in sorted(recorder.nfc_predicted.items())
            },
            "neighborhood_load": {
                c: list(v) for c, v in sorted(recorder.neighborhood_load.items())
            },
        }
    profiler = observer.profiler
    if profiler is not None:
        data["profiler"] = {
            "sim_times": list(profiler.sim_times),
            "events": list(profiler.events),
            "heap_depth": list(profiler.heap_depth),
            "wall": list(profiler.wall),
            "cpu": list(profiler.cpu),
            "messages_by_kind": [dict(m) for m in profiler.messages_by_kind],
        }
    return data


def _capture_span(span: Span) -> Dict[str, Any]:
    return {
        "cell": span.cell,
        "req_id": span.req_id,
        "kind": span.kind,
        "t_begin": span.t_begin,
        "t_serve": span.t_serve,
        "t_end": span.t_end,
        "channel": span.channel,
        "events": [tuple(e) for e in span.events],
    }


# ---------------------------------------------------------------------------
# Safe-point detection
# ---------------------------------------------------------------------------


def _scan_stations(sim: Any) -> None:
    """Raise :class:`UnsafeState` if any station holds transient state.

    The queue walk alone is not sufficient: the advanced-update,
    prakash, and adaptive schemes park request generators on bare
    untriggered events (collector ``done``, the waiting gate) that have
    *no* queue entry until they fire — so mid-round state is detected
    here, from the stations' own bookkeeping.
    """
    for cell, st in sorted(sim.stations.items()):
        def unsafe(what: str) -> None:
            raise UnsafeState(f"cell {cell}: {what}")

        if st._lock._in_use != 0 or st._lock._queue:
            unsafe("channel request holds the acquisition lock")
        if getattr(st, "_req_ts", None) is not None:
            unsafe("adaptive request in flight")
        if getattr(st, "_collector", None) is not None:
            unsafe("response round in flight")
        if getattr(st, "_transfer_collector", None) is not None:
            unsafe("transfer round in flight")
        if getattr(st, "_pending", None) is not None:
            unsafe("update-round grab pending")
        if getattr(st, "_searching", False):
            unsafe("search in flight")
        if getattr(st, "_search_ts", None) is not None:
            unsafe("search timestamp live")
        if getattr(st, "_polling", False):
            unsafe("poll in flight")
        if getattr(st, "_poll_ts", None) is not None:
            unsafe("poll timestamp live")
        if getattr(st, "_claiming", None) is not None:
            unsafe("channel claim in flight")
        if getattr(st, "_deferred", None):
            unsafe("deferred requests queued")
        if getattr(st, "DeferQ", None):
            unsafe("DeferQ non-empty")
        if getattr(st, "pending", False):
            unsafe("request parked on the waiting gate")
        gate = getattr(st, "_gate", None)
        if gate is not None and gate._waiters:
            unsafe("gate has waiters")


def _classify_queue(sim: Any) -> List[Dict[str, Any]]:
    """Describe every live event-queue entry, in canonical heap order."""
    env = sim.env
    network = sim.network
    entries: List[Dict[str, Any]] = []
    for when, prio, _eid, event in sorted(env._queue):
        if prio != NORMAL:
            raise UnsafeState("urgent event pending")
        callbacks = event.callbacks
        if callbacks is None:  # pragma: no cover - processed events leave the heap
            continue
        live = []
        for cb in callbacks:
            owner = getattr(cb, "__self__", None)
            func = getattr(cb, "__func__", None)
            func_name = getattr(func, "__name__", getattr(cb, "__name__", ""))
            if isinstance(owner, ConditionEvent) and func_name == "_check":
                if owner.triggered:
                    continue  # stale deadline whose condition resolved
                raise UnsafeState("untriggered condition event in queue")
            live.append((owner, func_name))
        if not live:
            continue  # inert (no remaining effect)
        if len(live) != 1:
            raise UnsafeState("event with multiple live callbacks")
        owner, func_name = live[0]

        if owner is network and func_name == "_deliver":
            envelope = event  # a scheduled envelope is its own queue entry
            if envelope.deliver_at != when:
                raise UnsafeState("delivery event not at its envelope time")
            entries.append({
                "kind": "envelope",
                "src": envelope.src,
                "dst": envelope.dst,
                "payload": _encode_payload(envelope.payload),
                "sent_at": envelope.sent_at,
                "deliver_at": envelope.deliver_at,
                "msg_id": envelope.msg_id,
                "fault_tag": envelope.fault_tag,
            })
            continue
        if isinstance(owner, ReliableLink) and func_name == "_on_timer":
            msg_id = event._value
            if msg_id not in owner._pending:
                continue  # acknowledged already; timer is a no-op
            entries.append({
                "kind": "arq_timer",
                "cell": owner.node_id,
                "msg_id": msg_id,
                "when": when,
            })
            continue
        if func_name == "_owed_ack_expire":
            sender, ts = event._value
            if owner._owed_acks.get(sender) != ts:
                continue  # acknowledged or superseded; expiry is a no-op
            entries.append({
                "kind": "owed_ack",
                "cell": owner.cell,
                "sender": sender,
                "ts": ts,
                "when": when,
            })
            continue
        if isinstance(owner, Process) and func_name == "_resume":
            entries.append(_describe_process(sim, owner, when))
            continue
        raise UnsafeState(f"unclassifiable event callback {func_name!r}")
    return entries


def _describe_process(sim: Any, proc: Process, when: float) -> Dict[str, Any]:
    gen = proc._generator
    if inspect.getgeneratorstate(gen) != "GEN_SUSPENDED":
        raise UnsafeState(f"process {proc.name!r} is not suspended")
    code_name = gen.gi_code.co_name
    locs = gen.gi_frame.f_locals

    if code_name in ("_arrivals", "_resumed_arrivals"):
        if gen.gi_yieldfrom is not None:
            raise UnsafeState("arrival process suspended in a sub-generator")
        return {"kind": "arrival", "cell": locs["cell"], "wake": when}

    if code_name == "call_process":
        if gen.gi_yieldfrom is not None:
            raise UnsafeState("call channel request in flight")
        # Suspended in its hold: ``remaining`` is already the holding
        # time left after the wake (see ``call_process``).
        origin, mss, channel, after, handoffs = (locs[n] for n in CALL_FRAME_LOCALS)
        return {
            "kind": "call",
            "origin": origin,
            "mss_cell": mss.cell,
            "channel": channel,
            "after": after,
            "wake": when,
            "handoffs_attempted": handoffs,
        }

    if code_name in ("at_warmup", "_warmup_process"):
        return {"kind": "warmup", "wake": when}

    if code_name in ("_crash_process", "_resumed_crash"):
        window = locs["window"]
        return {
            "kind": "crash",
            "index": _crash_index(sim, window),
            "phase": "pre" if when == window.at else "post",
            "wake": when,
        }
    if code_name in ("_shadow_crash_process", "_resumed_shadow_crash"):
        window = locs["window"]
        return {
            "kind": "shadow_crash",
            "index": _crash_index(sim, window),
            "phase": "pre" if when == window.at else "post",
            "wake": when,
        }

    if code_name in ("_sampler", "_resumed_sampler"):
        if proc.name == "obs-timeseries":
            which = "timeseries"
        elif proc.name == "obs-kernel":
            which = "kernel"
        else:
            raise UnsafeState(f"unknown sampler process {proc.name!r}")
        return {"kind": "sampler", "which": which, "wake": when}

    raise UnsafeState(f"cannot describe process {proc.name!r} ({code_name})")


def _crash_index(sim: Any, window: Any) -> int:
    faults = sim.scenario.faults
    crashes = faults.crashes if faults is not None else ()
    for i, w in enumerate(crashes):
        if w is window:
            return i
    for i, w in enumerate(crashes):
        if w == window:
            return i
    raise UnsafeState("crash window not found in the scenario fault plan")


# ---------------------------------------------------------------------------
# Resumed generators
# ---------------------------------------------------------------------------
#
# Each replays the remainder of its original process's control flow
# from a mid-flight descriptor, preserving the original's RNG draw
# order exactly (verified against traffic/source.py — keep in sync).
# A suspended call needs no replica: ``call_process`` itself takes a
# ``resume`` entry.


def _resumed_arrivals(source: Any, cell: int, wake_at: float):
    env = source.env
    rng = source.streams.stream("traffic", "arrivals", cell)
    call_rng = source.streams.stream("traffic", "calls", cell)
    lam_max = source.pattern.max_rate(cell)
    yield env.timeout_at(wake_at)
    while True:
        now = env._now
        if source.horizon is not None and now >= source.horizon:
            return
        accept = source.pattern.rate(cell, now) / lam_max
        if accept >= 1.0 or rng.random() < accept:
            env.process(
                call_process(
                    env, source.stations, cell, source.config, call_rng, source.log
                ),
                name=f"call[{cell}]",
            )
        gap = float(rng.exponential(1.0 / lam_max))
        yield env.timeout(gap)


def _resumed_crash(
    env: Any, injector: Any, station: Any, window: Any, wake_at: float, phase: str
):
    if phase == "pre":
        yield env.timeout_at(wake_at)
        injector.down.add(window.cell)
        injector._record("crash", (window.cell, window.lose_state))
        station._crash(window.lose_state)
        yield env.timeout(window.downtime)
    else:
        yield env.timeout_at(wake_at)
    injector.down.discard(window.cell)
    injector._record("restart", (window.cell,))
    station._restart()


def _resumed_shadow_crash(env: Any, injector: Any, window: Any, wake_at: float, phase: str):
    if phase == "pre":
        yield env.timeout_at(wake_at)
        injector.down.add(window.cell)
        yield env.timeout(window.downtime)
    else:
        yield env.timeout_at(wake_at)
    injector.down.discard(window.cell)


def _warmup_process(env: Any, metrics: Any, network: Any, wake_at: float):
    yield env.timeout_at(wake_at)
    metrics.snapshot_message_baseline(network)


def _resumed_sampler(env: Any, recorder: Any, wake_at: float):
    yield env.timeout_at(wake_at)
    # A fresh ``_sampler()`` starts at the loop top — horizon check,
    # sample, sleep — which is exactly the post-wake control flow.
    yield from recorder._sampler()


def _forge_process(env: Any, gen: Any, name: str) -> Process:
    """Re-materialize a suspended process without the URGENT kick-start.

    ``Process.__init__`` schedules an urgent init event to start the
    generator at the *current* instant; a restored process must instead
    already be parked on its wake timeout.  So: advance the generator
    to its first yield (which pushes the wake event with the next
    sequential event id), then forge the Process shell around it.
    """
    first = gen.send(None)
    proc = Process.__new__(Process)
    proc.env = env
    proc.callbacks = []
    proc._value = PENDING
    proc._ok = True
    proc._defused = False
    proc._processed = False
    proc._generator = gen
    proc.name = name
    proc._target = first
    first.callbacks.append(proc._resume)
    return proc


# ---------------------------------------------------------------------------
# Apply
# ---------------------------------------------------------------------------


def apply_state(sim: Any, state: Dict[str, Any], reseed: bool = False) -> None:
    """Overwrite ``sim``'s dynamic state with a captured ``state``.

    ``sim`` must be freshly built from the snapshot's scenario (or,
    with ``reseed=True``, from the same scenario under a different
    seed: registry stream states are then *not* restored, so every
    post-fork draw comes from the new seed's substreams, while
    structural state — channels in use, in-flight messages, protocol
    mirrors — carries over).
    """
    env = sim.env
    env._queue.clear()
    env._eid = 0
    env._now = state["env"]["now"]

    if not reseed:
        _apply_streams(sim.streams, state["streams"])
    _apply_network(sim.network, state["network"])
    _apply_metrics(sim.metrics, state["metrics"])
    _apply_monitor(sim.monitor, state["monitor"])
    _apply_source(sim.source, state["source"])
    _apply_injector(sim.injector, state["injector"])
    for cell_key, data in sorted(state["stations"].items(), key=lambda kv: int(kv[0])):
        cell = int(cell_key)
        station = sim.stations.get(cell)
        if station is None:
            raise SnapshotError(f"snapshot covers unknown cell {cell}")
        _apply_station(station, data)
    _apply_obs(sim.observer, state["obs"])
    _prime_sanitizers(sim)
    if state["queue"] is not None:
        _materialize_queue(sim, state["queue"], reseed)
        sim.source._started = True


def _apply_streams(streams: Any, data: Dict[str, Any]) -> None:
    for key, rng_state in sorted(data.items()):
        gen = streams.stream(*key.split("/"))
        gen.bit_generator.state = rng_state


def _apply_network(network: Any, data: Dict[str, Any]) -> None:
    network._last_delivery.clear()
    network._last_delivery.update(data["last_delivery"])
    network._msg_id = data["msg_id"]
    network.total_sent = data["total_sent"]
    network.sent_by_kind.clear()
    network.sent_by_kind.update(data["sent_by_kind"])


def _apply_metrics(metrics: Any, data: Dict[str, Any]) -> None:
    # Not through ``record_acquisition``: the warmup filter must not re-apply.
    metrics.records[:] = [AcquisitionRecord(*fields) for fields in data["records"]]
    metrics.releases = data["releases"]
    metrics._message_baseline = dict(data["message_baseline"])
    metrics._message_baseline_total = data["message_baseline_total"]
    metrics._baseline_taken = data["baseline_taken"]
    metrics.faults_injected = dict(data["faults_injected"])
    metrics.faults_recovered = dict(data["faults_recovered"])
    metrics.retries = data["retries"]
    metrics.retry_exhausted = data["retry_exhausted"]


def _apply_monitor(monitor: Any, data: Optional[Dict[str, Any]]) -> None:
    if monitor is None or data is None:
        return
    from ..protocols.monitor import InterferenceViolation

    monitor.users.clear()
    for ch, users in data["users"].items():
        monitor.users[ch] = set(users)
    monitor.violations[:] = [
        InterferenceViolation(time=t, channel=ch, cell=c, conflicting_cell=o)
        for t, ch, c, o in data["violations"]
    ]
    monitor.total_acquisitions = data["total_acquisitions"]
    monitor.total_releases = data["total_releases"]
    monitor.max_concurrent_users = data["max_concurrent_users"]
    monitor._active = data["active"]


def _apply_source(source: Any, data: Dict[str, Any]) -> None:
    log = source.log
    for field, value in data["log"].items():
        setattr(log, field, value)


def _apply_injector(injector: Any, data: Optional[Dict[str, Any]]) -> None:
    if injector is None or data is None:
        if (injector is None) != (data is None):
            raise SnapshotError("fault-injector presence differs from snapshot")
        return
    injector.down.clear()
    injector.down.update(data["down"])
    injector.injected.clear()
    injector.injected.update(data["injected"])


def _apply_link(link: Optional[ReliableLink], data: Optional[Dict[str, Any]]) -> None:
    if link is None or data is None:
        if (link is None) != (data is None):
            raise SnapshotError("hardening (ARQ link) presence differs from snapshot")
        return
    link.down = data["down"]
    link._pending = {}
    for msg_id, (dst, payload, attempt) in sorted(data["pending"].items()):
        record = _Pending(dst, _decode_payload(payload))
        record.attempt = attempt
        link._pending[msg_id] = record
    link._inflight = dict(data["inflight"])
    link._queue = {
        dst: deque(_decode_payload(p) for p in payloads)
        for dst, payloads in sorted(data["queue"].items())
    }
    link.retransmissions = data["retransmissions"]
    link.recovered = data["recovered"]
    link.exhausted = data["exhausted"]


def _apply_dedup(dedup: Any, data: Optional[Dict[str, Any]]) -> None:
    if dedup is None or data is None:
        return
    dedup._seen = {
        src: (set(order), deque(order)) for src, order in sorted(data["seen"].items())
    }
    dedup.suppressed = data["suppressed"]


def _apply_station(st: Any, data: Dict[str, Any]) -> None:
    if type(st).__name__ != data["scheme"]:
        raise SnapshotError(
            f"scheme mismatch at cell {st.cell}: built {type(st).__name__}, "
            f"snapshot has {data['scheme']}"
        )
    st.use.clear()
    st.use.update(data["use"])
    st.down = data["down"]
    st._crash_released = data["crash_released"]
    st._round_counter = data["round_counter"]
    st._req_seq = data["req_seq"]
    st._req_kind = data["req_kind"]
    st._alias = {ch: deque(q) for ch, q in sorted(data["alias"].items())}
    if data["grant_mode"] is not None:
        st._grant_mode = data["grant_mode"]
    _apply_link(st._link, data["link"])
    _apply_dedup(st._dedup, data["dedup"])

    name = data["scheme"]
    if name == "AdaptiveMSS":
        st.mode = Mode(data["mode"])
        for mirrors, captured in (
            (st.U, data["U"]), (st.granted_out, data["granted_out"])
        ):
            for j, members in sorted(captured.items()):
                # Most mirrors are empty on both sides (a fresh build,
                # an idle neighbour): nothing to replace or create.
                if members or mirrors.peek(j):
                    mirrors[j].replace(members)
        st.UpdateS.clear()
        st.UpdateS.update(data["UpdateS"])
        st._owed_acks.clear()
        st._owed_acks.update(sorted(data["owed_acks"].items()))
        st.rounds = data["rounds"]
        st.policy.load_state(data["policy"])
        st._collector_round = data["collector_round"]
        st._status_collectors = {}
        for rid, (expected, responses) in sorted(data["status_collectors"].items()):
            collector = Collector(st.env, expected)
            for tag in sorted(responses):
                collector.deliver(tag, responses[tag])
            collector.done.callbacks.append(
                lambda _ev, rid=rid, st=st: st._status_collectors.pop(rid, None)
            )
            st._status_collectors[rid] = collector
        last = data["last_status"]
        st._last_status_collector = (
            st._status_collectors[last] if last is not None else None
        )
        st.mode_changes = data["mode_changes"]
        st.stale_responses = data["stale_responses"]
        st.local_acquires = data["local_acquires"]
        st.local_notify_sum = data["local_notify_sum"]
        st.repacks = data["repacks"]
        if data["best_rng"] is not None:
            import numpy as np

            if st._best_rng is None:
                st._best_rng = np.random.default_rng(10_000 + st.cell)
            st._best_rng.bit_generator.state = data["best_rng"]
    elif name == "BasicSearchMSS":
        st._collector_round = data["collector_round"]
    elif name == "BasicUpdateMSS":
        st.U.clear()
        for j, members in sorted(data["U"].items()):
            st.U[j] = set(members)
        st._collector_round = data["collector_round"]
    elif name == "AdvancedUpdateMSS":
        st.U.clear()
        for j, members in sorted(data["U"].items()):
            st.U[j] = set(members)
        st.outstanding.clear()
        for ch, entry in sorted(data["outstanding"].items()):
            grantee, ts = entry
            st.outstanding[ch] = (grantee, tuple(ts))
        st._collector_round = data["collector_round"]
    elif name == "PrakashMSS":
        st.allocated.clear()
        st.allocated.update(data["allocated"])
        st.pledged.clear()
        st.pledged.update(data["pledged"])
        st._collector_round = data["collector_round"]
        st._transfer_round = data["transfer_round"]


def _apply_obs(observer: Any, data: Optional[Dict[str, Any]]) -> None:
    if observer is None or data is None:
        if (observer is None) != (data is None):
            raise SnapshotError("observability presence differs from snapshot")
        return
    tracer = observer.tracer
    if tracer is not None and data["tracer"] is not None:
        td = data["tracer"]
        tracer.closed[:] = [_make_span(s) for s in td["closed"]]
        tracer.open.clear()
        for key, s in sorted(td["open"].items()):
            tracer.open[tuple(key)] = _make_span(s)
        tracer._serving.clear()
        tracer._serving.update(td["serving"])
        tracer.instants[:] = [tuple(i) for i in td["instants"]]
        tracer.stats.update(td["stats"])
    recorder = observer.recorder
    if recorder is not None and data["recorder"] is not None:
        rd = data["recorder"]
        recorder.times[:] = list(rd["times"])
        for field in ("occupancy", "mode", "nfc_predicted", "neighborhood_load"):
            target = getattr(recorder, field)
            for cell, series in rd[field].items():
                target[cell][:] = list(series)
    profiler = observer.profiler
    if profiler is not None and data["profiler"] is not None:
        pd = data["profiler"]
        profiler.sim_times[:] = list(pd["sim_times"])
        profiler.events[:] = list(pd["events"])
        profiler.heap_depth[:] = list(pd["heap_depth"])
        profiler.wall[:] = list(pd["wall"])
        profiler.cpu[:] = list(pd["cpu"])
        profiler.messages_by_kind[:] = [dict(m) for m in pd["messages_by_kind"]]


def _make_span(data: Dict[str, Any]) -> Span:
    span = Span(data["cell"], data["req_id"], data["kind"], data["t_begin"])
    span.t_serve = data["t_serve"]
    span.t_end = data["t_end"]
    span.channel = data["channel"]
    span.events = [tuple(e) for e in data["events"]]
    return span


def _prime_sanitizers(sim: Any) -> None:
    """Seed the sanitizer suite with the restored world's prior facts.

    * Quiescence: channels already in use must count as held, or their
      eventual releases would flag as unmatched.
    * Causality: reply payloads still queued in restored ARQ links will
      be *sent* after restore, answering rounds whose requests were
      processed before the snapshot — re-open those rounds.  (In-flight
      reply envelopes need nothing: their round bookkeeping happened at
      the original send.  The vector-clock checker is restore-tolerant
      by construction: deliveries without a recorded send stamp verify
      nothing.)
    """
    suite = sim.sanitizers
    if suite is None:
        return
    quiescence = getattr(suite, "quiescence", None)
    if quiescence is not None:
        for cell, st in sorted(sim.stations.items()):
            if st.use:
                quiescence.held[cell] = set(st.use)
    causality = getattr(suite, "causality", None)
    if causality is not None:
        for cell, st in sorted(sim.stations.items()):
            link = st._link
            if link is None:
                continue
            for dst, queued in sorted(link._queue.items()):
                for payload in queued:
                    if isinstance(payload, _REPLY_TYPES):
                        causality._open_rounds.setdefault(st.node_id, set()).add(
                            (dst, payload.round_id)
                        )


def _materialize_queue(sim: Any, entries: List[Dict[str, Any]], reseed: bool) -> None:
    """Re-create the event heap from descriptors, in capture order.

    Each descriptor schedules exactly one event, so fresh event ids
    ascend in capture order and all same-time ties break as in the
    original heap.  In-flight envelopes get fresh per-link-monotone
    sequence numbers (the global ``_seq`` counter is not part of a
    snapshot); ``network._seq`` then resumes above them.
    """
    env = sim.env
    network = sim.network
    stations = sim.stations
    source = sim.source
    seq = 0
    for entry in entries:
        kind = entry["kind"]
        if kind == "envelope":
            seq += 1
            envelope = Envelope(
                entry["src"],
                entry["dst"],
                _decode_payload(entry["payload"]),
                entry["sent_at"],
                entry["deliver_at"],
                seq,
                entry["msg_id"],
                entry["fault_tag"],
            )
            network._schedule(envelope, entry["deliver_at"])
        elif kind == "arq_timer":
            link = stations[entry["cell"]]._link
            if link is None:
                raise SnapshotError("snapshot has ARQ timers but hardening is off")
            timer = env.timeout_at(entry["when"], entry["msg_id"])
            timer.callbacks.append(link._on_timer)
        elif kind == "owed_ack":
            station = stations[entry["cell"]]
            timer = env.timeout_at(entry["when"], (entry["sender"], tuple(entry["ts"])))
            timer.callbacks.append(station._owed_ack_expire)
        elif kind == "arrival":
            cell = entry["cell"]
            wake = entry["wake"]
            if reseed:
                # The exponential gap is memoryless: redrawing the next
                # arrival from the fork seed's own substream keeps the
                # process statistically exact and deterministic per seed.
                rng = source.streams.stream("traffic", "arrivals", cell)
                wake = env._now + float(rng.exponential(1.0 / source.pattern.max_rate(cell)))
            gen = _resumed_arrivals(source, cell, wake)
            _forge_process(env, gen, f"arrivals[{cell}]")
        elif kind == "call":
            origin = entry["origin"]
            rng = source.streams.stream("traffic", "calls", origin)
            gen = call_process(
                env, stations, origin, source.config, rng, source.log,
                resume=(
                    entry["mss_cell"], entry["channel"], entry["after"],
                    entry["wake"], entry["handoffs_attempted"],
                ),
            )
            _forge_process(env, gen, f"call[{origin}]")
        elif kind == "warmup":
            gen = _warmup_process(env, sim.metrics, network, entry["wake"])
            _forge_process(env, gen, "at_warmup")
        elif kind in ("crash", "shadow_crash"):
            injector = sim.injector
            if injector is None:
                raise SnapshotError("snapshot has crash windows but faults are off")
            window = sim.scenario.faults.crashes[entry["index"]]
            if kind == "crash":
                gen = _resumed_crash(
                    env,
                    injector,
                    stations[window.cell],
                    window,
                    entry["wake"],
                    entry["phase"],
                )
                _forge_process(env, gen, "_crash_process")
            else:
                gen = _resumed_shadow_crash(
                    env, injector, window, entry["wake"], entry["phase"]
                )
                _forge_process(env, gen, "_shadow_crash_process")
        elif kind == "sampler":
            observer = sim.observer
            if observer is None:
                raise SnapshotError("snapshot has obs samplers but obs is off")
            if entry["which"] == "timeseries":
                recorder, name = observer.recorder, "obs-timeseries"
            else:
                recorder, name = observer.profiler, "obs-kernel"
            if recorder is None:
                raise SnapshotError(f"snapshot has a {entry['which']} sampler but it is off")
            gen = _resumed_sampler(env, recorder, entry["wake"])
            _forge_process(env, gen, name)
        else:
            raise SnapshotError(f"unknown queue descriptor kind {kind!r}")
    network._seq = seq
