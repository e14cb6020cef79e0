"""Live-state capture and re-application — the snapshot state codec.

:func:`capture_state` turns a running :class:`~repro.harness.runner
.Simulation` into a plain-data dict (JSON-safe through
:mod:`repro.snap.format`) holding everything the kernel needs to
continue the run bit-for-bit; :func:`apply_state` puts that dict back
onto a *freshly built* simulation of the same scenario
(restore-via-rebuild: static wiring comes from ``build_simulation``,
only dynamic state is applied).

Declarations
------------
Neither function knows a component's fields.  Every class with dynamic
state names them itself, beside its ``__init__``, in a ``SNAPSHOT``
tuple (a subclass lists only what it adds); each entry is an attribute
name, ``(key, attribute)`` where the snapshot key differs, or ``(key,
attribute, element)`` where the walker has to be told what the
attribute holds:

* a class that has a declaration of its own — the attribute is such an
  object or None (both sides must agree), or a list / dict of them,
  rebuilt blank from their fields alone;
* a record class (NamedTuple, dataclass) — the rows of a list;
* any other callable — rebuilds one value of a dict or list (``set``,
  ``deque``, ``dict``), or the attribute itself (an enum); ``type``
  for an attribute that is a class, stored by name and only compared.

One walker (:func:`_capture` / :func:`_apply`) copies the fields out
and restores them *in place* by the kind of container it finds.  State
that is not a plain container goes through a two-method hook on its
owner, ``state_dict()`` / ``load_state(state)``, whose dict is merged
with the fields'.  Attributes that are deliberately *not* state are
listed, with the reason, in ``SNAPSHOT_TRANSIENT``.

Safe points
-----------
Generator frames cannot be serialized, so capture only succeeds at a
**safe point**: no station reports a :meth:`~repro.protocols.base.MSS
.snapshot_obstacle`, and every live event-queue entry is an in-flight
envelope, a protocol timer, or a process suspended on a plain timeout.
Each of those becomes a small descriptor; a process is re-materialized
by re-entering *its own generator* through the resume argument it
takes for the purpose (``wake_at`` / ``resume``).  Anything else
raises :class:`UnsafeState`; the drain loop in
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

import enum
import inspect
from collections import deque
from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Tuple

from ..faults.arq import ReliableLink
from ..harness.capability import check_compatible
from ..sim.events import NORMAL, PENDING, ConditionEvent, Process
from ..sim.network import Envelope, decode_payload, encode_payload
from ..traffic.calls import CALL_FRAME_LOCALS, call_process
from .format import SnapshotError

__all__ = ["UnsafeState", "capture_state", "apply_state"]


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
# The walker
# ---------------------------------------------------------------------------

_SCALARS = frozenset({type(None), bool, int, float, str})


def _declared(cls: type) -> bool:
    return any("SNAPSHOT" in vars(k) or "state_dict" in vars(k) for k in cls.__mro__)


@lru_cache(maxsize=None)
def _plan(cls: type) -> Tuple[Any, Any, Any]:
    """``cls``'s declaration, resolved once: ``(fields, state_dict,
    load_state)``, each field as ``(key, attribute, make, is_part)`` with
    ``make`` what rebuilds one element (None: the stored value is it)."""
    found = []
    for klass in reversed(cls.__mro__):
        for entry in vars(klass).get("SNAPSHOT", ()):
            key, attr, element = (
                (entry, entry, None) if isinstance(entry, str) else (*entry, None)[:3]
            )
            is_part = isinstance(element, type) and _declared(element)
            if is_part:
                make = _reviver(element)
            elif isinstance(element, type) and (
                is_dataclass(element) or hasattr(element, "_fields")
            ):
                make = _row_maker(element)
            else:
                make = element
            found.append((key, attr, make, is_part))
    return tuple(found), getattr(cls, "state_dict", None), getattr(cls, "load_state", None)


def _reviver(cls: type) -> Callable[[Dict[str, Any]], Any]:
    """Rebuilds a declared object blank, from its fields alone."""
    def make(data: Dict[str, Any]) -> Any:
        obj = cls.__new__(cls)
        for key, attr, _, _ in _plan(cls)[0]:
            setattr(obj, attr, _copy_out(data[key]))
        return obj
    return make


def _row_maker(cls: type) -> Callable[[Any], Any]:
    return lambda row: cls(*row)


def _capture(obj: Any) -> Dict[str, Any]:
    """``obj``'s declared fields, copied out, plus what its hook adds."""
    found, state_dict, _ = _plan(type(obj))
    data = {key: _copy_out(getattr(obj, attr)) for key, attr, _, _ in found}
    if state_dict is not None:
        data.update(state_dict(obj))
    return data


def _copy_out(value: Any) -> Any:
    """A plain-data copy of ``value`` that shares nothing mutable with it."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind in (set, frozenset):
        return set(value)
    if kind is dict:
        return {k: _copy_out(v) for k, v in value.items()}
    if kind in (list, deque):
        return [_copy_out(v) for v in value]
    if kind is tuple:
        return tuple(_copy_out(v) for v in value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, type):
        return value.__name__
    if _declared(kind):
        return _capture(value)
    if hasattr(value, "_fields"):
        return list(value)
    if is_dataclass(value):
        return [getattr(value, f.name) for f in fields(value)]
    raise SnapshotError(f"cannot capture a {kind.__name__!r}")


def _apply(obj: Any, data: Dict[str, Any], where: str) -> None:
    """Restore ``obj``'s declared fields in place, then run its hook.

    A dict is refilled in key order whatever order it was stored in, so
    a snapshot restores the same from memory and from bytes.
    """
    found, _, load_state = _plan(type(obj))
    for key, attr, make, is_part in found:
        value = data[key]
        if make is None and type(value) in _SCALARS:
            setattr(obj, attr, value)  # most fields of most objects
            continue
        live = getattr(obj, attr)
        kind = type(live)
        if kind is set:
            live.clear()
            live.update(value)
        elif kind is dict:
            live.clear()
            if value:
                items = sorted(value.items())
                live.update(items if make is None else [(k, make(v)) for k, v in items])
        elif kind is list or kind is deque:
            live.clear()
            live.extend(value if make is None else map(make, value))
        elif is_part:
            if (live is None) != (value is None):
                raise SnapshotError(f"{where}: {key} presence differs from snapshot")
            if live is not None:
                _apply(live, value, where)
        elif isinstance(live, type):
            if live.__name__ != value:
                raise SnapshotError(
                    f"{where}: {key} mismatch, built {live.__name__}, snapshot has {value}"
                )
        else:
            setattr(obj, attr, value if make is None else make(value))
    if load_state is not None:
        load_state(obj, data)


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------


def capture_state(sim: Any) -> Dict[str, Any]:
    """Extract a plain-data description of ``sim``'s dynamic state.

    Raises :class:`UnsafeState` if the simulation (with a started
    traffic source) is not at a safe point, and
    :class:`~repro.harness.capability.CompatibilityError` if it can never
    be captured.  For a never-started simulation the
    event queue is not captured (``"queue": None``) — restore is a
    plain rebuild and the caller runs ``Simulation.start``.
    """
    check_compatible(sim.scenario, lanes=("checkpoint",), source=sim.source)
    queue = None
    if sim.source._started:
        # Checked before anything is walked: the drain loop retries per
        # event.  The queue alone is not sufficient — a request parked
        # on a bare untriggered event (collector ``done``, the waiting
        # gate) has *no* queue entry until it fires.
        for cell, station in sorted(sim.stations.items()):
            obstacle = station.snapshot_obstacle()
            if obstacle is not None:
                raise UnsafeState(f"cell {cell}: {obstacle}")
        queue = _classify_queue(sim)
    state = _capture(sim)
    state["env"] = {"now": float(sim.env._now)}
    state["streams"] = sim.streams.state_dict()
    state["stations"] = {
        str(cell): _capture(station) for cell, station in sorted(sim.stations.items())
    }
    state["queue"] = queue
    return state


def _classify_queue(sim: Any) -> List[Dict[str, Any]]:
    """Describe every live event-queue entry, in canonical heap order."""
    network = sim.network
    entries: List[Dict[str, Any]] = []
    for when, prio, _eid, event in sorted(sim.env._queue):
        if prio != NORMAL:
            raise UnsafeState("urgent event pending")
        live = []
        for cb in event.callbacks or ():
            owner = getattr(cb, "__self__", None)
            name = getattr(cb, "__name__", "")
            if isinstance(owner, ConditionEvent) and name == "_check":
                if owner.triggered:
                    continue  # stale deadline whose condition resolved
                raise UnsafeState("untriggered condition event in queue")
            live.append((owner, name))
        if not live:
            continue  # inert (no remaining effect)
        if len(live) != 1:
            raise UnsafeState("event with multiple live callbacks")
        owner, name = live[0]

        if owner is network and name == "_deliver":
            envelope = event  # a scheduled envelope is its own queue entry
            if envelope.deliver_at != when:
                raise UnsafeState("delivery event not at its envelope time")
            try:
                payload = encode_payload(envelope.payload)
            except TypeError as exc:
                raise UnsafeState(f"{exc} in flight") from None
            entries.append({
                "kind": "envelope",
                "src": envelope.src,
                "dst": envelope.dst,
                "payload": payload,
                "sent_at": envelope.sent_at,
                "deliver_at": envelope.deliver_at,
                "msg_id": envelope.msg_id,
                "fault_tag": envelope.fault_tag,
            })
        elif isinstance(owner, ReliableLink) and name == "_on_timer":
            if event._value in owner._pending:  # else acknowledged: a no-op
                entries.append({
                    "kind": "arq_timer",
                    "cell": owner.node_id,
                    "msg_id": event._value,
                    "when": when,
                })
        elif name == "_owed_ack_expire":
            sender, ts = event._value
            if owner._owed_acks.get(sender) == ts:  # else superseded: a no-op
                entries.append({
                    "kind": "owed_ack",
                    "cell": owner.cell,
                    "sender": sender,
                    "ts": ts,
                    "when": when,
                })
        elif isinstance(owner, Process) and name == "_resume":
            entries.append(_describe_process(sim, owner, when))
        else:
            raise UnsafeState(f"unclassifiable event callback {name!r}")
    return entries


#: Sampler descriptor tag (its process is ``obs-<tag>``) -> ``Observer`` attribute.
#: A constant lookup table: written here, only ever read.
_SAMPLERS = {"timeseries": "recorder", "kernel": "profiler"}  # repro: noqa(ANA203)


def _describe_process(sim: Any, proc: Process, when: float) -> Dict[str, Any]:
    gen = proc._generator
    if inspect.getgeneratorstate(gen) != "GEN_SUSPENDED":
        raise UnsafeState(f"process {proc.name!r} is not suspended")
    if gen.gi_yieldfrom is not None:
        raise UnsafeState(f"process {proc.name!r} is inside a channel request")
    code_name = gen.gi_code.co_name
    locs = gen.gi_frame.f_locals

    if code_name == "_arrivals":
        return {"kind": "arrival", "cell": locs["cell"], "wake": when}
    if code_name == "call_process":
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
    if code_name == "at_warmup":
        return {"kind": "warmup", "wake": when}
    if code_name == "_crash_process":
        window = locs["window"]
        crashes = sim.scenario.faults.crashes if sim.scenario.faults is not None else ()
        index = next((i for i, w in enumerate(crashes) if w is window), None)
        if index is None:
            raise UnsafeState("crash window not found in the scenario fault plan")
        return {
            "kind": "crash",
            "index": index,
            "phase": "pre" if when == window.at else "post",
            "wake": when,
        }
    which = proc.name[len("obs-"):]
    if code_name == "_sampler" and which in _SAMPLERS:
        return {"kind": "sampler", "which": which, "wake": when}
    raise UnsafeState(f"cannot describe process {proc.name!r} ({code_name})")


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
    stations = {int(key): data for key, data in state["stations"].items()}
    unknown = sorted(stations.keys() - sim.stations.keys())
    if unknown:
        raise SnapshotError(f"snapshot covers unknown cell {unknown[0]}")
    env = sim.env
    env._queue.clear()
    env._eid = 0
    env._now = state["env"]["now"]

    if not reseed:
        sim.streams.load_state(state["streams"])
    _apply(sim, state, "simulation")
    for cell, data in sorted(stations.items()):
        _apply(sim.stations[cell], data, f"cell {cell}")
    if sim.sanitizers is not None:
        sim.sanitizers.adopt(sim.stations)
    if state["queue"] is not None:
        _materialize_queue(sim, state["queue"], reseed)
        sim.source._started = True


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
                decode_payload(entry["payload"]),
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
            _forge_process(env, source._arrivals(cell, wake), f"arrivals[{cell}]")
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
            _forge_process(env, sim.at_warmup(entry["wake"]), "at_warmup")
        elif kind == "crash":
            injector = sim.injector
            if injector is None:
                raise SnapshotError("snapshot has crash windows but faults are off")
            window = sim.scenario.faults.crashes[entry["index"]]
            gen = injector._crash_process(
                stations[window.cell], window, entry["wake"], entry["phase"]
            )
            _forge_process(env, gen, "_crash_process")
        elif kind == "sampler":
            which = entry["which"]
            # An observer is here: ``_apply`` refused a snapshot it is not in.
            sampler = getattr(sim.observer, _SAMPLERS[which])
            _forge_process(env, sampler._sampler(entry["wake"]), f"obs-{which}")
        else:
            raise SnapshotError(f"unknown queue descriptor kind {kind!r}")
    network._seq = seq
