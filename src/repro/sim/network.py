"""Message-passing network substrate.

Nodes register with the network and receive messages through their
``on_message(msg)`` method.  The network models per-message one-way
latency (the paper's parameter ``T``), supports FIFO or non-FIFO
per-link delivery (non-FIFO is required to reproduce the message
overtaking of the paper's Figure 11), and emits the ``net.send`` /
``net.deliver`` probes — the one way to observe a message in flight.
"""

from __future__ import annotations

import enum
import math
from dataclasses import fields
from functools import lru_cache
from heapq import heappush
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    get_type_hints,
)

import numpy as np

from .engine import Environment
from .events import NORMAL

__all__ = [
    "Message",
    "encode_payload",
    "decode_payload",
    "Envelope",
    "LatencyModel",
    "DeterministicLatency",
    "UniformLatency",
    "Network",
    "NetworkNode",
]


class NetworkNode(Protocol):
    """Anything that can be attached to a :class:`Network`."""

    node_id: int

    def on_message(self, envelope: "Envelope") -> None:  # pragma: no cover
        ...


class Message:
    """Base of every protocol message dataclass.

    Deriving from it is what makes a message type snapshotable: an
    in-flight envelope or an ARQ window stores a payload as ``[class
    name, field values]`` (:func:`encode_payload`), and
    :func:`decode_payload` finds the class again among the subclasses.
    """

    #: True on the types that answer a round (carry its ``round_id``
    #: back); the causality sanitizer matches replies by this mark.
    is_reply = False


def encode_payload(payload: Message) -> List[Any]:
    """``[class name, field values in declaration order]``."""
    if not isinstance(payload, Message):
        raise TypeError(f"{type(payload).__name__!r} is not a Message")
    return [type(payload).__name__, [getattr(payload, f.name) for f in fields(payload)]]


@lru_cache(maxsize=None)
def _payload_class(name: str) -> Tuple[type, Tuple[Optional[type], ...]]:
    """The message class called ``name`` and, per field, the enum to
    coerce a stored int back into (None for every other field)."""
    (cls,) = (c for c in Message.__subclasses__() if c.__name__ == name)
    hints = get_type_hints(cls)
    coerce = tuple(
        hints[f.name]
        if isinstance(hints[f.name], type) and issubclass(hints[f.name], enum.Enum)
        else None
        for f in fields(cls)
    )
    return cls, coerce


def decode_payload(record: Any) -> Message:
    """Inverse of :func:`encode_payload` (accepts its JSON round trip)."""
    name, values = record
    cls, coerce = _payload_class(name)
    return cls(*(v if c is None else c(v) for v, c in zip(values, coerce)))


class Envelope:
    """A message in flight: payload plus routing/timing metadata.

    A plain ``__slots__`` class rather than a dataclass: one envelope is
    allocated per message send, which makes this one of the hottest
    allocation sites in the simulator.

    A scheduled envelope is its own event-queue entry: ``callbacks``
    (the network's delivery tuple while on the heap, else None) and
    ``_processed`` are what the kernel reads on any queued event.
    """

    __slots__ = (
        "src",
        "dst",
        "payload",
        "sent_at",
        "deliver_at",
        "seq",
        "msg_id",
        "fault_tag",
        "callbacks",
        "_processed",
    )

    _ok = True  # a delivery cannot fail (the dispatch loop checks)

    def __init__(
        self,
        src: int,
        dst: int,
        payload: Any,
        sent_at: float,
        deliver_at: float = 0.0,
        seq: int = 0,
        msg_id: int = 0,
        fault_tag: Optional[str] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.sent_at = sent_at
        self.deliver_at = deliver_at
        #: Scheduling sequence number: every scheduled delivery (including
        #: injected duplicate copies) gets a fresh one; per-link FIFO
        #: bookkeeping and the causality sanitizer key on it.
        self.seq = seq
        #: Logical message identity: monotonically increasing per network,
        #: *shared* by retransmissions and duplicate copies of the same
        #: send — the key the hardening layer's dedup filter uses.
        self.msg_id = msg_id
        #: None for a normal message; "retrans" / "dup" / "reorder" when
        #: this copy exists because of the ARQ or the fault injector (the
        #: causality sanitizer relaxes its checks accordingly).
        self.fault_tag = fault_tag
        self.callbacks: Optional[Tuple[Callable[["Envelope"], None], ...]] = None
        self._processed = False

    @property
    def kind(self) -> str:
        """Message-type name used for per-type counting."""
        return type(self.payload).__name__

    def abandon(self) -> None:
        """Never deliver (what ``Event.abandon`` is for a queued event)."""
        self.callbacks = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f", fault_tag={self.fault_tag!r}" if self.fault_tag else ""
        return (
            f"Envelope(src={self.src!r}, dst={self.dst!r}, "
            f"payload={self.payload!r}, sent_at={self.sent_at!r}, "
            f"deliver_at={self.deliver_at!r}, seq={self.seq!r}, "
            f"msg_id={self.msg_id!r}{tag})"
        )


class LatencyModel:
    """Base class: maps (src, dst) to a one-way delay sample."""

    def sample(self, src: int, dst: int) -> float:  # pragma: no cover
        raise NotImplementedError

    @property
    def max_delay(self) -> float:
        """Upper bound used by protocols for round-trip estimates (2T)."""
        raise NotImplementedError


class DeterministicLatency(LatencyModel):
    """Every message takes exactly ``T`` time units."""

    def __init__(self, T: float = 1.0) -> None:
        if T <= 0:
            raise ValueError("latency must be positive")
        self.T = float(T)

    def sample(self, src: int, dst: int) -> float:
        return self.T

    @property
    def max_delay(self) -> float:
        return self.T


class UniformLatency(LatencyModel):
    """Latency uniform in [lo, hi); enables message overtaking."""

    def __init__(self, lo: float, hi: float, rng: np.random.Generator) -> None:
        if not (0 < lo <= hi):
            raise ValueError("need 0 < lo <= hi")
        self.lo, self.hi = float(lo), float(hi)
        self._rng = rng

    def sample(self, src: int, dst: int) -> float:
        return float(self._rng.uniform(self.lo, self.hi))

    @property
    def max_delay(self) -> float:
        return self.hi


class Network:
    """Latency-modelled message fabric connecting protocol nodes.

    Parameters
    ----------
    env:
        The simulation environment.
    latency:
        One-way delay model (default: deterministic ``T=1``).
    fifo:
        If True (default), delivery order per (src, dst) link matches
        send order even under random latency.  Set False to allow
        overtaking (needed for the Figure 11 scenario).
    """

    #: Snapshot fields (see :mod:`repro.snap.state`).
    SNAPSHOT = (
        ("last_delivery", "_last_delivery"),
        ("msg_id", "_msg_id"),
        "total_sent",
        "sent_by_kind",
    )
    #: ``_seq`` only orders envelopes per link; a restore numbers the
    #: in-flight ones afresh and resumes above them.
    SNAPSHOT_TRANSIENT = ("_seq",)

    def __init__(
        self,
        env: Environment,
        latency: Optional[LatencyModel] = None,
        fifo: bool = True,
    ) -> None:
        self.env = env
        #: The environment's live subscriber table: emit sites guard
        #: on ``kind in self._probes``, so an unheard kind costs no call.
        self._probes = env._probes
        self.latency = latency or DeterministicLatency(1.0)
        self.fifo = fifo
        self._nodes: Dict[int, NetworkNode] = {}
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        self._seq = 0
        self._msg_id = 0
        #: Optional fault injector (see :mod:`repro.faults`): consulted
        #: per send for drop/duplicate/delay/reorder decisions and per
        #: delivery for crashed destinations.  None = perfect network.
        self.injector: Optional[Any] = None
        #: Total messages sent, by payload type name.
        self.sent_by_kind: Dict[str, int] = {}
        #: Total messages sent overall.
        self.total_sent = 0
        #: ``Envelope.callbacks`` of every scheduled delivery.
        self._delivery = (self._deliver,)

    # -- topology ----------------------------------------------------------
    def attach(self, node: NetworkNode) -> None:
        """Register a node; its ``node_id`` must be unique."""
        nid = node.node_id
        if nid in self._nodes:
            raise ValueError(f"duplicate node id {nid}")
        self._nodes[nid] = node

    def close(self) -> None:
        """Let go of every node; the network will not deliver again.

        The addresses stay known: a generator torn down with a finished
        simulation may still send from a ``finally:`` block, and that
        has to stay the quiet no-op it was (the envelope lands in a
        queue nobody runs).  The nodes go, and so does the delivery
        method bound to this network, so nothing points back from the
        network at its stations or at itself.
        """
        self._nodes = dict.fromkeys(self._nodes)
        self._delivery = ()

    def node(self, node_id: int) -> NetworkNode:
        return self._nodes[node_id]

    # -- messaging -----------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        msg_id: Optional[int] = None,
        fault_tag: Optional[str] = None,
    ) -> Envelope:
        """Send ``payload`` from ``src`` to ``dst``; returns the envelope.

        ``msg_id`` pins the logical message identity (retransmissions
        reuse the original's, so receiver dedup recognizes them); by
        default a fresh per-network id is assigned.  ``fault_tag``
        labels ARQ retransmissions for the sanitizers.
        """
        if dst not in self._nodes:
            raise KeyError(f"unknown destination node {dst}")
        now = self.env._now
        latency = self.latency
        if type(latency) is DeterministicLatency:
            # Fast path: skip the method call for the constant model.
            delay = latency.T
        else:
            delay = latency.sample(src, dst)
        if msg_id is None:
            self._msg_id = msg_id = self._msg_id + 1
        if self.injector is not None:
            return self._send_faulty(src, dst, payload, delay, msg_id, fault_tag)
        deliver_at = now + delay
        if self.fifo:
            deliver_at = self._fifo_clamp((src, dst), now, deliver_at)
        else:
            deliver_at = now + (deliver_at - now)
        self._seq = seq = self._seq + 1
        env_msg = Envelope(src, dst, payload, now, deliver_at, seq, msg_id, fault_tag)
        self._account(env_msg)
        self._schedule(env_msg, deliver_at)
        return env_msg

    def _fifo_clamp(self, link: Tuple[int, int], now: float, deliver_at: float) -> float:
        """``deliver_at`` raised to ``link``'s FIFO floor, which it then becomes."""
        floor = self._last_delivery.get(link, 0.0)
        if deliver_at < floor:
            deliver_at = floor
        # Deliveries are scheduled at ``now + (deliver_at - now)``, which
        # can undershoot the clamped floor by one ulp and let this
        # message overtake its predecessor on the link; nudge until
        # the *scheduled* time respects the floor.  (Equal times are
        # fine: the event queue breaks ties in send order.)
        while now + (deliver_at - now) < floor:
            deliver_at = math.nextafter(deliver_at, math.inf)
        self._last_delivery[link] = deliver_at = now + (deliver_at - now)
        return deliver_at

    def _account(self, env_msg: Envelope) -> None:
        """Count one logical send and emit the ``net.send`` probe."""
        self.total_sent += 1
        kind = type(env_msg.payload).__name__
        counts = self.sent_by_kind
        counts[kind] = counts.get(kind, 0) + 1
        if "net.send" in self._probes:
            self.env.emit("net.send", env_msg)

    def _schedule(self, env_msg: Envelope, at: float) -> None:
        """Queue ``env_msg`` — itself the heap entry — for delivery at ``at``."""
        env = self.env
        if at < env._now:
            raise ValueError(f"negative delay {at - env._now}")
        env_msg.callbacks = self._delivery
        env._eid = eid = env._eid + 1
        heappush(env._queue, (at, NORMAL, eid, env_msg))

    def _send_faulty(
        self,
        src: int,
        dst: int,
        payload: Any,
        delay: float,
        msg_id: int,
        fault_tag: Optional[str],
    ) -> Envelope:
        """Slow path: route the send through the fault injector.

        The injector turns one logical send into zero (dropped /
        partitioned / crashed endpoint), one, or two (duplicated)
        scheduled deliveries.  Send-side accounting — counters and
        the ``net.send`` probe — happens exactly once per logical send
        regardless, so message-overhead metrics keep counting protocol
        messages, not injector artifacts.
        """
        now = self.env._now
        actions = self.injector.filter_send(src, dst, payload, delay, fault_tag)
        primary: Optional[Envelope] = None
        for copy_delay, tag, clamp in actions:
            deliver_at = now + copy_delay
            if self.fifo and clamp:
                deliver_at = self._fifo_clamp((src, dst), now, deliver_at)
            else:
                # Reordered copies skip the clamp *and* the floor update:
                # they may overtake without dragging later messages along.
                deliver_at = now + (deliver_at - now)
            self._seq = seq = self._seq + 1
            env_msg = Envelope(src, dst, payload, now, deliver_at, seq, msg_id, tag)
            if primary is None:
                primary = env_msg
            self._schedule(env_msg, deliver_at)
        if primary is None:
            # Dropped at send time: account for the send, deliver nothing.
            self._seq = seq = self._seq + 1
            primary = Envelope(src, dst, payload, now, now + delay, seq, msg_id, fault_tag)
        self._account(primary)
        return primary

    def multicast(self, src: int, dsts: Iterable[int], payload: Any) -> int:
        """Send ``payload`` to each destination; returns message count.

        The destination iterable is snapshotted up front so a generator
        argument cannot be left half-consumed if a send raises (e.g. an
        unknown node id, or an error injected below ``send``).

        Copy for copy the same as calling :meth:`send` per destination;
        on the perfect network (no injector, constant latency) one loop
        here does what ``send`` + ``_schedule`` would, with everything
        the copies share worked out once.
        """
        dsts = tuple(dsts)
        latency = self.latency
        if self.injector is not None or type(latency) is not DeterministicLatency:
            for dst in dsts:
                self.send(src, dst, payload)
            return len(dsts)
        env = self.env
        now = env._now
        raw = now + latency.T
        deliver_at = now + (raw - now)  # the form ``send`` schedules at
        if deliver_at < now:
            raise ValueError(f"negative delay {deliver_at - now}")
        nodes = self._nodes
        fifo = self.fifo
        last_delivery = self._last_delivery
        kind = type(payload).__name__
        counts = self.sent_by_kind
        queue = env._queue
        delivery = self._delivery
        for dst in dsts:
            if dst not in nodes:
                raise KeyError(f"unknown destination node {dst}")
            if fifo:
                link = (src, dst)
                floor = last_delivery.get(link, 0.0)
                if raw < floor or deliver_at < floor:
                    # A slower earlier send (under another latency
                    # model) pushed this link's floor out: the clamp
                    # lives in ``send``.
                    self.send(src, dst, payload)
                    continue
                last_delivery[link] = deliver_at
            self._msg_id = msg_id = self._msg_id + 1
            self._seq = seq = self._seq + 1
            env_msg = Envelope(src, dst, payload, now, deliver_at, seq, msg_id)
            self.total_sent += 1
            counts[kind] = counts.get(kind, 0) + 1
            if "net.send" in self._probes:
                env.emit("net.send", env_msg)
            env_msg.callbacks = delivery
            env._eid = eid = env._eid + 1
            heappush(queue, (deliver_at, NORMAL, eid, env_msg))
        return len(dsts)

    def _deliver(self, env_msg: Envelope) -> None:
        if self.injector is not None and not self.injector.deliverable(env_msg):
            return
        if "net.deliver" in self._probes:
            self.env.emit("net.deliver", env_msg)
        self._nodes[env_msg.dst].on_message(env_msg)
