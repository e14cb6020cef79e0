"""Protocol hardening primitives: acknowledgements, retransmission,
duplicate suppression.

The schemes in this repository were written against a reliable FIFO
network.  When a :class:`~repro.faults.plan.FaultPlan` is active, every
MSS routes its control messages through a :class:`ReliableLink` — a
stop-and-wait ARQ per logical message:

* every protocol message is acknowledged by the receiver with a tiny
  :class:`Ack` carrying the envelope's ``msg_id``;
* an unacknowledged message is retransmitted after an RTO sized from
  the latency model's worst-case round trip, with exponential backoff,
  up to ``MAX_RETRIES`` times;
* retransmissions reuse the original ``msg_id``, so the receiver-side
  :class:`DedupFilter` delivers each logical message to the handler
  exactly once no matter how many copies (injected duplicates or
  retransmissions) arrive;
* the window is **one message per destination**: while a message to
  ``dst`` is unacknowledged, later sends to ``dst`` wait in a FIFO
  queue.  This restores the in-*order* half of the reliable-FIFO
  contract, not just the delivery half.  It is load-bearing for
  safety: a retransmission is a *late* copy, and if newer traffic
  could overtake it, a stale full-state STATUS response could arrive
  after a newer ACQUISITION and wipe the just-recorded channel from
  the receiver's ``U_j`` mirror — which is exactly a co-channel
  violation waiting to happen (the mirror is what local-mode
  acquisitions trust without any round).

Reliability is therefore end-to-end *per direction*: a request/response
round survives loss as long as no single message exhausts its retry
budget (probability ``p^(MAX_RETRIES+1)`` under i.i.d. loss ``p``).
When the budget *is* exhausted — heavy loss, a partition outlasting the
backoff schedule, or a crashed peer — the protocols fall back to their
round deadlines and resolve the round conservatively (missing verdicts
count as rejections; searches abandon), which preserves mutual
exclusion at the price of liveness.  See docs/PROTOCOL.md §10.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Tuple

from ..sim.network import Message, decode_payload, encode_payload

__all__ = ["Ack", "Hardening", "ReliableLink", "DedupFilter"]

#: Retransmissions of one message before the ARQ gives up on it.
MAX_RETRIES = 3
#: Growth factor of the retransmission timer per attempt.
BACKOFF = 2.0


@dataclass(frozen=True)
class Ack(Message):
    """Link-layer acknowledgement for envelope ``msg_id``.

    Acks are sent outside the ARQ (no ack-of-ack) and are themselves
    subject to fault injection; a lost ack simply costs the sender one
    retransmission, which the receiver's dedup filter absorbs.
    """

    msg_id: int


@dataclass(frozen=True)
class Hardening:
    """Resolved hardening parameters (all timeouts concrete).

    Built by :meth:`from_plan`, which sizes the timers from the
    latency model's ``max_delay`` plus the plan's worst injected
    delay:

    * ``rto`` — 2.5× the worst one-way delay: strictly above the
      worst-case round trip (request out + ack back), so a timer can
      never fire before an in-flight ack on a healthy link.
    * ``round_deadline`` — bounds a full request/response round: two
      ARQ budgets (request leg + response leg, each a geometric backoff
      series) plus slack.  A round that blows this deadline resolves
      conservatively.
    * ``ack_timeout`` — backstop for the adaptive scheme's owed-ack
      ``waiting`` counter: strictly above ``round_deadline`` plus one
      ARQ budget, so it can only fire after the search it tracks has
      certainly concluded (or died) — clearing early would undermine
      the Theorem 1 case 1(c) argument.
    """

    rto: float
    round_deadline: float
    ack_timeout: float

    @classmethod
    def from_plan(cls, plan: Any, max_delay: float) -> "Hardening":
        """Size every timeout from the worst one-way latency: the latency
        model's ``max_delay`` plus the plan's worst injected delay."""
        max_one_way = max_delay + plan.max_extra_delay()
        rto = 2.5 * max_one_way
        # Total time one message can spend in the ARQ before giving up:
        # rto * (1 + b + b^2 + ... + b^retries) plus the final flight.
        budget = sum(rto * BACKOFF**attempt for attempt in range(MAX_RETRIES + 1)) + max_one_way
        round_deadline = 2.0 * budget + 4.0 * max_one_way
        return cls(
            rto=rto,
            round_deadline=round_deadline,
            ack_timeout=round_deadline + budget + 4.0 * max_one_way,
        )


class _Pending:
    """One unacknowledged message in the ARQ window."""

    __slots__ = ("dst", "payload", "attempt")

    def __init__(self, dst: int, payload: Any) -> None:
        self.dst = dst
        self.payload = payload
        self.attempt = 0


class ReliableLink:
    """Sender-side per-destination stop-and-wait ARQ for one MSS.

    ``send`` transmits through the network and arms a retransmission
    timer; ``on_ack`` clears the pending entry.  The timer resends with
    the *same* ``msg_id`` (receiver dedup makes delivery exactly-once)
    and exponential backoff until ``MAX_RETRIES`` is exhausted, then
    reports the message as undeliverable on the probe bus
    (``fault.retry_exhausted``) and gives up — the protocol's round
    deadline takes it from there.

    At most one message per destination is in flight; later sends to
    the same destination queue until the ack (or retry exhaustion)
    frees the link.  Delivered messages therefore arrive in send order
    per (src, dst) pair even across retransmissions — see the module
    docstring for why mutual exclusion depends on this.
    """

    #: Snapshot fields (see :mod:`repro.snap.state`); :meth:`state_dict`
    #: adds the two that hold message payloads.
    SNAPSHOT = (
        "down",
        ("inflight", "_inflight"),
        "retransmissions",
        "recovered",
        "exhausted",
    )

    def __init__(
        self,
        env: Any,
        network: Any,
        node_id: int,
        config: Hardening,
        metrics: Any = None,
    ) -> None:
        self.env = env
        self._probes = env._probes
        self.network = network
        self.node_id = node_id
        self.config = config
        self.metrics = metrics
        #: True while the owning MSS is crashed; suppresses timers.
        self.down = False
        self._pending: Dict[int, _Pending] = {}
        #: msg_id of the single in-flight message per destination.
        self._inflight: Dict[int, int] = {}
        #: Sends awaiting their turn on a busy destination link.
        self._queue: Dict[int, Deque[Any]] = {}
        #: Diagnostics counters.
        self.retransmissions = 0
        self.recovered = 0
        self.exhausted = 0

    @property
    def in_flight(self) -> int:  # repro: noqa(ANA401) tests/test_faults.py
        return len(self._pending)

    def send(self, dst: int, payload: Any) -> None:
        """Transmit ``payload`` reliably, in order (bounded retries)."""
        if dst in self._inflight:
            self._queue.setdefault(dst, deque()).append(payload)
            return
        self._transmit(dst, payload)

    def on_ack(self, ack: Ack) -> None:
        record = self._pending.pop(ack.msg_id, None)
        if record is None:
            return
        if record.attempt > 0:
            # At least one retransmission was needed and it got through.
            self.recovered += 1
            if self.metrics is not None:
                self.metrics.record_fault_recovery("retransmit")
            if "fault.recovered" in self._probes:
                self.env.emit(
                    "fault.recovered", (self.node_id, record.dst, ack.msg_id)
                )
        self._link_free(record.dst, ack.msg_id)

    def flush(self) -> None:
        """Abandon all pending/queued messages (crash: state lost)."""
        self._pending.clear()
        self._inflight.clear()
        self._queue.clear()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "pending": {
                msg_id: [p.dst, encode_payload(p.payload), p.attempt]
                for msg_id, p in self._pending.items()
            },
            "queue": {
                dst: [encode_payload(p) for p in queued]
                for dst, queued in self._queue.items()
                if queued
            },
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._pending = {}
        for msg_id, (dst, payload, attempt) in sorted(state["pending"].items()):
            record = self._pending[msg_id] = _Pending(dst, decode_payload(payload))
            record.attempt = attempt
        self._queue = {
            dst: deque(decode_payload(p) for p in payloads)
            for dst, payloads in sorted(state["queue"].items())
        }

    # -- per-destination ordering ------------------------------------------
    def _transmit(self, dst: int, payload: Any) -> None:
        envelope = self.network.send(self.node_id, dst, payload)
        self._pending[envelope.msg_id] = _Pending(dst, payload)
        self._inflight[dst] = envelope.msg_id
        self._arm(envelope.msg_id, self.config.rto)

    def _link_free(self, dst: int, msg_id: int) -> None:
        """The in-flight message settled; release the next queued send."""
        if self._inflight.get(dst) != msg_id:
            return  # flushed and re-used in the meantime
        del self._inflight[dst]
        queue = self._queue.get(dst)
        if queue:
            self._transmit(dst, queue.popleft())
        elif queue is not None:
            del self._queue[dst]

    # -- timers ------------------------------------------------------------
    def _arm(self, msg_id: int, delay: float) -> None:
        timer = self.env.timeout(delay, msg_id)
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, event: Any) -> None:
        msg_id = event._value
        record = self._pending.get(msg_id)
        if record is None:
            return  # acknowledged in time
        if self.down:
            del self._pending[msg_id]
            self._inflight.pop(record.dst, None)
            return
        if record.attempt >= MAX_RETRIES:
            del self._pending[msg_id]
            self.exhausted += 1
            if self.metrics is not None:
                self.metrics.record_retry_exhausted()
            if "fault.retry_exhausted" in self._probes:
                self.env.emit(
                    "fault.retry_exhausted", (self.node_id, record.dst, msg_id)
                )
            # Give up on this message but not on the link: later queued
            # sends still go out (in order — the lost message simply
            # has no delivery for them to overtake).
            self._link_free(record.dst, msg_id)
            return
        record.attempt += 1
        self.retransmissions += 1
        if self.metrics is not None:
            self.metrics.record_retry()
        if "fault.retransmit" in self._probes:
            self.env.emit(
                "fault.retransmit",
                (self.node_id, record.dst, msg_id, record.attempt),
            )
        self.network.send(
            self.node_id,
            record.dst,
            record.payload,
            msg_id=msg_id,
            fault_tag="retrans",
        )
        self._arm(msg_id, self.config.rto * BACKOFF**record.attempt)


class DedupFilter:
    """Receiver-side duplicate suppression keyed on ``Envelope.msg_id``.

    ``accept(src, msg_id)`` rejects an id iff it is among the last
    ``window`` ids accepted from ``src`` (ids are monotonically
    increasing per network, and duplicates can only arrive within the
    ARQ's bounded retry horizon, so a small window is exact in
    practice).

    Each source's window is two ``array('q')`` columns — 16 bytes per
    remembered id: ``order`` holds the accepted ids in acceptance order
    (the oldest is evicted first) and ``ids`` the same ids sorted, for
    ``bisect`` membership.  Ids nearly always arrive and leave in
    increasing order, so an append past the largest id and an eviction
    of the smallest skip the search.
    """

    #: Snapshot fields; ``_seen`` goes through :meth:`state_dict` as the
    #: acceptance order alone (the sorted column is derived from it).
    SNAPSHOT = ("suppressed",)

    def __init__(self, window: int = 512) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._seen: Dict[int, Tuple[array, array]] = {}
        self.suppressed = 0

    def state_dict(self) -> Dict[str, Any]:
        return {"seen": {src: order.tolist() for src, (order, _) in self._seen.items()}}

    def load_state(self, state: Dict[str, Any]) -> None:
        self._seen = {
            src: (array("q", order), array("q", sorted(order)))
            for src, order in sorted(state["seen"].items())
        }

    def accept(self, src: int, msg_id: int) -> bool:
        """Record (src, msg_id); False if it is in ``src``'s window."""
        entry = self._seen.get(src)
        if entry is None:
            entry = self._seen[src] = (array("q"), array("q"))
        order, ids = entry
        if not ids or msg_id > ids[-1]:
            ids.append(msg_id)
        else:
            at = bisect_left(ids, msg_id)
            if ids[at] == msg_id:
                self.suppressed += 1
                return False
            ids.insert(at, msg_id)
        order.append(msg_id)
        if len(order) > self.window:
            oldest = order.pop(0)
            if ids[0] == oldest:
                del ids[0]
            else:
                del ids[bisect_left(ids, oldest)]
        return True

    def reset(self) -> None:
        """Forget everything (crash with state loss)."""
        self._seen.clear()
