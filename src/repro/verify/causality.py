"""Message-causality and FIFO-delivery checker.

The adaptive protocol's waiting/ACQUISITION handshake silently assumes
per-link FIFO delivery (``tests/test_fifo_assumption.py`` shows what
breaks without it), and every request/response round assumes a node
never answers a round it has not heard about.  This sanitizer asserts
both properties on the live message stream:

* **FIFO** — for each ``(src, dst)`` link, envelopes must be delivered
  in send order (send sequence numbers are globally increasing, so
  per-link delivery order must be too).  Checked only when the network
  is configured FIFO — a ``fifo=False`` network is *allowed* to
  reorder, that is the experiment.
* **No reply-before-request** — a reply for round ``R`` sent by node
  ``j`` to node ``i`` must be causally preceded by ``j`` *processing*
  ``i``'s REQUEST or CHANGE_MODE carrying round ``R`` (the protocols
  announce this on the ``proto.request`` probe from their handlers, so
  white-box tests that inject messages straight into handlers are
  covered too).  Each responder answers a round at most once; a second
  reply is flagged as well.
* **No request processed twice** — on a FIFO network a requester's
  rounds reach each responder in increasing ``round_id`` order, so a
  REQUEST or CHANGE_MODE whose round is at or below the highest one of
  its message type the responder has processed from that requester is
  a ``duplicate_request`` (two types may share a round: a request and
  the notice that follows its grant).  ARQ retransmissions and
  injector copies are not judged (a retransmission may legitimately
  land after a later round), and a responder that crashes with lost
  state starts over: its duplicate window is reset, so a
  retransmission it had already processed is then legitimately
  processed again.
* **No time travel** — an envelope's delivery time is never before its
  send time.
* **Every round answered** — :meth:`finalize`, at the end of a drained
  run, flags every round still open: processed and never answered
  (Theorem 2 assumes each REQUEST and CHANGE_MODE gets its RESPONSE).

State grows with the number of open rounds; rounds are forgotten as
soon as the (single) response of each responder is observed, keeping
the per-node footprint proportional to in-flight traffic.  The
duplicate check keeps one round id per link and message type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..sim import Envelope, Environment
from .base import Sanitizer, Violation

__all__ = ["CausalityViolation", "CausalityChecker"]


@dataclass(frozen=True)
class CausalityViolation(Violation):
    """One causality breach on the message fabric."""

    kind: str  # "fifo" | "reply_before_request" | "duplicate_request" | "time_travel" | "unanswered_round"
    src: int
    dst: int
    detail: str

    def __str__(self) -> str:
        return (
            f"t={self.time}: {self.kind} violation on link "
            f"{self.src}->{self.dst}: {self.detail}"
        )


class CausalityChecker(Sanitizer):
    """Asserts per-link FIFO delivery and request/response causality.

    Parameters
    ----------
    env:
        Environment to observe.
    policy:
        ``"raise"`` or ``"record"`` (see :class:`Sanitizer`).
    check_fifo:
        Enable the per-link ordering and duplicate-request checks.
        Pass the network's ``fifo`` flag: over a deliberately
        reordering network the protocol's own runtime assertions are
        the oracle, not this.
    """

    name = "causality"

    def __init__(
        self, env: Environment, policy: str = "raise", check_fifo: bool = True
    ) -> None:
        self.check_fifo = check_fifo
        #: (src, dst) -> highest send-sequence number delivered so far.
        self._delivered_seq: Dict[Tuple[int, int], int] = {}
        #: responder -> set of (requester, round_id) whose request the
        #: responder has processed and not yet answered.
        self._open_rounds: Dict[int, Set[Tuple[int, int]]] = {}
        #: responder -> (requester, message type) -> highest round id
        #: processed.
        self._highest_round: Dict[int, Dict[Tuple[int, Optional[type]], int]] = {}
        #: The payload type of the envelope being delivered, and whether
        #: it is an ARQ or injector copy: a handler announcing a round
        #: runs inside its delivery.
        self._delivered_type: Optional[type] = None
        self._delivered_copy = False
        self.messages_checked = 0
        super().__init__(env, policy)

    def _attach(self) -> None:
        self._listen("net.send", self._on_send)
        self._listen("net.deliver", self._on_deliver)
        self._listen("proto.request", self._on_request_seen)
        self._listen("fault.crash", self._on_crash)

    # -- probe handlers ----------------------------------------------------
    def _on_send(self, now: float, envelope: Envelope) -> None:
        if envelope.deliver_at < envelope.sent_at:
            self._report(
                CausalityViolation(
                    now,
                    "time_travel",
                    envelope.src,
                    envelope.dst,
                    f"{envelope.kind} #{envelope.seq} delivers at "
                    f"{envelope.deliver_at} < sent at {envelope.sent_at}",
                )
            )
        payload = envelope.payload
        if envelope.fault_tag is not None:
            # ARQ retransmissions and injector copies re-send payloads
            # whose round bookkeeping already happened at the original
            # send (and an injected reorder may carry a reply out of
            # clamp); they are not protocol actions — skip the
            # reply-matching for them.
            return
        if getattr(payload, "is_reply", False):
            key = (envelope.dst, payload.round_id)
            open_rounds = self._open_rounds.get(envelope.src)
            if open_rounds is None or key not in open_rounds:
                self._report(
                    CausalityViolation(
                        now,
                        "reply_before_request",
                        envelope.src,
                        envelope.dst,
                        f"{type(payload).__name__} for round "
                        f"{payload.round_id} without a processed request",
                    )
                )
            else:
                open_rounds.discard(key)

    def _on_deliver(self, now: float, envelope: Envelope) -> None:
        self.messages_checked += 1
        self._delivered_type = type(envelope.payload)
        self._delivered_copy = envelope.fault_tag is not None
        if self.check_fifo:
            if envelope.fault_tag is not None:
                # An injected reorder legitimately overtakes (and must
                # not drag the link's FIFO watermark forward); clamped
                # retransmissions/duplicates are in order but carry
                # later sequence numbers than the untagged stream, so
                # they neither need checking nor advance the watermark.
                return
            link = (envelope.src, envelope.dst)
            last = self._delivered_seq.get(link, 0)
            if envelope.seq < last:
                self._report(
                    CausalityViolation(
                        now,
                        "fifo",
                        envelope.src,
                        envelope.dst,
                        f"{envelope.kind} #{envelope.seq} delivered after "
                        f"#{last} (send order overtaken)",
                    )
                )
            else:
                self._delivered_seq[link] = envelope.seq

    def _on_request_seen(self, now: float, payload: Tuple[int, int, int]) -> None:
        responder, requester, round_id = payload
        self._open_rounds.setdefault(responder, set()).add(
            (requester, round_id)
        )
        if not self.check_fifo:
            return
        key = (requester, self._delivered_type)
        seen = self._highest_round.setdefault(responder, {})
        highest = seen.get(key, -1)
        if round_id > highest:
            seen[key] = round_id
        elif not self._delivered_copy:
            self._report(
                CausalityViolation(
                    now,
                    "duplicate_request",
                    requester,
                    responder,
                    f"round {round_id} processed after round {highest}",
                )
            )

    def _on_crash(self, now: float, payload: Tuple[int, bool]) -> None:
        cell, lose_state = payload
        if lose_state:
            self._highest_round.pop(cell, None)

    # -- verdict -----------------------------------------------------------
    def finalize(self) -> None:
        """Flag every round processed and never answered.

        Call only after a drained run over a network that loses
        nothing: a crashed responder legitimately forgets the rounds it
        held, so :class:`SanitizerSuite` skips this under a fault plan.
        """
        now = self.env.now
        for responder in sorted(self._open_rounds):
            for requester, round_id in sorted(self._open_rounds[responder]):
                self._report(
                    CausalityViolation(
                        now,
                        "unanswered_round",
                        responder,
                        requester,
                        f"round {round_id} processed and never answered",
                    )
                )
