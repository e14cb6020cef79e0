"""Protocol trace recording and conformance checking.

A :class:`TraceRecorder` subscribes to ``net.send`` and logs every envelope; the
``check_*`` functions then audit protocol-level pairing invariants that
neither the interference monitor (channel-level) nor unit tests
(per-node) can see globally:

* every REQUEST receives exactly one RESPONSE from each addressee,
  matched by round id — deferred responses included, duplicates are
  errors;
* every SEARCH-type RESPONSE a node sends is eventually balanced by an
  ACQUISITION(search) from that searcher (the ``waiting`` hand-shake of
  Figs. 3/4/7 — this is the liveness bookkeeping whose violation showed
  up as the saturation deadlock documented in DESIGN.md);
* every CHANGE_MODE is answered with a STATUS response (Fig. 5).

Use in tests::

    recorder = TraceRecorder(network)
    ... run simulation ...
    recorder.check_all()          # raises TraceViolation on any breach
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..sim import Envelope, Network
from .messages import AcqType, Acquisition, ChangeMode, Request, Response, ResType

__all__ = ["TraceViolation", "TraceRecorder"]


class TraceViolation(AssertionError):
    """A protocol-conformance breach found in the message trace."""


@dataclass(frozen=True)
class _Sent:
    time: float
    src: int
    dst: int
    payload: object


class TraceRecorder:  # repro: noqa(ANA401) tests/test_tracing.py
    """Records every sent envelope and audits pairing invariants."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.sent: List[_Sent] = []
        network.env.subscribe("net.send", self._record)

    def _record(self, now: float, envelope: Envelope) -> None:
        self.sent.append(
            _Sent(envelope.sent_at, envelope.src, envelope.dst, envelope.payload)
        )

    # -- individual checks ---------------------------------------------------
    def check_requests_answered(self) -> None:
        """Each (requester, responder, round) has exactly one response."""
        expected: Set[Tuple[int, int, int]] = set()
        for s in self.sent:
            if isinstance(s.payload, Request):
                key = (s.payload.sender, s.dst, s.payload.round_id)
                if key in expected:
                    raise TraceViolation(f"duplicate request {key}")
                expected.add(key)

        answered: Set[Tuple[int, int, int]] = set()
        for s in self.sent:
            if isinstance(s.payload, Response) and s.payload.res_type in (
                ResType.GRANT,
                ResType.REJECT,
                ResType.SEARCH,
                ResType.CONDITIONAL_GRANT,
            ):
                key = (s.dst, s.payload.sender, s.payload.round_id)
                if key not in expected:
                    # STATUS responses to CHANGE_MODE rounds share the
                    # Response class but use their own round ids; only
                    # request-type responses are audited here.
                    raise TraceViolation(
                        f"response without matching request: {key}"
                    )
                if key in answered:
                    raise TraceViolation(f"duplicate response for {key}")
                answered.add(key)

        missing = expected - answered
        if missing:
            raise TraceViolation(
                f"{len(missing)} requests never answered; first: "
                f"{sorted(missing)[0]}"
            )

    def check_search_acks_balanced(self) -> None:
        """Every SEARCH response is balanced by an ACQUISITION(search).

        Pairing is per (responder, searcher) and ordered — the FIFO
        links guarantee a searcher's ack arrives before its next search
        request reaches the same responder.
        """
        owed: Dict[Tuple[int, int], int] = defaultdict(int)
        for s in self.sent:
            if (
                isinstance(s.payload, Response)
                and s.payload.res_type is ResType.SEARCH
            ):
                owed[(s.src, s.dst)] += 1  # responder owes... searcher owes ack
            elif (
                isinstance(s.payload, Acquisition)
                and s.payload.acq_type is AcqType.SEARCH
            ):
                key = (s.dst, s.payload.sender)
                owed[key] -= 1
                if owed[key] < 0:
                    raise TraceViolation(
                        f"search ACQUISITION from {s.payload.sender} to "
                        f"{s.dst} without a prior SEARCH response"
                    )
        unbalanced = {k: v for k, v in owed.items() if v != 0}
        if unbalanced:
            raise TraceViolation(
                f"{len(unbalanced)} unacknowledged search responses "
                f"(waiting-counter leak); first: {sorted(unbalanced)[0]}"
            )

    def check_change_mode_answered(self) -> None:
        """Every CHANGE_MODE gets a STATUS response (Fig. 5)."""
        expected: Set[Tuple[int, int, int]] = set()
        for s in self.sent:
            if isinstance(s.payload, ChangeMode):
                expected.add((s.payload.sender, s.dst, s.payload.round_id))
        for s in self.sent:
            if (
                isinstance(s.payload, Response)
                and s.payload.res_type is ResType.STATUS
            ):
                expected.discard((s.dst, s.payload.sender, s.payload.round_id))
        if expected:
            raise TraceViolation(
                f"{len(expected)} CHANGE_MODE messages never answered with "
                f"STATUS; first: {sorted(expected)[0]}"
            )

    def check_all(self, allow_inflight: bool = False) -> None:  # repro: noqa(ANA401) tests/test_tracing.py
        """Run every audit.

        ``allow_inflight`` skips the completeness checks (use when the
        simulation was cut off mid-protocol rather than drained).
        """
        if not allow_inflight:
            self.check_requests_answered()
            self.check_search_acks_balanced()
            self.check_change_mode_answered()

    # -- statistics ------------------------------------------------------------
    def counts_by_type(self) -> Dict[str, int]:  # repro: noqa(ANA401) tests/test_tracing.py
        out: Dict[str, int] = defaultdict(int)
        for s in self.sent:
            out[type(s.payload).__name__] += 1
        return dict(out)
