"""Span-based tracing of channel-acquisition attempts.

Every ``request_channel`` call is one **span**: opened by
``request.begin``, optionally marked by ``request.serve`` (the moment
the per-MSS lock is acquired and the protocol starts working), closed
by ``request.end``.  The three events carry a per-MSS request id, so
begin/serve/end are paired exactly even when several requests of one
cell overlap in the queue (the setup-deadline path).

While a cell's request is being served, protocol-level probe events of
that cell — borrow rounds, searches, mode transitions, defers, ARQ
retries, round timeouts — are attached to the span as **child events**.
Events of a cell with no span in flight are recorded as free-standing
**instants** (mode transitions driven by releases, background ARQ
traffic): they still appear in the Chrome trace, just not inside a
span.

The tracer is a passive probe-bus subscriber: it never mutates
simulation state or schedules events, and it tolerates legacy bare-int
payloads (hand-driven tests) by ignoring what it cannot pair.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "SpanTracer"]


def jsonify(value: Any) -> Any:
    """Recursively convert a probe payload to JSON-safe plain data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(v) for v in value)
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    return repr(value)


class Span:
    """One channel-acquisition attempt (see module docstring)."""

    __slots__ = (
        "cell",
        "req_id",
        "kind",
        "t_begin",
        "t_serve",
        "t_end",
        "channel",
        "events",
    )
    #: Snapshot fields (see :mod:`repro.snap.state`): every slot.
    SNAPSHOT = __slots__

    def __init__(self, cell: int, req_id: int, kind: str, t_begin: float):
        self.cell = cell
        self.req_id = req_id
        self.kind = kind
        self.t_begin = t_begin
        self.t_serve: Optional[float] = None
        self.t_end: Optional[float] = None
        self.channel: Optional[int] = None
        #: Child events: (time, probe kind, JSON-safe detail).
        self.events: List[Tuple[float, str, Any]] = []

    @property
    def granted(self) -> bool:
        return self.channel is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell,
            "req_id": self.req_id,
            "kind": self.kind,
            "t_begin": self.t_begin,
            "t_serve": self.t_serve,
            "t_end": self.t_end,
            "channel": self.channel,
            "granted": self.granted,
            "events": [list(e) for e in self.events],
        }


#: Probe kinds attached to the serving span of the event's cell.  The
#: value extracts the cell from the payload (all are tuples with the
#: acting cell first).
_CHILD_KINDS = (
    "round.begin",
    "round.end",
    "search.begin",
    "search.end",
    "mode.change",
    "fault.round_timeout",
    "fault.ack_timeout",
    "fault.retransmit",
    "fault.retry_exhausted",
)


class SpanTracer:
    """Pairs request.begin/serve/end into spans; attaches child events.

    Parameters
    ----------
    env:
        The simulation environment (probe bus).
    """

    #: Cap on *retained* closed spans, a memory bound.  Pairing
    #: continues beyond the cap (so ``span_stats`` stays exact);
    #: overflowing spans are dropped and counted instead of retained.
    MAX_SPANS = 1_000_000

    #: Snapshot fields (see :mod:`repro.snap.state`).
    SNAPSHOT = (
        ("closed", "closed", Span),
        ("open", "open", Span),
        ("serving", "_serving"),
        "instants",
        "stats",
    )

    def __init__(self, env: Any) -> None:
        self.env = env
        #: Closed spans in close order (deterministic).
        self.closed: List[Span] = []
        #: (cell, req_id) -> open span.
        self.open: Dict[Tuple[int, int], Span] = {}
        #: cell -> req_id currently being *served* (serve seen, no end).
        self._serving: Dict[int, int] = {}
        #: Free-standing instants: (time, probe kind, cell, detail).
        self.instants: List[Tuple[float, str, Optional[int], Any]] = []
        self.stats = {
            "opened": 0,
            "closed": 0,
            "dropped": 0,
            "malformed": 0,
            "orphan_children": 0,
        }
        env.subscribe("request.begin", self._on_begin)
        env.subscribe("request.serve", self._on_serve)
        env.subscribe("request.end", self._on_end)
        for kind in _CHILD_KINDS:
            env.subscribe(kind, self._make_child_handler(kind))

    # -- span lifecycle ----------------------------------------------------
    def _on_begin(self, now: float, payload) -> None:
        if not (isinstance(payload, tuple) and len(payload) >= 2):
            self.stats["malformed"] += 1
            return
        cell, req_id = payload[0], payload[1]
        kind = payload[2] if len(payload) > 2 else "?"
        self.open[(cell, req_id)] = Span(cell, req_id, kind, now)
        self.stats["opened"] += 1

    def _on_serve(self, now: float, payload) -> None:
        if not (isinstance(payload, tuple) and len(payload) >= 2):
            self.stats["malformed"] += 1
            return
        cell, req_id = payload[0], payload[1]
        span = self.open.get((cell, req_id))
        if span is None:
            self.stats["malformed"] += 1
            return
        span.t_serve = now
        self._serving[cell] = req_id

    def _on_end(self, now: float, payload) -> None:
        if not (isinstance(payload, tuple) and len(payload) >= 2):
            self.stats["malformed"] += 1
            return
        cell, req_id = payload[0], payload[1]
        span = self.open.pop((cell, req_id), None)
        if span is None:
            self.stats["malformed"] += 1
            return
        if self._serving.get(cell) == req_id:
            del self._serving[cell]
        span.t_end = now
        span.channel = payload[2] if len(payload) > 2 else None
        self.stats["closed"] += 1
        if len(self.closed) < self.MAX_SPANS:
            self.closed.append(span)
        else:
            self.stats["dropped"] += 1

    # -- child events --------------------------------------------------------
    def _make_child_handler(self, kind: str):
        def handler(now: float, payload) -> None:
            if isinstance(payload, tuple) and payload:
                cell = payload[0]
                detail: Any = payload[1:]
            elif isinstance(payload, int):
                cell = payload  # e.g. search.end carries the bare cell
                detail = ()
            else:
                cell = None
                detail = payload
            span = self._span_for(cell)
            if span is not None:
                span.events.append((now, kind, jsonify(detail)))
            else:
                self.stats["orphan_children"] += 1
                self.instants.append((now, kind, cell, jsonify(detail)))

        return handler

    def _span_for(self, cell: Optional[int]) -> Optional[Span]:
        if cell is None:
            return None
        req_id = self._serving.get(cell)
        if req_id is not None:
            return self.open.get((cell, req_id))
        return None

    # -- export --------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (picklable, JSON-safe) for :class:`ObsData`."""
        open_at_end = [
            span.to_dict()
            for span in sorted(
                self.open.values(), key=lambda s: (s.cell, s.req_id)
            )
        ]
        return {
            "spans": [span.to_dict() for span in self.closed],
            "open_at_end": open_at_end,
            "instants": [list(i) for i in self.instants],
            "stats": dict(self.stats),
        }
