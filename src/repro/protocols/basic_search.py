"""Basic search scheme (Dong & Lai [4]; paper §2.2).

An MSS needing a channel polls its entire interference region: every
neighbor replies with its set of used channels, the requester computes
the free set and picks one.  No node maintains any information about
its neighborhood between requests, so acquisitions cost exactly
2N messages (N REQUESTs + N RESPONSEs) and releases are free.

Concurrent searches in overlapping regions are serialized by request
timestamps: an MSS that is itself searching *defers* its response to
any request carrying a higher (younger) timestamp until its own search
completes — the deferred response then reflects the channel it just
acquired, so the younger searcher cannot pick the same one (this is the
mutual-exclusion argument of the paper's Theorem 1, case 1a).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .base import MSS
from .messages import NO_CHANNEL, ReqType, Request, ResType, Response, Timestamp

__all__ = ["BasicSearchMSS"]


class BasicSearchMSS(MSS):
    """Search-based dynamic allocation (stateless between requests)."""

    scheme = "basic_search"
    requires_fifo = False  # tests/test_fifo_assumption.py stresses it over unordered links
    SNAPSHOT = (("collector_round", "_collector_round"),)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._searching = False
        self._search_ts: Optional[Timestamp] = None
        #: (sender, round_id) pairs whose response we postponed.
        self._deferred: List[Tuple[int, int]] = []

    # -- requesting ---------------------------------------------------------
    def _request(self, ts: Timestamp):
        self._attempts = 1
        self._grant_mode = "search"
        self._search_ts = ts
        self._searching = True
        collector = self._open_round(self.IN)
        self._broadcast(
            Request(ReqType.SEARCH, NO_CHANNEL, ts, self.cell, self._collector_round)
        )
        use_sets, complete = yield from self._await_round(collector)

        if complete:
            free = self.spectrum - self.use
            for use_j in use_sets.values():
                free -= use_j
            channel = min(free) if free else None
        else:
            # Hardened round deadline expired: with any neighbor's Use
            # set unknown, no pick is provably safe — abandon (the
            # deferred responses below still go out, so younger
            # searchers are not stuck behind us).
            channel = None
        if channel is not None:
            self._grab(channel)

        # Search complete: answer everyone we deferred, with the
        # post-acquisition Use set (this is what makes deferral safe).
        self._searching = False
        self._search_ts = None
        deferred, self._deferred = self._deferred, []
        snapshot = frozenset(self.use)
        for sender, rid in deferred:
            self._send(sender, Response(ResType.SEARCH, self.cell, snapshot, rid))
        return channel

    def _release(self, channel: int) -> None:
        # Stateless scheme: nobody tracks our usage, nothing to send.
        self._drop_from_use(channel)

    # -- message handlers -----------------------------------------------------
    def _on_Request(self, msg: Request) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        if msg.req_type is not ReqType.SEARCH:
            raise AssertionError("basic search only issues search requests")
        if self._searching and msg.ts > self._search_ts:
            # Younger request: defer until our own search completes.
            self._deferred.append((msg.sender, msg.round_id))
        else:
            self._send(
                msg.sender,
                Response(ResType.SEARCH, self.cell, frozenset(self.use), msg.round_id),
            )

    def _on_Response(self, msg: Response) -> None:
        if self._awaited(msg, self._collector, self._collector_round):
            self._collector.deliver(msg.sender, msg.payload)
        # else: stale response from a past round — cannot happen in this
        # scheme (every response is matched), but tolerate defensively.
