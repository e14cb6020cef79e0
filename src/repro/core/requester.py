"""The requesting side of the adaptive scheme (Figs. 2, 3 and 9).

``Request_Channel`` with its three acquisition paths — own primary,
borrowing-update round, borrowing-search round — ``acquire(r)`` and
deallocation.  A plain base of :class:`~repro.core.adaptive.AdaptiveMSS`
(which holds the state these methods work on), not a scheme of its own.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..protocols.messages import (
    Acquisition,
    AcqType,
    NO_CHANNEL,
    Release,
    ReqType,
    Request,
    Response,
    ResType,
    Timestamp,
)
from .mode import Mode

__all__ = ["Requester"]


class Requester:
    """``Request_Channel``, ``acquire`` and deallocation (Figs. 2, 3, 9)."""

    # ------------------------------------------------------------------
    # Requesting a channel (Fig. 2)
    # ------------------------------------------------------------------
    def _request(self, ts: Timestamp):
        if self.mode in (Mode.BORROW_UPDATE, Mode.BORROW_SEARCH):
            raise AssertionError("concurrent Request_Channel on one MSS")
        self._req_ts = ts
        try:
            channel = yield from self._request_loop(ts)
        finally:
            self._req_ts = None
        return channel

    def _request_loop(self, ts: Timestamp):
        while True:
            # Sequentialization with in-flight searches we responded to
            # (Fig. 2's "wait UNTIL waiting_i = 0").  Parking is only
            # safe when every owed acknowledgment belongs to a search
            # *older* than this request — then every wait-for edge in
            # the system points to a strictly smaller timestamp and no
            # cycle can form (the paper's Theorem 2 argument).  A search
            # answered while this node was transiently in borrowing mode
            # can be *younger*; parking then would deadlock (we found
            # this empirically), so such requests take the guarded
            # update-round path below instead.
            if self.waiting > 0 and all(
                owed < ts for owed in self._owed_acks.values()
            ):
                self.pending = True
                for searcher, owed_ts in self._owed_acks.items():
                    if "wait.block" in self._probes:
                        self.env.emit(
                            "wait.block", (self.cell, searcher, "gate", owed_ts)
                        )
                while self.waiting > 0:
                    yield self._gate.wait()
                self.pending = False

            # Primary channel free?  Acquire with zero latency — unless
            # an in-flight search might be choosing it right now
            # (waiting > 0), in which case run a full permission round
            # on the primary: older searches defer us and then reject if
            # they took it; younger searches grant and record the grant,
            # excluding the channel from their later pick (D3/D6).
            free_primary = self.PR - self.use - self.interfered()
            if (
                self.guard_channels
                and self._req_kind == "new"
                and len(free_primary) <= self.guard_channels
            ):
                # Guard-channel extension: the last free primaries are
                # reserved for handoffs — the new call is blocked
                # (classic admission control).
                self._grant_mode = "guard_blocked"
                self._attempts += 1
                return None
            if free_primary:
                if self.waiting == 0:
                    channel = min(free_primary)
                    self._grant_mode = "local"
                    self._attempts += 1
                    self._acquire(channel)
                    return channel
                self.rounds += 1
                if self.rounds <= max(self.alpha, 1):
                    channel = yield from self._update_round(
                        min(free_primary), ts
                    )
                    if channel is not None:
                        return channel
                    continue
                channel = yield from self._borrow_search(ts)
                return channel

            if self.mode is Mode.LOCAL:
                # Enter borrowing mode and refresh neighborhood state
                # (Fig. 2 local else-branch: check_mode + wait for the
                # STATUS response of every neighbor, then retry).
                self._check_mode()
                if self.mode is Mode.LOCAL:
                    # Predictor refused (θ_l = 0 configurations); the
                    # request still needs neighbor state — force it.
                    self._enter_borrowing()
                yield from self._await_round(self._last_status_collector)
                continue

            # ---- borrowing mode (Fig. 2 else-branch) ----
            free = self.spectrum - self.use - self.interfered()
            target = self._best(free)
            self.rounds += 1
            if target is not None and self.rounds <= self.alpha:
                channel = yield from self._update_round(
                    min(self.topo.PR(target) & free), ts
                )
                if channel is not None:
                    return channel
                continue  # rejected: retry (Fig. 2 recursion, same ts)

            channel = yield from self._borrow_search(ts)
            return channel  # search is terminal: channel or dropped call

    def _update_round(self, channel: int, ts: Timestamp):
        """One update-style permission round (mode 2) for ``channel``.

        Used both to borrow a Best()-target's primary and to guard the
        acquisition of an own primary while searches are in flight.
        Returns the channel on unanimous grant, else None.
        """
        prev_mode = self.mode
        self.mode = Mode.BORROW_UPDATE
        self._grant_mode = "update"
        self._attempts += 1
        collector = self._open_round(self.IN)
        self._broadcast(
            Request(ReqType.UPDATE, channel, ts, self.cell, self._collector_round)
        )
        verdicts, complete = yield from self._await_round(collector)

        if complete and all(v is ResType.GRANT for v in verdicts.values()):
            self._acquire(channel)  # mode 2 → BORROW_IDLE, drains DeferQ
            if prev_mode is Mode.LOCAL:
                # A guarded own-primary round from local mode is
                # invisible to the neighbors (no CHANGE_MODE was sent),
                # so restore and let the predictor decide.
                self.mode = Mode.LOCAL
                self._check_mode()
            return channel
        # Failure: revert mode and release the granters (Fig. 2).
        self.mode = prev_mode
        if complete:
            for j in sorted(verdicts):
                if verdicts[j] is ResType.GRANT:
                    self._send(j, Release(self.cell, channel))
        else:
            # Round deadline expired: a missing verdict is treated as a
            # rejection (safe — we never acquire), but it may be a GRANT
            # still in flight or already recorded at the responder, so
            # release to *all* of IN.  RELEASE is idempotent and a no-op
            # at anyone who never granted, and it clears both the U
            # mirror entry and the D6 granted_out overlay at granters.
            self._broadcast(Release(self.cell, channel))
        return None

    def _borrow_search(self, ts: Timestamp):
        """One borrowing-search round (mode 3): guaranteed to find a
        channel if one exists in the region (paper §3.5)."""
        self.mode = Mode.BORROW_SEARCH
        self._grant_mode = "search"
        self._attempts += 1
        collector = self._open_round(self.IN)
        if "search.begin" in self._probes:
            self.env.emit("search.begin", (self.cell, ts))
        self._broadcast(
            Request(ReqType.SEARCH, NO_CHANNEL, ts, self.cell, self._collector_round)
        )
        _responses, complete = yield from self._await_round(collector)

        if not complete:
            # Some neighbor never answered (lost beyond the retry
            # budget, partitioned, or crashed): the interference view is
            # stale, so picking any channel could collide — abandon.
            # The ACQUISITION(NO_CHANNEL) broadcast below still goes out
            # so every responder's ``waiting`` counter is decremented.
            self._acquire(None)
            return None

        # Each SEARCH response refreshed the corresponding U_j mirror,
        # so the interference view is now a consistent snapshot of the
        # whole region (plus unconfirmed grants, D6).
        free = self.spectrum - self.use - self.interfered()
        channel = min(free) if free else None
        self._acquire(channel)  # None → ACQUISITION(-1): unblocks waiters
        return channel

    # ------------------------------------------------------------------
    # acquire(r) (Fig. 3)
    # ------------------------------------------------------------------
    def _acquire(self, channel: Optional[int]) -> None:
        if channel is not None:
            self._grab(channel)
        self.rounds = 0

        if self.mode in (Mode.LOCAL, Mode.BORROW_IDLE):
            self.local_acquires += 1
            self.local_notify_sum += len(self.UpdateS)
            if self.UpdateS:
                self._broadcast(
                    Acquisition(AcqType.NON_SEARCH, self.cell, channel),
                    dsts=sorted(self.UpdateS),
                )
        elif self.mode is Mode.BORROW_UPDATE:
            # Granters already recorded the channel when they granted.
            self.mode = Mode.BORROW_IDLE
        else:  # BORROW_SEARCH — notify everyone, even on failure, so
            # their ``waiting`` counters are decremented (Fig. 3 case 3).
            wire_channel = channel if channel is not None else NO_CHANNEL
            self._broadcast(Acquisition(AcqType.SEARCH, self.cell, wire_channel))
            # The ACQUISITION broadcast is now in flight: from here on,
            # nobody is *blocked* on this search any more.
            if "search.end" in self._probes:
                self.env.emit("search.end", (self.cell,))
            self.mode = Mode.BORROW_IDLE

        self._drain_deferq()
        if self.mode is Mode.LOCAL:
            self._check_mode()

    def _drain_deferq(self) -> None:
        """Answer every deferred request (tail of Fig. 3)."""
        while self.DeferQ:
            req_type, q, _ts, j, rid = self.DeferQ.popleft()
            if "wait.unblock" in self._probes:
                self.env.emit("wait.unblock", (j, self.cell))
            if req_type is ReqType.UPDATE:
                if q in self.use:
                    self._send(j, Response(ResType.REJECT, self.cell, q, rid))
                else:
                    self._send(j, Response(ResType.GRANT, self.cell, q, rid))
                    self._mirror_add(self.granted_out, j, q)
            else:
                self._respond_search(j, _ts, rid)

    # ------------------------------------------------------------------
    # Deallocate (Fig. 9)
    # ------------------------------------------------------------------
    def _repack_substitute(self, channel: int) -> int:
        """Channel reassignment (the ``repack`` extension): when an own
        primary frees while borrowed channels are held, retire a
        borrowed channel instead — the remaining call is reassigned to
        the primary, handing the borrowed channel back to its owners."""
        if not self.repack or channel not in self.PR:
            return channel
        borrowed = self.use - self.PR
        if not borrowed:
            return channel
        retired = max(borrowed)  # prefer retiring the highest borrowed id
        self._alias.setdefault(retired, deque()).append(channel)
        self.repacks += 1
        return retired

    def _release(self, channel: int) -> None:
        self._drop_from_use(channel)
        if self.mode is Mode.LOCAL and channel in self.PR:
            # Primary release in local mode: only borrowing neighbors
            # track our state (Fig. 9).
            if self.UpdateS:
                self._broadcast(
                    Release(self.cell, channel), dsts=sorted(self.UpdateS)
                )
        else:
            # Borrowed channels always go to the whole region (D7).
            self._broadcast(Release(self.cell, channel))
        self._check_mode()
