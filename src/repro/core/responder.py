"""The responding side of the adaptive scheme (Figs. 4, 5, 7 and 8).

What a station does on a message: REQUEST (update and search),
RESPONSE, CHANGE_MODE, ACQUISITION and RELEASE, and the crash / restart
hooks that void and rebuild that view.  A plain base of
:class:`~repro.core.adaptive.AdaptiveMSS` (which holds the state these
methods work on), not a scheme of its own.
"""

from __future__ import annotations

from ..protocols.messages import (
    Acquisition,
    AcqType,
    ChangeMode,
    NO_CHANNEL,
    Release,
    ReqType,
    Request,
    Response,
    ResType,
    Timestamp,
)
from .mode import Mode

__all__ = ["Responder"]


class Responder:
    """Message handlers and crash / restart hooks (Figs. 4, 5, 7, 8)."""

    # ------------------------------------------------------------------
    # Message handlers (Figs. 4, 5, 7, 8)
    # ------------------------------------------------------------------
    def _on_Request(self, msg: Request) -> None:
        if msg.req_type is ReqType.UPDATE:
            self._handle_update_request(msg)
        else:
            self._handle_search_request(msg)

    def _handle_update_request(self, msg: Request) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        r, sender, rid = msg.channel, msg.sender, msg.round_id
        if self.mode in (Mode.LOCAL, Mode.BORROW_IDLE):
            if r in self.use:
                self._send(sender, Response(ResType.REJECT, self.cell, r, rid))
            else:
                self._grant_update(r, sender, rid)
        elif self.mode is Mode.BORROW_UPDATE:
            # Reject if we use r or our own pending request is older.
            if r in self.use or self._req_ts < msg.ts:
                self._send(sender, Response(ResType.REJECT, self.cell, r, rid))
            else:
                self._grant_update(r, sender, rid)
        else:  # BORROW_SEARCH
            if self._req_ts < msg.ts:
                # Our search is older: defer them until we acquired.
                self.DeferQ.append((ReqType.UPDATE, r, msg.ts, sender, rid))
                if "wait.block" in self._probes:
                    self.env.emit("wait.block", (sender, self.cell, "defer", msg.ts))
            elif r in self.use:  # deviation D4: safety check
                self._send(sender, Response(ResType.REJECT, self.cell, r, rid))
            else:
                self._grant_update(r, sender, rid)

    def _grant_update(self, r: int, sender: int, rid: int) -> None:
        self._send(sender, Response(ResType.GRANT, self.cell, r, rid))
        self._mirror_add(self.granted_out, sender, r)
        self._check_mode()

    def _handle_search_request(self, msg: Request) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        sender, rid = msg.sender, msg.round_id
        # Defer a *younger* search while we have an older claim of our
        # own in flight — ANY in-flight request, regardless of mode.
        # The paper keys deferral on modes 0 (parked) / 2 / 3, but a
        # request can also be in flight while the node shows mode 1:
        # parked on the gate after check_mode flapped it, waiting for
        # STATUS responses in the Fig. 2 local-else branch, or between
        # borrow rounds.  Answering a younger search in those windows
        # broke both liveness (a parked node's owed-ack set grew
        # younger → wait-for cycle → observed deadlock) and safety (two
        # status-waiting nodes answered each other, then searched
        # concurrently and picked the same channel → observed co-channel
        # violation).  Keying on the request timestamp alone restores
        # the strictly-decreasing wait-for order of Theorem 2 and the
        # search sequentialization of Theorem 1 case 1(a).
        has_older_claim = self._req_ts is not None and self._req_ts < msg.ts
        if has_older_claim:
            self.DeferQ.append(
                (ReqType.SEARCH, msg.channel, msg.ts, sender, rid)
            )
            if "wait.block" in self._probes:
                self.env.emit("wait.block", (sender, self.cell, "defer", msg.ts))
        else:
            self._respond_search(sender, msg.ts, rid)

    def _respond_search(self, sender: int, ts: Timestamp, rid: int) -> None:
        if sender in self._owed_acks:
            if self.hardening is None:
                raise AssertionError(
                    f"cell {self.cell}: second search response to {sender} "
                    f"before its ACQUISITION"
                )
            # The sender's previous search concluded but its ACQUISITION
            # to us was lost beyond the retry budget; a *new* search
            # from the same sender implicitly acknowledges the old one.
            if "wait.unblock" in self._probes:
                self.env.emit("wait.unblock", (self.cell, sender))
            del self._owed_acks[sender]
        self._owed_acks[sender] = ts
        if self.pending:
            # Our own request is parked on the gate; this new owed ack
            # extends the park, so it is a live wait-for edge.
            if "wait.block" in self._probes:
                self.env.emit("wait.block", (self.cell, sender, "gate", ts))
        if self.hardening is not None:
            # Backstop for a terminally lost ACQUISITION: clear the owed
            # entry after ack_timeout (sized so the search has certainly
            # ended by then) rather than blocking this node's own
            # requests forever.  Safe for Theorem 1 case 1(c): by expiry
            # the searcher's pick is long since made (or abandoned), so
            # sequentializing against it is moot.
            timer = self.env.timeout(self.hardening.ack_timeout, (sender, ts))
            timer.callbacks.append(self._owed_ack_expire)
        self._send(
            sender, Response(ResType.SEARCH, self.cell, frozenset(self.use), rid)
        )

    def _owed_ack_expire(self, event) -> None:
        sender, ts = event._value
        if self._owed_acks.get(sender) != ts:
            return  # acknowledged (or superseded) in time
        del self._owed_acks[sender]
        self.stale_responses += 1
        if "fault.ack_timeout" in self._probes:
            self.env.emit("fault.ack_timeout", (self.cell, sender))
        if "wait.unblock" in self._probes:
            self.env.emit("wait.unblock", (self.cell, sender))
        if not self._owed_acks:
            self._gate.pulse()

    def _on_Response(self, msg: Response) -> None:
        if msg.res_type is ResType.STATUS:
            # Full-state refresh: replace (not merge) the mirrored set —
            # this also heals any stale entries (see DESIGN.md §5 note 6).
            self._mirror_replace(self.U, msg.sender, msg.payload)
            collector = self._status_collectors.get(msg.round_id)
            if (  # ``_awaited``'s test: two lookups, no set difference
                collector is not None
                and msg.sender in collector._expected
                and msg.sender not in collector._responses
            ):
                collector.deliver(msg.sender, msg.payload)
            else:
                self.stale_responses += 1
            self._check_mode()
            return

        if self._awaited(msg, self._collector, self._collector_round):
            if msg.res_type is ResType.SEARCH:
                # Search responses carry the responder's full Use set:
                # replace our mirror, then hand it to the waiting round.
                self._mirror_replace(self.U, msg.sender, msg.payload)
                self._collector.deliver(msg.sender, frozenset(msg.payload))
            else:
                self._collector.deliver(msg.sender, msg.res_type)
        else:
            self.stale_responses += 1

    def _on_ChangeMode(self, msg: ChangeMode) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        if msg.mode == 0:
            self.UpdateS.discard(msg.sender)
        else:
            self.UpdateS.add(msg.sender)
        # Fig. 5 answers every CHANGE_MODE with a STATUS response.
        self._send(
            msg.sender,
            Response(ResType.STATUS, self.cell, frozenset(self.use), msg.round_id),
        )

    def _on_Acquisition(self, msg: Acquisition) -> None:
        if msg.channel != NO_CHANNEL:
            self._mirror_add(self.U, msg.sender, msg.channel)
            self._mirror_discard(self.granted_out, msg.sender, msg.channel)
        self._check_mode()
        if msg.acq_type is AcqType.SEARCH:
            if msg.sender not in self._owed_acks:
                if self.hardening is not None:
                    # The owed entry was already cleared — by the
                    # ack-timeout backstop, a crash wipe, or a newer
                    # search from the same sender.  Late but harmless.
                    self.stale_responses += 1
                    return
                raise AssertionError(
                    f"cell {self.cell}: search ACQUISITION from {msg.sender} "
                    f"without an owed response"
                )
            del self._owed_acks[msg.sender]
            if "wait.unblock" in self._probes:
                self.env.emit("wait.unblock", (self.cell, msg.sender))
            if not self._owed_acks:
                self._gate.pulse()

    def _on_Release(self, msg: Release) -> None:
        self._mirror_discard(self.U, msg.sender, msg.channel)
        self._mirror_discard(self.granted_out, msg.sender, msg.channel)
        self._check_mode()

    # ------------------------------------------------------------------
    # Crash / restart (fault injection)
    # ------------------------------------------------------------------
    def _crash_hook(self, lose_state: bool) -> None:
        # Any in-flight round is void: its collector will never complete
        # (the network drops our deliveries while down), and the parked
        # request generator resolves through its hardened round deadline.
        if self._collector is not None:
            self._collector.cancel()
        for collector in self._status_collectors.values():
            collector.cancel()
        self._status_collectors.clear()
        # Deferred requesters must not wait on a dead station; dropping
        # the entries (with the matching wait-graph edge removals) lets
        # their own round deadlines resolve them.
        while self.DeferQ:
            _req_type, _q, _ts, j, _rid = self.DeferQ.popleft()
            if "wait.unblock" in self._probes:
                self.env.emit("wait.unblock", (j, self.cell))
        if lose_state:
            # Cold restart: every volatile structure is gone.  The U /
            # granted_out mirrors are rebuilt by the restart re-sync;
            # owed acknowledgements are dropped (their searchers' own
            # protection is the ack-timeout backstop on their side).
            for j in self.IN:
                self._mirror_replace(self.U, j, ())
                self._mirror_replace(self.granted_out, j, ())
            self.UpdateS.clear()
            for sender in tuple(self._owed_acks):
                del self._owed_acks[sender]
                if "wait.unblock" in self._probes:
                    self.env.emit("wait.unblock", (self.cell, sender))
            self._gate.pulse()
            self.policy.reset(len(self.PR))

    def _restart_hook(self) -> None:
        # Neighborhood re-sync: Fig. 5 answers *every* CHANGE_MODE with
        # a STATUS response carrying the responder's current Use set, so
        # a mode-0 broadcast (which also clears any stale membership of
        # this cell in the neighbors' UpdateS sets) rebuilds all U_j
        # mirrors without claiming to be borrowing.
        self.mode = Mode.LOCAL
        round_id = self._next_round()
        self._last_status_collector = self._status_round(round_id, self.IN)
        self._broadcast(ChangeMode(0, self.cell, round_id))

