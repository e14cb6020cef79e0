"""Allocated-set dynamic allocation (Prakash, Shivaratri & Singhal [8]).

The paper's §6 compares the adaptive scheme against this PODC'95
algorithm.  Its key idea: a cell *keeps* channels it has acquired (its
``allocated`` set) and serves later calls from them without any
messages — adapting to load much like the adaptive scheme's primary
sets, but with the allocated sets migrating between cells over time:

* a request served from the allocated set costs 0 messages / 0 latency;
* otherwise the cell polls its interference region for every neighbor's
  (allocated, busy) sets — one 2N round, timestamp-serialized exactly
  like basic search;
* if some channel is allocated to nobody in the region, the cell claims
  it (adds to its allocated set);
* if not, the cell picks a channel that is allocated-but-idle at a
  neighbor and runs the paper's TRANSFER/AGREE-or-KEEP handshake to
  migrate it (the extra message rounds §6 holds against this scheme —
  our adaptive scheme moves a channel with a single search round).

Channels in a cell's allocated set are exclusively reusable by that
cell within its interference region, so the co-channel invariant
reduces to allocated-set exclusivity; the timestamp-deferred poll round
serializes concurrent claims the same way basic search serializes
concurrent channel picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..sim import Collector
from ..sim.network import Message
from .base import MSS
from .messages import (
    Acquisition,
    AcqType,
    NO_CHANNEL,
    Release,
    ReqType,
    Request,
    Timestamp,
)

__all__ = ["PrakashMSS", "Transfer", "TransferReply", "PollResponse"]


@dataclass(frozen=True)
class PollResponse(Message):
    """Reply to a poll: the responder's allocated and busy sets."""

    is_reply = True

    sender: int
    allocated: FrozenSet[int]
    busy: FrozenSet[int]
    round_id: int


@dataclass(frozen=True)
class Transfer(Message):
    """TRANSFER(r): ask the receiver to give up allocated channel r."""

    sender: int
    channel: int
    ts: Timestamp
    round_id: int


@dataclass(frozen=True)
class TransferReply(Message):
    """AGREE (granted=True) or KEEP (granted=False) for a Transfer."""

    is_reply = True

    sender: int
    channel: int
    granted: bool
    round_id: int


class PrakashMSS(MSS):
    """Distributed allocation with migrating allocated sets."""

    scheme = "prakash"
    requires_fifo = False  # tests/test_fifo_assumption.py stresses it over unordered links
    SNAPSHOT = (
        "allocated",
        "pledged",
        ("collector_round", "_collector_round"),
        ("transfer_round", "_transfer_round"),
    )
    WAITS = ("_transfer_collector",)
    #: Poll-and-transfer rounds one request tries before it is dropped.
    MAX_TRANSFER_ROUNDS = 8

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Channels this cell owns the right to use (starts at PR_i, the
        #: natural initial partition).
        self.allocated: Set[int] = set(self.PR)
        #: Channels transferred away via AGREE.  Still reported as
        #: allocated in poll responses: between the donor's AGREE and
        #: the recipient's claim there is a window where a third poller
        #: would otherwise see the channel as allocated to nobody and
        #: claim it concurrently — pledging closes that hole (at worst
        #: it is conservative: both donor and recipient report it).
        self.pledged: Set[int] = set()
        #: Channel of an in-flight TRANSFER we initiated.  Reported as
        #: allocated in poll responses from the moment the TRANSFER is
        #: sent: a poller whose region contains us but not the donor
        #: would otherwise see the channel as entirely unallocated while
        #: our claim is in flight and grab it concurrently.
        self._claiming: Optional[int] = None
        self._polling = False
        self._poll_ts: Optional[Timestamp] = None
        self._deferred: List[Tuple[int, int]] = []
        self._transfer_collector: Optional[Collector] = None
        self._transfer_round = -1

    def snapshot_obstacle(self) -> Optional[str]:
        if self._transfer_collector is not None:
            return "transfer round in flight"
        return super().snapshot_obstacle()

    # -- requesting -----------------------------------------------------------
    def _request(self, ts: Timestamp):
        free_allocated = self.allocated - self.use
        if free_allocated:
            self._attempts = 1
            self._grant_mode = "local"
            channel = min(free_allocated)
            self._grab(channel)
            return channel

        self._grant_mode = "search"
        self._attempts = 0
        try:
            channel = yield from self._acquire_remote(ts)
        finally:
            # Deferred pollers are answered only once this request has
            # fully completed, so their view includes our claim.
            self._polling = False
            self._poll_ts = None
            self._answer_deferred()
        return channel

    def _acquire_remote(self, ts: Timestamp):
        rounds = 0
        refused: Set[int] = set()  # channels whose donor replied KEEP
        while rounds < self.MAX_TRANSFER_ROUNDS:
            rounds += 1
            self._attempts = rounds
            # Poll the region (timestamp-serialized, like basic search).
            self._poll_ts = ts
            self._polling = True
            collector = self._open_round(self.IN)
            self._broadcast(
                Request(ReqType.SEARCH, NO_CHANNEL, ts, self.cell, self._collector_round)
            )
            responses, complete = yield from self._await_round(collector)
            if not complete:
                # Round deadline expired: with any neighbour's allocated
                # set unknown, no claim is provably exclusive — abandon.
                return None

            allocated_in_region: Set[int] = set(self.allocated) | self.pledged
            busy_in_region: Set[int] = set()
            owners_of: Dict[int, List[int]] = {}
            for j, resp in responses.items():
                allocated_in_region |= resp.allocated
                busy_in_region |= resp.busy
                for ch in resp.allocated:
                    owners_of.setdefault(ch, []).append(j)

            unallocated = self.spectrum - allocated_in_region
            if unallocated:
                channel = min(unallocated)
                self.allocated.add(channel)
                self._grab(channel)
                return channel

            # No unallocated channel: migrate an idle allocated channel
            # (TRANSFER / AGREE-or-KEEP, §6).  Every owner inside our
            # region must agree — a channel can legitimately have
            # several owners here (same-color cells of the original
            # reuse pattern sit at distance 3 around us), and taking it
            # from only one would still conflict with the others; this
            # is the paper's "transfer r from more than one cell" case.
            candidates = sorted(
                ch
                for ch, owners in owners_of.items()
                if ch not in busy_in_region
                and ch not in refused
                and ch not in self.pledged  # we gave it away ourselves
            )
            if not candidates:
                return None  # region truly saturated (or all refused)
            channel = candidates[0]
            donors = sorted(owners_of[channel])
            t_round = self._next_round()
            self._transfer_collector = Collector(self.env, donors)
            self._transfer_round = t_round
            self._claiming = channel
            for donor in donors:
                self._send(donor, Transfer(self.cell, channel, ts, t_round))
            replies, complete = yield from self._await_round(
                self._transfer_collector
            )
            self._transfer_collector = None
            if complete and all(r.granted for r in replies.values()):
                self.allocated.add(channel)
                self._claiming = None
                self._grab(channel)
                # Confirm: donors may drop their pledge entirely — from
                # now on we are the visible owner in every region that
                # could interfere with us.
                for donor in donors:
                    self._send(
                        donor, Acquisition(AcqType.NON_SEARCH, self.cell, channel)
                    )
                return channel
            # Some donor KEEPs: undo the AGREEd pledges and move on.  A
            # donor silent at the round deadline counts as KEEP and is
            # released too: its AGREE may be pledged where the reply was
            # lost.  One that answered KEEP holds no pledge of ours, and
            # RELEASE does not say whose pledge it undoes.
            self._claiming = None
            for donor in donors:
                reply = replies.get(donor)
                if reply is None or reply.granted:
                    self._send(donor, Release(self.cell, channel))
            refused.add(channel)
        return None

    def _release(self, channel: int) -> None:
        # The channel stays allocated to this cell; only usage ends.
        self._drop_from_use(channel)

    def _reported_allocated(self) -> FrozenSet[int]:
        extra = {self._claiming} if self._claiming is not None else set()
        return frozenset(self.allocated | self.pledged | extra)

    def _answer_deferred(self) -> None:
        deferred, self._deferred = self._deferred, []
        snapshot_alloc = self._reported_allocated()
        snapshot_busy = frozenset(self.use)
        for sender, rid in deferred:
            self._send(
                sender, PollResponse(self.cell, snapshot_alloc, snapshot_busy, rid)
            )

    # -- message handlers ---------------------------------------------------------
    def _on_Request(self, msg: Request) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        if self._polling and msg.ts > self._poll_ts:
            self._deferred.append((msg.sender, msg.round_id))
        else:
            self._send(
                msg.sender,
                PollResponse(
                    self.cell,
                    self._reported_allocated(),
                    frozenset(self.use),
                    msg.round_id,
                ),
            )

    def _on_PollResponse(self, msg: PollResponse) -> None:
        if self._awaited(msg, self._collector, self._collector_round):
            self._collector.deliver(msg.sender, msg)

    def _on_Transfer(self, msg: Transfer) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        channel = msg.channel
        can_give = (
            channel in self.allocated
            and channel not in self.use
            and not self._polling  # mid-poll: state in flux, keep it
        )
        if can_give:
            self.allocated.discard(channel)
            self.pledged.add(channel)
        self._send(
            msg.sender,
            TransferReply(self.cell, channel, can_give, msg.round_id),
        )

    def _on_Acquisition(self, msg: Acquisition) -> None:
        # Transfer confirmed: the recipient is now the visible owner,
        # our pledge can be retired for good.
        self.pledged.discard(msg.channel)

    def _on_Release(self, msg: Release) -> None:
        # Transfer aborted: restore the pledged channel to our
        # allocated set.
        if msg.channel in self.pledged:
            self.pledged.discard(msg.channel)
            self.allocated.add(msg.channel)

    def _on_TransferReply(self, msg: TransferReply) -> None:
        if self._awaited(msg, self._transfer_collector, self._transfer_round):
            self._transfer_collector.deliver(msg.sender, msg)
