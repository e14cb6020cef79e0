"""Advanced update scheme (Dong & Lai [3]; paper §5, §6 and Figure 11).

A refinement of basic update that saves messages two ways:

1. a cell uses its own free primaries without asking anyone
   (acquisition time 0 at low load — paper Table 2);
2. to borrow channel r, a cell asks only the *primary* cells of r — the
   paper's ``NP(c, r)``, ``n_p`` cells — instead of all N interference
   neighbors.

Primaries arbitrate concurrent borrows of their channel: the first
request in flight gets a GRANT; a later-arriving request with an
*older* timestamp gets only a CONDITIONAL_GRANT (valid only if the
earlier grantee fails), and a younger one is rejected.  A requester
succeeds only on unanimous unconditional grants.

This reproduces the unfairness the paper criticises in Figure 11: if
c2's messages overtake c1's in the network, both primaries grant c2 and
c1 — despite its lower timestamp — fails.  Our adaptive scheme avoids
this by always querying the full interference region.

Reconstruction note (the original OSU TR [3] is not available): with
arbiters restricted to primaries *inside* the requester's interference
region, two interfering borrowers can have disjoint arbiter sets — no
common serialization point — and our interference monitor caught real
co-channel violations under load.  We therefore use as arbiters all
primaries of r within distance 2R of the requester: for any two cells
within reuse distance R of each other, every primary within R of one is
within 2R of the other, so interfering requests always share at least
one arbiter and safety is restored.  On the k=7/R=2 topology this is
~8 arbiters per channel versus N = 18 neighbors, preserving the
scheme's message-saving character (and its Figure 11 unfairness).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..cellular.spectrum import channels, lowest, mask
from .base import MSS
from .messages import (
    Acquisition,
    AcqType,
    Release,
    ReqType,
    Request,
    ResType,
    Response,
    Timestamp,
)

__all__ = ["AdvancedUpdateMSS"]


class AdvancedUpdateMSS(MSS):
    """Primary-arbitrated borrowing (Dong & Lai's advanced update)."""

    scheme = "advanced_update"
    requires_fifo = False  # tests/test_fifo_assumption.py stresses it over unordered links
    SCENARIO_FIELDS = ("max_attempts",)
    #: ``state_dict`` adds the mirrors, as ``{j: set}`` over every
    #: sender ever heard (emptied ones included).
    SNAPSHOT = ("outstanding", ("collector_round", "_collector_round"))

    def __init__(self, *args, max_attempts: int = 25, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.max_attempts = max_attempts
        #: Mirrored usage of cells we hear broadcasts from, one channel
        #: mask each.
        self.U: Dict[int, int] = {}
        #: As a primary/arbiter: channel -> (grantee, grantee_ts).
        self.outstanding: Dict[int, Tuple[int, Timestamp]] = {}
        # Arbiter map: channel -> primary cells of that channel within
        # distance 2R (excluding ourselves).  See reconstruction note.
        grid = self.topo.grid
        reach = 2 * self.topo.interference_radius
        self._arbiters: Dict[int, Tuple[int, ...]] = {}
        near = [
            p for p in grid if p != self.cell
            and grid.distance(self.cell, p) <= reach
        ]
        for ch in sorted(self.spectrum):
            self._arbiters[ch] = tuple(
                p for p in near if ch in self.topo.PR(p)
            )
        #: Everyone who must hear our borrowed-channel events.
        self._notify: Dict[int, Tuple[int, ...]] = {
            ch: tuple(sorted(set(self.IN) | set(self._arbiters[ch])))
            for ch in sorted(self.spectrum)
        }

    def arbiters(self, channel: int) -> Tuple[int, ...]:
        """Arbiter cells whose unanimous grant a borrow of ``channel``
        requires (the reconstruction's ``NP(c, r)``)."""
        return self._arbiters[channel]

    def _interfered_mask(self) -> int:
        region = self.topo.IN(self.cell)
        held = 0
        for holder, use_j in self.U.items():
            if holder in region:
                held |= use_j
        return held

    def interfered(self) -> Set[int]:
        """Channels known in use within our interference region."""
        return set(channels(self._interfered_mask()))

    def granted_channels(self) -> Set[int]:  # repro: noqa(ANA401) tests/test_advanced_update.py
        """Own primaries currently granted out to a borrower."""
        return set(self.outstanding)

    # -- requesting -----------------------------------------------------------
    def _request(self, ts: Timestamp):
        # Local primary first: zero acquisition latency.  Channels we
        # granted to a pending borrower are off limits until released.
        topo = self.topo
        own = topo.primary_masks[self.cell]
        free_primary = own & ~(
            mask(self.use) | self._interfered_mask() | mask(self.outstanding)
        )
        if free_primary:
            self._attempts = 1
            self._grant_mode = "local"
            channel = lowest(free_primary)
            self._grab(channel)
            self._broadcast(Acquisition(AcqType.NON_SEARCH, self.cell, channel))
            return channel

        yield from ()  # generator even on the immediate-drop path
        attempts = 0
        refused = set()  # channels refused by an arbiter this request
        self._grant_mode = "update"
        while attempts < self.max_attempts:
            attempts += 1
            self._attempts = attempts
            free = topo.spectrum_mask & ~(own | mask(self.use) | self._interfered_mask())
            candidates = [
                ch for ch in channels(free)
                if self._arbiters[ch] and ch not in refused
            ]
            if not candidates:
                return None
            # Spread concurrent borrowers across the candidate list by
            # cell id: hot-spot neighbors otherwise all fight over the
            # globally lowest free channel and reject each other.
            channel = candidates[self.cell % len(candidates)]
            arbiters = self._arbiters[channel]

            collector = self._open_round(arbiters)
            for p in arbiters:
                self._send(
                    p,
                    Request(ReqType.UPDATE, channel, ts, self.cell, self._collector_round),
                )
            verdicts, complete = yield from self._await_round(collector)

            if complete and all(v is ResType.GRANT for v in verdicts.values()):
                self._grab(channel)
                self._broadcast(
                    Acquisition(AcqType.NON_SEARCH, self.cell, channel),
                    dsts=self._notify[channel],
                )
                return channel
            # Failure: release the arbiters that did grant so they can
            # clear their outstanding-grant entry (the paper's
            # ``n_p (m-1)`` extra messages) and avoid re-requesting the
            # same channel this request.  A round cut short by its
            # deadline counts as refused, and a silent arbiter is
            # released too: its GRANT may be recorded where the reply
            # was lost, and RELEASE is a no-op at one that never granted.
            refused.add(channel)
            for p in arbiters:  # ascending cell ids
                if verdicts.get(p) is not ResType.REJECT:
                    self._send(p, Release(self.cell, channel))
        return None

    def _release(self, channel: int) -> None:
        self._drop_from_use(channel)
        if channel in self.PR:
            self._broadcast(Release(self.cell, channel))
        else:
            self._broadcast(Release(self.cell, channel), dsts=self._notify[channel])

    # -- arbiter side -------------------------------------------------------------
    def _on_Request(self, msg: Request) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        channel = msg.channel
        if channel not in self.PR:
            raise AssertionError(
                f"cell {self.cell} asked to arbitrate non-primary channel {channel}"
            )
        verdict = self._arbitrate(channel, msg.sender, msg.ts)
        self._send(
            msg.sender, Response(verdict, self.cell, channel, msg.round_id)
        )

    def _arbitrate(self, channel: int, requester: int, ts: Timestamp) -> ResType:
        if channel in self.use:
            return ResType.REJECT
        # Reject if we know of a user that interferes with the requester.
        requester_region = self.topo.IN(requester)
        bit = 1 << channel
        for holder, use_j in self.U.items():
            if use_j & bit and (
                holder == requester or holder in requester_region
            ):
                return ResType.REJECT
        granted = self.outstanding.get(channel)
        if granted is None:
            self.outstanding[channel] = (requester, ts)
            return ResType.GRANT
        grantee, grantee_ts = granted
        if grantee == requester:
            # Retry from the same requester (lost release race): refresh.
            self.outstanding[channel] = (requester, ts)
            return ResType.GRANT
        if ts < grantee_ts:
            # Older request arriving late (message overtaking — Figure
            # 11): only a conditional grant.  The earlier grantee keeps
            # the real grant, so the older requester will fail.
            return ResType.CONDITIONAL_GRANT
        return ResType.REJECT

    # -- message handlers ----------------------------------------------------------
    def _on_Response(self, msg: Response) -> None:
        if self._awaited(msg, self._collector, self._collector_round):
            self._collector.deliver(msg.sender, msg.res_type)

    def _on_Acquisition(self, msg: Acquisition) -> None:
        self.U[msg.sender] = self.U.get(msg.sender, 0) | (1 << msg.channel)
        granted = self.outstanding.get(msg.channel)
        if granted is not None and granted[0] == msg.sender:
            del self.outstanding[msg.channel]

    def _on_Release(self, msg: Release) -> None:
        self.U[msg.sender] = self.U.get(msg.sender, 0) & ~(1 << msg.channel)
        granted = self.outstanding.get(msg.channel)
        if granted is not None and granted[0] == msg.sender:
            del self.outstanding[msg.channel]

    # -- snapshot hooks (see repro.snap.state) ------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The mirrors as ``{"U": {j: set of channels}}``."""
        return {"U": {j: set(channels(m)) for j, m in self.U.items()}}

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore the mirrors from :meth:`state_dict`'s layout."""
        self.U = {j: mask(members) for j, members in sorted(state["U"].items())}
