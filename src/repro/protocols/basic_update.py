"""Basic update scheme (Dong & Lai [4]; paper §2.2).

Every MSS continuously mirrors its neighborhood's channel usage: each
acquisition/release is broadcast to the interference region, so a
requester can *locally* pick a channel it believes free and only needs
one permission round (N REQUESTs + N RESPONSEs) to guard against races.

Conflict rule while a request for channel r is pending (paper §2.2):
a same-channel request with a *younger* timestamp is rejected; an
*older* one is granted and the own attempt is aborted (retry with a
different channel).  Grants do not update neighbor state — only the
winner's ACQUISITION broadcast does — giving the paper's message count
of ``2Nm + 2N`` for m attempts (Table 1).

Under heavy load the retry loop is unbounded in the original scheme
(Table 3 lists ∞); we cap it with ``max_attempts`` so simulations
terminate, and count a capped request as a drop.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

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

__all__ = ["BasicUpdateMSS"]


class BasicUpdateMSS(MSS):
    """Update-based dynamic allocation with local channel pick."""

    scheme = "basic_update"
    requires_fifo = False  # tests/test_fifo_assumption.py stresses it over unordered links
    SCENARIO_FIELDS = ("max_attempts",)
    #: ``state_dict`` adds the mirrors, as ``{j: set}`` over ``IN``.
    SNAPSHOT = (("collector_round", "_collector_round"),)

    def __init__(self, *args, max_attempts: int = 25, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.max_attempts = max_attempts
        #: Mirrored usage of each interference neighbor (paper's U_j),
        #: one channel mask each.
        self.U: Dict[int, int] = dict.fromkeys(self.IN, 0)
        self._pending: Optional[Tuple[int, Timestamp]] = None  # (channel, ts)
        self._abort = False

    # -- derived state -------------------------------------------------------
    def _interfered_mask(self) -> int:
        held = 0
        for use_j in self.U.values():
            held |= use_j
        return held

    def interfered(self) -> Set[int]:
        """Channels known to be in use somewhere in IN (paper's I_i)."""
        return set(channels(self._interfered_mask()))

    # -- requesting ------------------------------------------------------------
    def _request(self, ts: Timestamp):
        self._grant_mode = "update"
        attempts = 0
        while attempts < self.max_attempts:
            attempts += 1
            self._attempts = attempts
            free = self.topo.spectrum_mask & ~(mask(self.use) | self._interfered_mask())
            if not free:
                return None  # no channel believed free → call dropped
            channel = lowest(free)

            self._pending = (channel, ts)
            self._abort = False
            collector = self._open_round(self.IN)
            self._broadcast(
                Request(ReqType.UPDATE, channel, ts, self.cell, self._collector_round)
            )
            verdicts, complete = yield from self._await_round(collector)
            self._pending = None

            # A round that timed out (hardening) counts every missing
            # verdict as a rejection: grants in this scheme record no
            # state at the granter, so simply retrying is safe.
            all_granted = complete and all(
                v is ResType.GRANT for v in verdicts.values()
            )
            if all_granted and not self._abort:
                self._grab(channel)
                self._broadcast(Acquisition(AcqType.NON_SEARCH, self.cell, channel))
                return channel
            # Rejected (or aborted in favour of an older same-channel
            # request): try another channel per refreshed local info.
        return None  # attempt cap reached → drop (paper: unbounded)

    def _release(self, channel: int) -> None:
        self._drop_from_use(channel)
        self._broadcast(Release(self.cell, channel))

    # -- message handlers ---------------------------------------------------------
    def _on_Request(self, msg: Request) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        if msg.req_type is not ReqType.UPDATE:
            raise AssertionError("basic update only issues update requests")
        channel = msg.channel
        if channel in self.use:
            verdict = ResType.REJECT
        elif self._pending is not None and self._pending[0] == channel:
            my_ts = self._pending[1]
            if my_ts < msg.ts:
                verdict = ResType.REJECT  # we are older: we win
            else:
                verdict = ResType.GRANT  # they are older: yield and retry
                self._abort = True
        else:
            verdict = ResType.GRANT
        self._send(
            msg.sender, Response(verdict, self.cell, channel, msg.round_id)
        )

    def _on_Response(self, msg: Response) -> None:
        if self._awaited(msg, self._collector, self._collector_round):
            self._collector.deliver(msg.sender, msg.res_type)

    def _on_Acquisition(self, msg: Acquisition) -> None:
        self.U[msg.sender] |= 1 << msg.channel

    def _on_Release(self, msg: Release) -> None:
        self.U[msg.sender] &= ~(1 << msg.channel)

    # -- snapshot hooks (see repro.snap.state) ------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The mirrors as ``{"U": {j: set of channels}}``."""
        return {"U": {j: set(channels(m)) for j, m in self.U.items()}}

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore the mirrors from :meth:`state_dict`'s layout."""
        for j, members in state["U"].items():
            self.U[j] = mask(members)
