"""Fixed (static) channel allocation — the FCA baseline.

Each cell may only ever use its statically assigned primary channels
(the reuse-pattern partition).  Channel acquisition is purely local:
zero latency, zero control messages.  A request is denied ("call
dropped" in the paper's terminology) as soon as all primaries are busy
— even when neighboring cells sit on idle channels, which is exactly
the weakness the paper's introduction motivates.

Extension: classic *guard channels* (Hong & Rappaport 1986) — reserve
the last ``guard_channels`` free primaries for handoffs, since users
perceive a dropped ongoing call as far worse than a blocked new one.
Off by default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .base import MSS

if TYPE_CHECKING:
    from .messages import Timestamp

__all__ = ["FixedMSS"]


class FixedMSS(MSS):
    """Static allocation: serve from ``PR_i`` or deny."""

    scheme = "fixed"
    requires_fifo = False  # tests/test_fifo_assumption.py stresses it over unordered links

    def __init__(self, *args, guard_channels: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.guard_channels = self._checked_guard(guard_channels)

    def _request(self, ts: Timestamp) -> Optional[int]:
        self._attempts = 1
        self._grant_mode = "local"
        free = self.PR - self.use
        if not free:
            return None
        if self._req_kind == "new" and len(free) <= self.guard_channels:
            return None  # reserved for handoffs
        channel = min(free)  # deterministic pick
        self._grab(channel)
        return channel

    def _release(self, channel: int) -> None:
        self._drop_from_use(channel)
