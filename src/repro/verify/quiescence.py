"""End-of-run quiescence checker.

After traffic drains, a correct simulation leaves no residue: no cell
still holds a channel, and every channel request that started has
resolved (granted, rejected or abandoned — but not stuck).  Violations
here are slow leaks (stranded calls, requests parked for good) that
per-event assertions cannot see.

Held channels are read off the :class:`~repro.protocols.InterferenceMonitor`
at :meth:`finalize` — the run's one channel ledger, which already
rejects a release of a channel the cell does not hold.  Requests are
counted from the ``request.begin`` / ``request.end`` probe events.
Call :meth:`finalize` at the end of a *drained* run only: calls
legitimately in progress are not leaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..sim import Environment
from .base import Sanitizer, Violation

if TYPE_CHECKING:
    from ..protocols import InterferenceMonitor

__all__ = ["QuiescenceViolation", "QuiescenceChecker"]


@dataclass(frozen=True)
class QuiescenceViolation(Violation):
    """Residual protocol state at simulation end."""

    kind: str  # "held_channel" | "unresolved_request"
    cell: int
    detail: str

    def __str__(self) -> str:
        return f"t={self.time}: cell {self.cell}: {self.detail}"


class QuiescenceChecker(Sanitizer):
    """Verifies all channels released (per ``monitor``) and all
    requests resolved."""

    name = "quiescence"

    def __init__(
        self,
        env: Environment,
        monitor: InterferenceMonitor,
        policy: str = "raise",
    ) -> None:
        self.monitor = monitor
        #: cell -> number of requests begun but not yet resolved.
        self.open_requests: Dict[int, int] = {}
        super().__init__(env, policy)

    def _attach(self) -> None:
        self._listen("request.begin", self._on_begin)
        self._listen("request.end", self._on_end)

    # -- probe handlers ----------------------------------------------------
    def _on_begin(self, now: float, payload: Tuple[int, ...]) -> None:
        cell = payload[0]
        self.open_requests[cell] = self.open_requests.get(cell, 0) + 1

    def _on_end(self, now: float, payload: Tuple[int, ...]) -> None:
        cell = payload[0]
        remaining = self.open_requests.get(cell, 0) - 1
        if remaining:
            self.open_requests[cell] = remaining
        else:
            self.open_requests.pop(cell, None)

    # -- verdict -----------------------------------------------------------
    def finalize(self) -> None:
        """Check the drained end state; applies the policy per leak."""
        now = self.env.now
        held: Dict[int, List[int]] = {}
        for channel, cells in sorted(self.monitor.users.items()):
            for cell in cells:
                held.setdefault(cell, []).append(channel)
        for cell in sorted(held):
            self._report(
                QuiescenceViolation(
                    now,
                    "held_channel",
                    cell,
                    f"still holds channels {held[cell]} at simulation end",
                )
            )
        for cell in sorted(self.open_requests):
            count = self.open_requests[cell]
            if count > 0:
                self._report(
                    QuiescenceViolation(
                        now,
                        "unresolved_request",
                        cell,
                        f"{count} channel request(s) never resolved",
                    )
                )
