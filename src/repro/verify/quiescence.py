"""End-of-run quiescence checker.

After traffic drains, a correct simulation leaves no residue: every
channel that was acquired has been released, and every channel request
that started has resolved (granted, rejected or abandoned — but not
stuck).  Violations here are slow leaks (stranded calls, unbalanced
acquire/release pairs) that per-event assertions cannot see.

The checker passively mirrors ``channel.acquired`` / ``channel.released``
and ``request.begin`` / ``request.end`` probe events; calling
:meth:`finalize` at the end of a *drained* run applies the policy to
whatever is left.  (Do not finalize a run halted mid-traffic — calls
legitimately in progress are not leaks.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from ..sim import Environment
from .base import Sanitizer, Violation

__all__ = ["QuiescenceViolation", "QuiescenceChecker"]


@dataclass(frozen=True)
class QuiescenceViolation(Violation):
    """Residual protocol state at simulation end."""

    kind: str  # "held_channel" | "unresolved_request" | "unbalanced_release"
    cell: int
    detail: str

    def __str__(self) -> str:
        return f"t={self.time}: cell {self.cell}: {self.detail}"


class QuiescenceChecker(Sanitizer):
    """Verifies all acquisitions released and all requests resolved."""

    name = "quiescence"

    def __init__(self, env: Environment, policy: str = "raise") -> None:
        #: cell -> channels currently held (per probe stream).
        self.held: Dict[int, Set[int]] = {}
        #: cell -> number of requests begun but not yet resolved.
        self.open_requests: Dict[int, int] = {}
        self.total_acquisitions = 0
        self.total_releases = 0
        self.total_requests = 0
        super().__init__(env, policy)

    def _attach(self) -> None:
        self._listen("channel.acquired", self._on_acquired)
        self._listen("channel.released", self._on_released)
        self._listen("request.begin", self._on_begin)
        self._listen("request.end", self._on_end)

    # -- probe handlers ----------------------------------------------------
    def _on_acquired(self, now: float, payload: Tuple[int, int]) -> None:
        cell, channel = payload
        self.held.setdefault(cell, set()).add(channel)
        self.total_acquisitions += 1

    def _on_released(self, now: float, payload: Tuple[int, int]) -> None:
        cell, channel = payload
        held = self.held.get(cell)
        if held is None or channel not in held:
            self._report(
                QuiescenceViolation(
                    now,
                    "unbalanced_release",
                    cell,
                    f"released channel {channel} it never acquired",
                )
            )
            return
        held.discard(channel)
        if not held:
            del self.held[cell]
        self.total_releases += 1

    # ``request.begin``/``request.end`` payloads are tuples whose first
    # element is the cell (see docs/OBSERVABILITY.md); bare-int payloads
    # from hand-driven tests are accepted for convenience.
    def _on_begin(self, now: float, payload: Tuple[int, ...]) -> None:
        cell = payload[0] if isinstance(payload, tuple) else payload
        self.open_requests[cell] = self.open_requests.get(cell, 0) + 1
        self.total_requests += 1

    def _on_end(self, now: float, payload: Tuple[int, ...]) -> None:
        cell = payload[0] if isinstance(payload, tuple) else payload
        remaining = self.open_requests.get(cell, 0) - 1
        if remaining:
            self.open_requests[cell] = remaining
        else:
            self.open_requests.pop(cell, None)

    # -- verdict -----------------------------------------------------------
    @property
    def channels_held(self) -> int:  # repro: noqa(ANA401) tests/test_verify_sanitizers.py
        return sum(len(chs) for chs in self.held.values())

    @property
    def requests_open(self) -> int:  # repro: noqa(ANA401) tests/test_verify_sanitizers.py
        return sum(n for n in self.open_requests.values() if n > 0)

    def finalize(self) -> None:
        """Check the drained end state; applies the policy per leak."""
        now = self.env.now
        for cell in sorted(self.held):
            channels = sorted(self.held[cell])
            self._report(
                QuiescenceViolation(
                    now,
                    "held_channel",
                    cell,
                    f"still holds channels {channels} at simulation end",
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
