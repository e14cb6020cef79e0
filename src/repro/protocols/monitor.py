"""Global interference monitor — a runtime oracle for Theorem 1.

The monitor sits outside the protocols (it has God's-eye view of the
simulation) and observes every channel acquisition and release.  It
checks the co-channel interference invariant of the paper's Theorem 1:

    a channel r is never simultaneously used by two cells within the
    minimum reuse distance of each other.

Protocols report through :meth:`acquired` / :meth:`released`; tests run
with ``policy="raise"`` so any safety violation fails loudly, while
exploratory experiments may use ``policy="record"`` to *measure* unsafe
windows (e.g. of the advanced-update baseline the paper criticises).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..cellular import CellularTopology

__all__ = ["InterferenceViolation", "InterferenceMonitor"]


@dataclass(frozen=True)
class InterferenceViolation:
    """One observed co-channel conflict."""

    time: float
    channel: int
    cell: int
    conflicting_cell: int

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"t={self.time}: channel {self.channel} acquired by cell "
            f"{self.cell} while in use by interfering cell {self.conflicting_cell}"
        )


class InterferenceMonitor:
    """Tracks channel usage globally and checks the reuse invariant.

    Parameters
    ----------
    topo:
        The cellular topology (supplies interference regions).
    policy:
        ``"raise"`` — raise ``AssertionError`` on a violation (tests);
        ``"record"`` — append to :attr:`violations` and continue.
    """

    #: Snapshot fields (see :mod:`repro.snap.state`).
    SNAPSHOT = (
        ("users", "users", set),
        ("violations", "violations", InterferenceViolation),
        "total_acquisitions",
        "total_releases",
        "max_concurrent_users",
        ("active", "_active"),
    )

    def __init__(self, topo: CellularTopology, policy: str = "raise") -> None:
        if policy not in ("raise", "record"):
            raise ValueError(f"unknown policy {policy!r}")
        self.topo = topo
        self.policy = policy
        #: channel -> set of cells currently using it
        self.users: Dict[int, Set[int]] = {}
        self.violations: List[InterferenceViolation] = []
        #: Running counters for reporting.
        self.total_acquisitions = 0
        self.total_releases = 0
        self.max_concurrent_users = 0
        # Active (cell, channel) pairs, maintained incrementally so
        # per-acquisition bookkeeping stays O(1) instead of summing
        # every channel's user set.
        self._active = 0

    def acquired(self, cell: int, channel: int, time: float) -> None:
        """Record that ``cell`` started using ``channel`` at ``time``."""
        users = self.users.get(channel)
        if users is None:
            users = self.users[channel] = set()
        elif cell in users:
            raise AssertionError(
                f"cell {cell} double-acquired channel {channel} at t={time}"
            )
        region = self.topo.IN(cell)
        if not users.isdisjoint(region):
            for other in users:
                if other in region:
                    violation = InterferenceViolation(time, channel, cell, other)
                    if self.policy == "raise":
                        raise AssertionError(str(violation))
                    self.violations.append(violation)
        users.add(cell)
        self.total_acquisitions += 1
        self._active += 1
        if self._active > self.max_concurrent_users:
            self.max_concurrent_users = self._active

    def released(self, cell: int, channel: int, time: float) -> None:
        """Record that ``cell`` stopped using ``channel``."""
        users = self.users.get(channel)
        if not users or cell not in users:
            raise AssertionError(
                f"cell {cell} released channel {channel} it does not hold (t={time})"
            )
        users.discard(cell)
        self.total_releases += 1
        self._active -= 1

    @property
    def in_use(self) -> int:  # repro: noqa(ANA401) tests/test_monitor.py
        """Number of (cell, channel) pairs currently active."""
        return self._active

    def channels_used_by(self, cell: int) -> Set[int]:  # repro: noqa(ANA401) tests/test_monitor.py
        return {ch for ch, users in self.users.items() if cell in users}

    def assert_clean(self) -> None:
        """Raise if any violation was recorded (for record-mode tests)."""
        if self.violations:
            raise AssertionError(
                f"{len(self.violations)} interference violations recorded; "
                f"first: {self.violations[0]}"
            )
