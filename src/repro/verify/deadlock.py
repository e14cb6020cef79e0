"""Wait-for-graph deadlock detector — a runtime oracle for Theorem 2.

The paper's Theorem 2 argues the mode-2 (borrow update) / mode-3
(borrow search) handshake is deadlock-free because every wait-for edge
points at a request with a strictly smaller timestamp, so no cycle can
close.  This sanitizer checks the conclusion directly: it maintains the
wait-for graph incrementally and flags any cycle the moment its closing
edge appears.

An edge ``waiter -> holder`` exists while ``holder`` is the reason
``waiter`` cannot make progress:

* **defer** — ``holder`` postponed its RESPONSE to ``waiter``'s REQUEST
  into its DeferQ (a node with an older in-flight claim defers younger
  requests until its own acquisition completes).  The edge is removed
  when the deferred answer is *sent* — a reply in flight is not a wait,
  its delivery is guaranteed within one link latency.
* **gate** — ``waiter``'s own request is parked on the waiting gate
  (Fig. 2's "wait UNTIL waiting = 0") until ``holder``'s search
  concludes.  The edge is anchored to the *open search* it waits for:
  it exists only between the search's REQUEST broadcast
  (``search.begin``) and its ACQUISITION broadcast (``search.end``).
  An owed acknowledgment whose ACQUISITION is already in flight blocks
  nobody — without this anchoring, saturation workloads show transient
  phantom cycles through searches that have in fact completed.

Edges come from the protocol's probe emissions (``wait.block`` /
``wait.unblock`` / ``search.begin`` / ``search.end``); tests may also
drive :meth:`block` / :meth:`unblock` directly to build synthetic
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..sim import Environment
from .base import Sanitizer, Violation

__all__ = ["DeadlockViolation", "DeadlockDetector"]


@dataclass(frozen=True)
class DeadlockViolation(Violation):
    """A cycle in the wait-for graph (a deadlock, per Theorem 2)."""

    cycle: Tuple[int, ...]

    def __str__(self) -> str:
        chain = " -> ".join(str(cell) for cell in self.cycle)
        return (
            f"t={self.time}: wait-for cycle {chain} -> {self.cycle[0]} "
            f"(Theorem 2 violated)"
        )


class DeadlockDetector(Sanitizer):
    """Incrementally maintained wait-for graph with cycle detection.

    The graph is tiny (one node per MSS, edges only while requests are
    postponed), so a depth-first reachability check on each edge
    insertion is cheap and gives the earliest possible detection time.
    """

    name = "deadlock"

    def __init__(self, env: Environment, policy: str = "raise") -> None:
        #: waiter -> set of holders it is blocked on.
        self.waits_on: Dict[int, Set[int]] = {}
        #: (waiter, holder) -> reason string (debugging aid).
        self.reasons: Dict[Tuple[int, int], str] = {}
        #: searcher -> timestamp of its open (unconcluded) search.
        self.open_searches: Dict[int, Tuple[float, int]] = {}
        #: Running counters for reporting.
        self.edges_added = 0
        self.edges_removed = 0
        super().__init__(env, policy)

    def _attach(self) -> None:
        self._listen("wait.block", self._on_block)
        self._listen("wait.unblock", self._on_unblock)
        self._listen("search.begin", self._on_search_begin)
        self._listen("search.end", self._on_search_end)

    # -- probe handlers ----------------------------------------------------
    def _on_block(self, now: float, payload: Tuple[int, int, str, object]) -> None:
        waiter, holder, reason, ts = payload
        if reason == "gate" and self.open_searches.get(holder) != ts:
            # The search this acknowledgment belongs to has already
            # broadcast its ACQUISITION (it is in flight to the waiter):
            # nothing blocks, no edge.
            return
        self.block(waiter, holder, reason, time=now)

    def _on_unblock(self, now: float, payload: Tuple[int, int]) -> None:
        waiter, holder = payload
        self.unblock(waiter, holder)

    def _on_search_begin(self, now: float, payload: Tuple[int, object]) -> None:
        searcher, ts = payload
        self.open_searches[searcher] = ts

    def _on_search_end(self, now: float, payload: Tuple[int]) -> None:
        (searcher,) = payload
        self.open_searches.pop(searcher, None)
        # The searcher's ACQUISITION broadcast is in flight: every gate
        # wait on this search is resolved.
        for waiter in [
            w for w, holders in self.waits_on.items() if searcher in holders
        ]:
            if self.reasons.get((waiter, searcher)) == "gate":
                self.unblock(waiter, searcher)

    # -- graph maintenance -------------------------------------------------
    def block(
        self, waiter: int, holder: int, reason: str = "manual",
        time: Optional[float] = None,
    ) -> None:
        """Add edge ``waiter -> holder``; idempotent for existing edges."""
        holders = self.waits_on.setdefault(waiter, set())
        if holder in holders:
            return
        holders.add(holder)
        self.reasons[(waiter, holder)] = reason
        self.edges_added += 1
        cycle = self._find_cycle(waiter, holder)
        if cycle is not None:
            at = self.env.now if time is None else time
            self._report(DeadlockViolation(at, tuple(cycle)))

    def unblock(self, waiter: int, holder: int) -> None:
        """Remove edge ``waiter -> holder`` if present (tolerant)."""
        holders = self.waits_on.get(waiter)
        if holders is None or holder not in holders:
            return
        holders.discard(holder)
        if not holders:
            del self.waits_on[waiter]
        del self.reasons[(waiter, holder)]
        self.edges_removed += 1

    def blocked_on(self, waiter: int) -> Set[int]:  # repro: noqa(ANA401) tests/test_verify_sanitizers.py
        """Current holders ``waiter`` is waiting for (empty if none)."""
        return set(self.waits_on.get(waiter, ()))

    @property
    def edge_count(self) -> int:  # repro: noqa(ANA401) tests/test_verify_sanitizers.py
        return sum(len(holders) for holders in self.waits_on.values())

    def _find_cycle(self, waiter: int, holder: int) -> Optional[List[int]]:
        """DFS from ``holder``: a path back to ``waiter`` closes a cycle
        through the just-added edge.  Returns the cycle as a list
        ``[waiter, holder, ..., last]`` or ``None``."""
        stack = [(holder, [waiter, holder])]
        seen = {holder}
        while stack:
            node, path = stack.pop()
            for nxt in self.waits_on.get(node, ()):
                if nxt == waiter:
                    return path
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None
