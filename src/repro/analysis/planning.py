"""Capacity planning: demand-weighted static channel partitions.

The paper's FCA baseline splits the spectrum evenly across the k reuse
colors.  When the expected demand is *known* to be uneven, a planner
can size each color's primary pool to it — the strongest static
baseline to compare dynamic schemes against (and what an operator
would actually deploy).

``marginal_allocation`` solves the classical problem: distribute ``n``
channels over colors with offered loads ``A_c`` to minimize the total
expected blocked traffic ``Σ_c A_c · B(A_c, n_c)``.  Because Erlang-B
blocking is convex and decreasing in the server count, the greedy
algorithm — always give the next channel to the color with the largest
marginal gain — is exactly optimal (Fox, 1966).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from .erlang import erlang_b

__all__ = ["marginal_allocation", "expected_blocked_traffic", "plan_partition"]


def expected_blocked_traffic(loads: Sequence[float], counts: Sequence[int]) -> float:
    """Total expected blocked Erlangs for a per-color allocation."""
    if len(loads) != len(counts):
        raise ValueError("loads and counts must have equal length")
    return sum(a * erlang_b(a, n) for a, n in zip(loads, counts))


def marginal_allocation(loads: Sequence[float], total_channels: int) -> List[int]:
    """Optimal integer split of ``total_channels`` across colors.

    Parameters
    ----------
    loads:
        Offered load ``A_c`` (Erlangs) per reuse color.
    total_channels:
        Channels to distribute (the spectrum size ``n``).

    Returns the per-color channel counts, summing to ``total_channels``.
    Every color gets at least one: a color with none would make its
    cells permanently dead under FCA.
    """
    k = len(loads)
    if k == 0:
        raise ValueError("need at least one color")
    if any(a < 0 for a in loads):
        raise ValueError("loads must be >= 0")
    if total_channels < k:
        raise ValueError(
            f"{total_channels} channels cannot give one to each of {k} colors"
        )

    counts = [1] * k

    def gain(color: int) -> float:
        a, n = loads[color], counts[color]
        # Marginal reduction of blocked traffic from one more channel.
        return a * (erlang_b(a, n) - erlang_b(a, n + 1))

    # Max-heap of (−gain, color); gains shrink monotonically (convexity)
    # so a lazy heap with recomputation on pop is exact.
    heap: List[Tuple[float, int]] = [(-gain(c), c) for c in range(k)]
    heapq.heapify(heap)
    remaining = total_channels - k
    while remaining > 0:
        neg, color = heapq.heappop(heap)
        current = -gain(color)
        if current > neg + 1e-15:  # stale entry: gain changed, re-push
            heapq.heappush(heap, (current, color))
            continue
        counts[color] += 1
        remaining -= 1
        heapq.heappush(heap, (-gain(color), color))
    return counts


def plan_partition(color_loads: Dict[int, float], total_channels: int) -> Dict[int, int]:
    """Dict-flavoured wrapper: color -> channel count."""
    colors = sorted(color_loads)
    counts = marginal_allocation([color_loads[c] for c in colors], total_channels)
    return dict(zip(colors, counts))
