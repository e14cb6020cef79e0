"""A-priori occupancy model for the adaptive scheme's ξ fractions.

The paper measures ξ₁/ξ₂/ξ₃ (fractions of acquisitions served locally /
by borrowing-update / by borrowing-search) from simulation.  This
module predicts them from first principles so the simulation has an
independent cross-check:

* A cell's *primary* occupancy behaves like an M/M/c queue observed at
  arrival instants.  With borrowing as overflow (blocked-by-primary
  calls are mostly carried, not lost), the primary pool is approximately
  an M/M/c queue with blocked customers overflowing — we use the
  Erlang-loss (truncated Poisson) distribution as the standard
  first-order approximation.
* ξ₁ ≈ P(an arrival finds a free primary) = 1 − B(A, c)  (PASTA).
* An overflow arrival borrows.  The update round succeeds unless the
  whole interference region is near exhaustion; the region carries
  roughly (N+1)·A Erlangs on (N+1)·c/“reuse overlap” channels — we
  approximate the search fraction by the loss probability of the
  *pooled* region: ξ₃ ≈ B((N+1)·A / K, n·(N+1)/K / … ) collapses to the
  pooled Erlang loss with the k-fold reuse factored out:
  ξ₃ ≈ B(A_region, C_region) with A_region = (N+1)A/k · k = (N+1)A and
  C_region = n·(N+1)/k.
* ξ₂ = 1 − ξ₁ − ξ₃.

These are deliberately coarse (independence assumptions, no retry
dynamics): measured against simulation, ξ₁ matches within ~0.01 up to
~70% of primary capacity, while at saturation the model *under*-predicts
ξ₃ — real searches are mostly triggered by α-exhaustion under borrow
contention, not by true region exhaustion.  The test suite pins the
model to its validated regime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .erlang import erlang_b

__all__ = [
    "predict_xi",
    "XiPrediction",
]


@dataclass(frozen=True)
class XiPrediction:
    """Predicted acquisition-path fractions."""

    xi_local: float
    xi_update: float
    xi_search: float


def predict_xi(  # repro: noqa(ANA401) tests/test_occupancy.py
    offered_load: float,
    primaries: int = 10,
    region_size: int = 18,
    cluster_size: int = 7,
    num_channels: int = 70,
) -> XiPrediction:
    """First-order prediction of (ξ₁, ξ₂, ξ₃) at a uniform load.

    Parameters mirror the default topology: 10 primaries/cell, N = 18,
    k = 7, n = 70 channels.
    """
    if offered_load < 0:
        raise ValueError("offered_load must be >= 0")
    # Local path: free primary at arrival (PASTA + Erlang loss).
    blocked_primary = erlang_b(offered_load, primaries)
    xi_local = 1.0 - blocked_primary

    # Search path: the whole (N+1)-cell pool is effectively exhausted.
    # The pooled system carries (N+1)·A Erlangs; thanks to k-fold reuse
    # its capacity is n·(N+1)/k channels.
    cells = region_size + 1
    pooled_load = cells * offered_load
    pooled_capacity = int(round(num_channels * cells / cluster_size))
    xi_search_given_blocked = erlang_b(pooled_load, pooled_capacity)
    xi_search = blocked_primary * xi_search_given_blocked

    xi_update = max(0.0, blocked_primary - xi_search)
    return XiPrediction(xi_local, xi_update, xi_search)
