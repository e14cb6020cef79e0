"""Grid partitioning and inter-shard fabric primitives.

The sharded kernel (see :mod:`repro.harness.sharded`) partitions the
hex grid into contiguous row bands, runs one ordinary
:class:`~repro.sim.engine.Environment` per band, and synchronizes the
band kernels conservatively: the latency model's minimum per-hop delay
``T`` is the lookahead, so every message sent inside a time window
``[t, t + T)`` delivers at or after ``t + T`` — the coordinator can let
every shard finish the window in isolation, then exchange the
cross-shard envelopes at the barrier before any kernel enters the next
window.  This module holds the pieces that live *inside* the shard:

* :func:`plan_shards` / :class:`ShardPlan` — the static partition:
  cell ownership, per-shard cell lists, and the frontier (cells whose
  interference region crosses a shard boundary).
* :class:`ShardPort` — the sender-side half of the router, attached to
  a shard's :class:`~repro.sim.network.Network`.  Sends to cells the
  shard does not own are accounted locally (counters, probes, FIFO
  floor) and exported instead of scheduled.
* :class:`RemoteRecord` — one exported envelope, reduced to plain
  picklable data.  Field order doubles as the deterministic merge key:
  the coordinator sorts merged records by ``(deliver_at, sent_at, src,
  dst, msg_id)``, which reproduces the single-kernel tie-break for
  every tie a FIFO fabric can actually produce (same-link ties arrive
  in send order; same-root multicast replies arrive in sorted-source
  order, matching the protocols' sorted ``IN`` fan-out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["ShardPlan", "plan_shards", "RemoteRecord", "ShardPort"]


class RemoteRecord(NamedTuple):
    """One cross-shard message, in transit between kernels.

    Plain data (pickles through worker pipes).  The field order *is*
    the merge order: tuple comparison sorts by delivery time first,
    then send time, then source cell, destination cell and logical
    message id — a total order over everything a window can export
    (payloads are never compared: no two records of one run tie on all
    five leading fields).
    """

    deliver_at: float
    sent_at: float
    src: int
    dst: int
    msg_id: int
    payload: Any
    fault_tag: Optional[str]
    #: Sender-side vector-clock stamp (None when no checker is attached
    #: or the copy is a fault artifact) — re-primes the destination
    #: shard's :class:`~repro.verify.vectorclock.VectorClockChecker`.
    clock: Optional[Dict[int, int]]


@dataclass(frozen=True)
class ShardPlan:
    """Static partition of the grid into contiguous row bands."""

    #: Number of shards (row bands).
    shards: int
    #: Per-shard cell ids, ascending within each shard.
    cells: Tuple[Tuple[int, ...], ...]
    #: ``owner[cell]`` -> shard index, dense over all cell ids.
    owner: Tuple[int, ...]
    #: Per-shard frontier: cells with at least one interference
    #: neighbor owned by another shard (the only cells whose channel
    #: usage the cross-shard safety replay needs to examine).
    frontier: Tuple[Tuple[int, ...], ...]

    @property
    def num_cells(self) -> int:
        return len(self.owner)

    def shard_of(self, cell: int) -> int:
        """Owning shard of ``cell``."""
        return self.owner[cell]

    def cells_of(self, shard: int) -> Tuple[int, ...]:
        """Cells owned by ``shard`` (ascending)."""
        return self.cells[shard]

    def frontier_of(self, shard: int) -> Tuple[int, ...]:
        """Frontier cells of ``shard`` (ascending)."""
        return self.frontier[shard]

    def describe(self) -> str:
        """One-line human-readable summary."""
        sizes = [len(band) for band in self.cells]
        frontier = sum(len(band) for band in self.frontier)
        return (
            f"{self.shards} shard(s) over {self.num_cells} cells "
            f"(band sizes {sizes}, {frontier} frontier cells)"
        )


def plan_shards(topo: Any, shards: int) -> ShardPlan:
    """Partition ``topo``'s grid into ``shards`` contiguous row bands.

    Cells are numbered row-major, so a band of rows is a contiguous id
    range; bands differ in height by at most one row.  Raises
    ``ValueError`` unless ``1 <= shards <= rows`` — a band must own at
    least one full row to stay contiguous.
    """
    rows = topo.grid.rows
    cols = topo.grid.cols
    if not 1 <= shards <= rows:
        raise ValueError(
            f"cannot cut {rows} grid rows into {shards} row bands; "
            f"use 1 to {rows} shards for this topology"
        )
    owner: List[int] = [0] * (rows * cols)
    bands: List[Tuple[int, ...]] = []
    base, extra = divmod(rows, shards)
    next_row = 0
    for shard in range(shards):
        height = base + (1 if shard < extra else 0)
        lo = next_row * cols
        hi = (next_row + height) * cols
        band = tuple(range(lo, hi))
        for cell in band:
            owner[cell] = shard
        bands.append(band)
        next_row += height
    owner_t = tuple(owner)
    frontier = tuple(
        tuple(
            cell
            for cell in band
            if any(owner_t[peer] != owner_t[cell] for peer in topo.IN(cell))
        )
        for band in bands
    )
    return ShardPlan(
        shards=shards, cells=tuple(bands), owner=owner_t, frontier=frontier
    )


class ShardPort:
    """Sender-side half of the inter-shard router.

    A :class:`~repro.sim.network.Network` with a port attached routes
    sends whose destination it does not own into the port's outbox
    instead of its own event queue; the coordinator drains the outbox
    at every window barrier.  Stamp resolution is deferred to
    :meth:`drain` so the vector-clock checker (which stamps envelopes
    *after* the network's send-side accounting) is always consulted
    after the stamp exists — and popping at drain time keeps the
    checker's stamp table from accumulating never-delivered entries.
    """

    def __init__(self, shard: int, owner: Tuple[int, ...]) -> None:
        self.shard = shard
        self.owner = owner
        #: Envelopes exported this window, in send order.
        self._outbox: List[Any] = []
        #: Optional stamp resolver (``seq -> Clock or None``); wired by
        #: the sharded harness to pop the local vector-clock checker's
        #: stamp table.
        self.stamp_of: Optional[Callable[[int], Optional[Dict[int, int]]]] = None
        #: Total envelopes exported over the run.
        self.exported = 0

    def routes(self, cell: int) -> bool:
        """True when ``cell`` exists somewhere in the sharded system."""
        return 0 <= cell < len(self.owner)

    def owns(self, cell: int) -> bool:
        """True when ``cell`` runs on this port's shard."""
        return self.owner[cell] == self.shard

    def export(self, envelope: Any) -> None:
        """Queue one scheduled delivery for a remote destination."""
        self._outbox.append(envelope)
        self.exported += 1

    def drain(self) -> List[RemoteRecord]:
        """Convert and clear this window's outbox (send order kept)."""
        stamp_of = self.stamp_of
        records = []
        for env_msg in self._outbox:
            clock: Optional[Dict[int, int]] = None
            if stamp_of is not None and env_msg.fault_tag is None:
                clock = stamp_of(env_msg.seq)
            records.append(
                RemoteRecord(
                    deliver_at=env_msg.deliver_at,
                    sent_at=env_msg.sent_at,
                    src=env_msg.src,
                    dst=env_msg.dst,
                    msg_id=env_msg.msg_id,
                    payload=env_msg.payload,
                    fault_tag=env_msg.fault_tag,
                    clock=clock,
                )
            )
        self._outbox.clear()
        return records
