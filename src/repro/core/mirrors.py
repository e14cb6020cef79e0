"""Interference mirrors of the adaptive scheme: refcounted ``U_j`` sets.

The adaptive node's view of its interference region — the paper's
``U_j`` sets plus the ``granted_out`` overlay (deviation D6) — as sets
that keep one shared per-channel count, so ``I_i`` is never recomputed.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Iterator, Tuple

__all__ = ["_CountedSet", "_Mirrors"]


class _CountedSet(set):
    """A set that maintains a shared per-channel reference count.

    The adaptive node derives its interference view ``I_i`` from ~19
    mirrored sets (``U_j`` plus ``granted_out_j``); recomputing that
    union inside ``check_mode`` — which runs on *every* message — was
    the simulator's hottest path (40% of runtime, measured).  Instead,
    every mutation of a mirrored set updates the owner's channel
    refcount, so ``interfered()`` and ``free_primary_count`` become
    O(result) lookups.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Dict[int, int]) -> None:
        super().__init__()
        self._counts = counts

    def add(self, channel: int) -> None:
        if channel not in self:
            super().add(channel)
            self._counts[channel] = self._counts.get(channel, 0) + 1

    def discard(self, channel: int) -> None:
        if channel in self:
            super().discard(channel)
            remaining = self._counts[channel] - 1
            if remaining:
                self._counts[channel] = remaining
            else:
                del self._counts[channel]

    def replace(self, new_members) -> None:
        """Make the set equal ``new_members``, updating counts."""
        new = set(new_members)
        for channel in tuple(self - new):
            self.discard(channel)
        for channel in new - self:
            self.add(channel)

    # Guard against accidental use of bypassing mutators.
    def update(self, *args, **kwargs):  # pragma: no cover - guard
        raise NotImplementedError("use add/replace so refcounts stay exact")

    def remove(self, channel):  # pragma: no cover - guard
        raise NotImplementedError("use discard so refcounts stay exact")

    def clear(self):  # pragma: no cover - guard
        raise NotImplementedError("use replace(()) so refcounts stay exact")


class _Mirrors(dict):
    """``neighbour -> _CountedSet`` over one interference region, each
    set created on first touch.

    Most neighbours never borrow, so most of a station's 2·|IN|
    mirrors stay empty for a whole run — and a snapshot restore
    rebuilds every station per fork.  The mapping is total over the
    region all the same: indexing an untouched neighbour returns (and
    keeps) a fresh empty set, and iteration, ``len``, ``in``, ``get``,
    ``keys``/``values``/``items`` cover every neighbour.  :meth:`peek`
    reads without creating, and :meth:`discard` / :meth:`replace`
    write without creating a mirror that would stay empty.
    """

    __slots__ = ("_cells", "_counts")

    def __init__(self, cells: Tuple[int, ...], counts: Dict[int, int]) -> None:
        super().__init__()
        self._cells = cells
        self._counts = counts

    def __missing__(self, cell: int) -> _CountedSet:
        if cell not in self._cells:
            raise KeyError(cell)
        mirror = self[cell] = _CountedSet(self._counts)
        return mirror

    def peek(self, cell: int) -> Iterable[int]:
        """The mirror for *cell* if it was ever touched, else ``()``."""
        return dict.get(self, cell, ())

    def discard(self, cell: int, channel: int) -> None:
        """``self[cell].discard(channel)``, creating no mirror."""
        mirror = dict.get(self, cell)
        if mirror is not None:
            mirror.discard(channel)
        elif cell not in self._cells:
            raise KeyError(cell)

    def replace(self, cell: int, members: Collection[int]) -> None:
        """``self[cell].replace(members)``; an untouched *cell* stays
        untouched when *members* is empty."""
        mirror = dict.get(self, cell)
        if mirror is None:
            if cell not in self._cells:
                raise KeyError(cell)
            if not members:
                return
            mirror = self[cell]
        mirror.replace(members)

    def __iter__(self) -> Iterator[int]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell: object) -> bool:
        return cell in self._cells

    def get(self, cell, default=None):
        return self[cell] if cell in self._cells else default

    def keys(self):
        return self._cells

    def values(self):
        return [self[j] for j in self._cells]

    def items(self):
        return [(j, self[j]) for j in self._cells]
