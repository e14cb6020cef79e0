"""The acquisition log: one row per finished request, stored as columns.

A run appends one row per channel request and reads them all once, in
the report — so the log keeps eight typed ``array.array`` columns
(about 40 bytes a row) instead of a list of tuples (184), hands the
statistics zero-copy numpy views of them, and pickles as the eight
buffers.  To every caller it still *reads* as the sequence of
:class:`AcquisitionRecord` it replaced: ``len``, truth, indexing,
slicing and iteration give real records with builtin field types, and
``==`` compares against another log or a list of tuples.

``kind`` and ``mode`` are stored as one-byte codes into a label table
the log owns (first appearance order; ``None`` is a label like any
other).  A byte holds 256 codes; the 257th distinct label raises
:class:`LabelTableFull` rather than widening the column — the schemes
use nine labels between them, so a log that gets there is being fed
something that is not a label.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Union

import numpy as np

__all__ = ["AcquisitionLog", "AcquisitionRecord", "LabelTableFull"]


class AcquisitionRecord(NamedTuple):
    """One completed channel-acquisition attempt."""

    cell: int
    kind: str  # "new" or "handoff"
    granted: bool
    queue_wait: float
    acquisition_time: float
    attempts: int
    mode: Optional[str]  # "local" / "update" / "search" / None
    time: float


class LabelTableFull(ValueError):
    """A log was given more distinct ``kind`` / ``mode`` labels than
    its one-byte codes can name."""


#: Labels a log can tell apart (the codes are unsigned bytes).
MAX_LABELS = 256


class AcquisitionLog:
    """Column store that reads as a sequence of :class:`AcquisitionRecord`."""

    __hash__ = None  # mutable, compares by value

    def __init__(self) -> None:
        # One column per ``AcquisitionRecord`` field, under its name.
        self.cell = array("i")
        self.kind = array("B")
        self.granted = array("B")
        self.queue_wait = array("d")
        self.acquisition_time = array("d")
        self.attempts = array("i")
        self.mode = array("B")
        self.time = array("d")
        #: Code -> label, in order of first appearance.
        self.labels: List[Optional[str]] = []
        self._codes: Dict[Optional[str], int] = {}

    # -- writing -----------------------------------------------------------
    def append(
        self,
        cell: int,
        kind: str,
        granted: bool,
        queue_wait: float,
        acquisition_time: float,
        attempts: int,
        mode: Optional[str],
        time: float,
    ) -> None:
        """Add one row.  A value its column cannot hold (``OverflowError``,
        ``TypeError``) leaves the log as it was."""
        codes = self._codes
        if kind not in codes:
            self._intern(kind)
        if mode not in codes:
            self._intern(mode)
        try:
            self.cell.append(cell)
            self.kind.append(codes[kind])
            self.granted.append(1 if granted else 0)
            self.queue_wait.append(queue_wait)
            self.acquisition_time.append(acquisition_time)
            self.attempts.append(attempts)
            self.mode.append(codes[mode])
            self.time.append(time)
        except BaseException:
            # ``time`` goes last, so its length is the rows that are whole.
            whole = len(self.time)
            for name in AcquisitionRecord._fields:
                del getattr(self, name)[whole:]
            raise

    def _intern(self, label: Optional[str]) -> None:
        if len(self.labels) >= MAX_LABELS:
            raise LabelTableFull(
                f"cannot add label {label!r}: the log already holds "
                f"{MAX_LABELS} distinct kind/mode labels"
            )
        self._codes[label] = len(self.labels)
        self.labels.append(label)

    def extend(self, rows: Iterable[Iterable[Any]]) -> None:
        """Add rows given as plain field sequences (see :meth:`rows`)."""
        for row in rows:
            self.append(*row)

    # -- reading as columns ------------------------------------------------
    def view(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of column ``name`` (``kind`` / ``mode``
        as codes, see :meth:`code_of`).

        The view pins the column's buffer: an ``append`` while one is
        alive raises ``BufferError``, so take views, reduce, let go.
        """
        column = getattr(self, name)
        # An ``array`` typecode is the numpy dtype character of the same type.
        return np.frombuffer(column, dtype=np.bool_ if name == "granted" else column.typecode)

    def code_of(self, label: Optional[str]) -> Optional[int]:
        """The code ``label`` is stored under, None if no row has it."""
        return self._codes.get(label)

    # -- reading as a sequence of records ----------------------------------
    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self) -> Iterator[AcquisitionRecord]:
        return self._records(slice(None))

    def _records(self, rows: slice) -> Iterator[AcquisitionRecord]:
        label = self.labels.__getitem__
        return map(
            AcquisitionRecord,
            self.cell[rows],
            map(label, self.kind[rows]),
            map(bool, self.granted[rows]),
            self.queue_wait[rows],
            self.acquisition_time[rows],
            self.attempts[rows],
            map(label, self.mode[rows]),
            self.time[rows],
        )

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[AcquisitionRecord, List[AcquisitionRecord]]:
        if isinstance(index, slice):
            return list(self._records(index))
        row = range(len(self))[index]  # a negative or out-of-range index
        return next(self._records(slice(row, row + 1)))

    def rows(self) -> List[List[Any]]:
        """Every row as a plain list of its fields (the snapshot form)."""
        return [list(record) for record in self]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (AcquisitionLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<AcquisitionLog of {len(self)} records>"
