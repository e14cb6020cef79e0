"""Metrics collection for channel-allocation simulations.

Records, per acquisition attempt: outcome (granted/denied), the queue
wait behind other requests at the same MSS, the protocol's own channel
acquisition time (the paper's headline latency metric, measured in the
same units as the network latency T), the number of protocol attempts
(the paper's ``m``), and the acquisition path ("local" / "update" /
"search" — the paper's ξ1/ξ2/ξ3 fractions).

A ``warmup`` horizon discards transient samples; message counts are
read from the network with a warmup-offset snapshot taken at the same
instant so rates are consistent.

The per-request log is a column store (:mod:`repro.metrics.log`); the
statistics below are numpy expressions over views of its columns, one
implementation each — ``summary()`` only collects them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from .log import AcquisitionLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..sim import Network

__all__ = ["MetricsCollector"]


def _jain(rates: List[float]) -> float:
    if not rates:
        return 1.0
    arr = np.array(rates)
    denom = len(arr) * float((arr**2).sum())
    if denom == 0:
        return 1.0
    return float(arr.sum()) ** 2 / denom


class MetricsCollector:
    """Accumulates call-level and message-level statistics."""

    #: Snapshot fields (see :mod:`repro.snap.state`); the acquisition
    #: log goes through :meth:`state_dict` as plain rows.
    SNAPSHOT = (
        "releases",
        ("message_baseline", "_message_baseline"),
        ("message_baseline_total", "_message_baseline_total"),
        ("baseline_taken", "_baseline_taken"),
        "faults_injected",
        "faults_recovered",
        "retries",
        "retry_exhausted",
    )

    def __init__(self, warmup: float = 0.0) -> None:
        self.warmup = warmup
        #: One row per request past the warm-up: reads as a sequence of
        #: :class:`AcquisitionRecord` (see :mod:`repro.metrics.log`).
        self.records = AcquisitionLog()
        self.releases = 0
        self._message_baseline: Dict[str, int] = {}
        self._message_baseline_total = 0
        self._baseline_taken = False
        #: Injected faults by kind ("drop", "duplicate", "delay",
        #: "reorder", "partition", "crash", "crash_drop", "restart") —
        #: fed by the fault injector; empty without an active plan.
        self.faults_injected: Dict[str, int] = {}
        #: Faults the hardening layer recovered from, by kind (currently
        #: "retransmit": a retransmitted message that was acknowledged).
        self.faults_recovered: Dict[str, int] = {}
        #: ARQ retransmissions sent.
        self.retries = 0
        #: Messages abandoned after exhausting the retry budget.
        self.retry_exhausted = 0

    # -- recording (called by the protocol/traffic layers) -----------------
    def record_acquisition(
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
        """One finished acquisition attempt (kept if past the warm-up)."""
        if time >= self.warmup:
            self.records.append(
                cell, kind, granted, queue_wait, acquisition_time,
                attempts, mode, time,
            )

    def record_release(self, cell: int, channel: int, time: float) -> None:
        if time >= self.warmup:
            self.releases += 1

    def record_fault(self, kind: str) -> None:
        """One injected fault (called by the fault injector)."""
        self.faults_injected[kind] = self.faults_injected.get(kind, 0) + 1

    def record_fault_recovery(self, kind: str) -> None:
        """One fault the hardening layer recovered from."""
        self.faults_recovered[kind] = self.faults_recovered.get(kind, 0) + 1

    def record_retry(self) -> None:
        """One ARQ retransmission."""
        self.retries += 1

    def record_retry_exhausted(self) -> None:
        """One message given up on after the full retry budget."""
        self.retry_exhausted += 1

    def snapshot_message_baseline(self, network: Network) -> None:
        """Capture message counters at the warmup boundary."""
        self._message_baseline = dict(network.sent_by_kind)
        self._message_baseline_total = network.total_sent
        self._baseline_taken = True

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot hook: the log as plain rows, ``list(record)`` each."""
        return {"records": self.records.rows()}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (accepts its JSON round trip)."""
        self.records = AcquisitionLog()
        self.records.extend(state["records"])

    # -- derived statistics ---------------------------------------------------
    #
    # Each statistic is written once, as a numpy expression over views
    # of the log's columns (element order is recording order), and comes
    # out as a builtin ``int`` / ``float`` / ``dict``: a numpy scalar in
    # a ``Report`` field would change its ``repr`` and its JSON.
    @property
    def offered(self) -> int:
        """Requests observed (after warmup)."""
        return len(self.records)

    @property
    def granted(self) -> int:
        return int(np.count_nonzero(self.records.view("granted")))

    @property
    def dropped(self) -> int:
        return self.offered - self.granted

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    def drop_rate_of(self, kind: str) -> float:
        log = self.records
        code = log.code_of(kind)
        if code is None:
            return 0.0
        subset = log.view("kind") == code
        asked = int(np.count_nonzero(subset))
        if not asked:  # a label the log knows only as a mode
            return 0.0
        return int(np.count_nonzero(subset & ~log.view("granted"))) / asked

    def acquisition_times(self, granted_only: bool = True) -> np.ndarray:
        times = self.records.view("acquisition_time")
        return times[self.records.view("granted")] if granted_only else times.copy()

    def mean_acquisition_time(self) -> float:
        times = self.acquisition_times()
        return float(times.mean()) if times.size else 0.0

    def acquisition_time_percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 to 100) of the granted acquisition
        times by numpy's linear rule, bit-identical to ``np.percentile``;
        0.0 when nothing was granted.

        The rule, step for step (NaN in gives NaN out): the virtual
        index ``vi = (n - 1) * (q / 100)`` lies between the order
        statistics ``x`` at ``lo = floor(vi)`` and ``y`` at ``lo + 1``,
        with weight ``g = vi - lo``; the value is ``x + (y - x) * g``,
        or ``y - (y - x) * (1 - g)`` when ``g >= 0.5``.  At
        ``vi >= n - 1`` it is the maximum.  The two order statistics
        come from partitioning the copy in place (``np.percentile``
        would also import ``numpy.ma`` for them).
        """
        times = self.acquisition_times()
        n = times.size
        if not n:
            return 0.0
        top = float(times.max())  # NaN when any time is NaN
        vi = (n - 1) * (q / 100)
        if vi >= n - 1 or top != top:
            # numpy indexes the maximum as -1 here, so both neighbours
            # are the maximum and the weight is vi + 1.
            x = y = top
            g = vi + 1
        else:
            lo = math.floor(vi)
            g = vi - lo
            times.partition((lo, lo + 1))
            x, y = float(times[lo]), float(times[lo + 1])
        return y - (y - x) * (1 - g) if g >= 0.5 else x + (y - x) * g

    def max_acquisition_time(self) -> float:
        """Longest acquisition among granted requests."""
        times = self.acquisition_times()
        return float(times.max()) if times.size else 0.0

    def queue_waits(self) -> np.ndarray:  # repro: noqa(ANA401) tests/test_acquisition_log.py
        return self.records.view("queue_wait").copy()

    def mean_queue_wait(self) -> float:
        """Average wait behind earlier requests of the same cell, all requests."""
        waits = self.records.view("queue_wait")
        return float(waits.mean()) if waits.size else 0.0

    def mean_attempts(self) -> float:
        """Average protocol attempts per *granted* request (paper's m)."""
        tries = self.records.view("attempts")[self.records.view("granted")]
        return float(np.mean(tries)) if tries.size else 0.0

    def max_attempts(self) -> int:
        tries = self.records.view("attempts")
        return int(tries.max()) if tries.size else 0

    def mode_fractions(self) -> Dict[str, float]:
        """ξ1/ξ2/ξ3: fraction of granted acquisitions per path."""
        log = self.records
        counts = np.bincount(log.view("mode")[log.view("granted")]).tolist()
        paths = {label: n for label, n in zip(log.labels, counts) if label and n}
        with_path = sum(paths.values())
        return {label: n / with_path for label, n in sorted(paths.items())}

    def per_cell_drop_rates(self) -> Dict[int, float]:
        """Drop rate of every cell that saw a request, in cell-id order.

        Counted with ``np.bincount`` over the ids less the smallest one,
        so ids may be negative and nothing is sorted.
        """
        log = self.records
        cells = log.view("cell")
        if not cells.size:
            return {}
        low = int(cells.min())
        row_cell = np.subtract(cells, low, dtype=np.intp)
        asked = np.bincount(row_cell)
        served = np.bincount(row_cell[log.view("granted")], minlength=asked.size)
        seen = np.flatnonzero(asked)
        return {
            low + offset: 1.0 - n_served / n_asked
            for offset, n_served, n_asked in zip(
                seen.tolist(), served[seen].tolist(), asked[seen].tolist()
            )
        }

    def fairness_index(self) -> float:
        """Jain's fairness index over per-cell grant rates (1 = fair)."""
        return _jain([1.0 - d for d in self.per_cell_drop_rates().values()])

    def summary(self) -> Dict[str, Any]:
        """Every record-derived :class:`~repro.harness.Report` field, by
        name: each one is the accessor above."""
        return {
            "offered": self.offered,
            "granted": self.granted,
            "dropped": self.dropped,
            "drop_rate": self.drop_rate,
            "new_call_block_rate": self.drop_rate_of("new"),
            "handoff_failure_rate": self.drop_rate_of("handoff"),
            "mean_acquisition_time": self.mean_acquisition_time(),
            "p95_acquisition_time": self.acquisition_time_percentile(95),
            "max_acquisition_time": self.max_acquisition_time(),
            "mean_queue_wait": self.mean_queue_wait(),
            "mean_attempts": self.mean_attempts(),
            "max_attempts": self.max_attempts(),
            "mode_fractions": self.mode_fractions(),
            "fairness_index": self.fairness_index(),
            "per_cell_drop_rates": self.per_cell_drop_rates(),
        }

    # -- message statistics -----------------------------------------------------
    def messages_since_warmup(self, network: Network) -> int:
        base = self._message_baseline_total if self._baseline_taken else 0
        return network.total_sent - base

    def messages_by_kind(self, network: Network) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for kind, count in network.sent_by_kind.items():
            base = self._message_baseline.get(kind, 0) if self._baseline_taken else 0
            delta = count - base
            if delta:
                out[kind] = delta
        return dict(sorted(out.items()))

    def messages_per_acquisition(self, network: Network) -> float:
        """Control messages per channel request (the paper's message
        complexity, measured end to end including releases)."""
        if not self.offered:
            return 0.0
        return self.messages_since_warmup(network) / self.offered
