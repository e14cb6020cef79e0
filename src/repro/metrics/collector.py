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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..sim import Network

__all__ = ["AcquisitionRecord", "MetricsCollector"]


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

    #: Snapshot fields (see :mod:`repro.snap.state`).
    SNAPSHOT = (
        ("records", "records", AcquisitionRecord),
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
        self.records: List[AcquisitionRecord] = []
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
                AcquisitionRecord(
                    cell, kind, granted, queue_wait, acquisition_time,
                    attempts, mode, time,
                )
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

    @property
    def total_faults_injected(self) -> int:
        return sum(self.faults_injected.values())

    @property
    def total_faults_recovered(self) -> int:
        return sum(self.faults_recovered.values())

    def snapshot_message_baseline(self, network: Network) -> None:
        """Capture message counters at the warmup boundary."""
        self._message_baseline = dict(network.sent_by_kind)
        self._message_baseline_total = network.total_sent
        self._baseline_taken = True

    # -- derived statistics ---------------------------------------------------
    @property
    def offered(self) -> int:
        """Requests observed (after warmup)."""
        return len(self.records)

    @property
    def granted(self) -> int:
        return sum(1 for r in self.records if r.granted)

    @property
    def dropped(self) -> int:
        return self.offered - self.granted

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    def drop_rate_of(self, kind: str) -> float:
        subset = [r for r in self.records if r.kind == kind]
        if not subset:
            return 0.0
        return sum(1 for r in subset if not r.granted) / len(subset)

    def acquisition_times(self, granted_only: bool = True) -> np.ndarray:
        return np.array(
            [
                r.acquisition_time
                for r in self.records
                if r.granted or not granted_only
            ]
        )

    def mean_acquisition_time(self) -> float:
        times = self.acquisition_times()
        return float(times.mean()) if times.size else 0.0

    def acquisition_time_percentile(self, q: float) -> float:
        times = self.acquisition_times()
        return float(np.percentile(times, q)) if times.size else 0.0

    def queue_waits(self) -> np.ndarray:
        return np.array([r.queue_wait for r in self.records])

    def mean_attempts(self) -> float:
        """Average protocol attempts per *granted* request (paper's m)."""
        values = [r.attempts for r in self.records if r.granted]
        return float(np.mean(values)) if values else 0.0

    def max_attempts(self) -> int:
        values = [r.attempts for r in self.records]
        return max(values) if values else 0

    def mode_fractions(self) -> Dict[str, float]:
        """ξ1/ξ2/ξ3: fraction of granted acquisitions per path."""
        granted = [r for r in self.records if r.granted and r.mode]
        if not granted:
            return {}
        out: Dict[str, float] = {}
        for r in granted:
            out[r.mode] = out.get(r.mode, 0) + 1
        return {k: v / len(granted) for k, v in sorted(out.items())}

    def per_cell_drop_rates(self) -> Dict[int, float]:
        by_cell: Dict[int, List[bool]] = {}
        for r in self.records:
            by_cell.setdefault(r.cell, []).append(r.granted)
        return {
            cell: 1.0 - sum(grants) / len(grants)
            for cell, grants in sorted(by_cell.items())
        }

    def fairness_index(self) -> float:
        """Jain's fairness index over per-cell grant rates (1 = fair)."""
        return _jain([1.0 - d for d in self.per_cell_drop_rates().values()])

    def summary(self) -> Dict[str, Any]:
        """Every record-derived :class:`~repro.harness.Report` field, by
        name, from one pass over the records.

        Each value equals the accessor of the same name above (floats
        bit for bit: the same arrays go into the same numpy reductions).
        """
        waits: List[float] = []
        times: List[float] = []  # acquisition times of granted requests
        tries: List[int] = []  # attempts of granted requests
        asked: Dict[str, int] = {}
        served: Dict[str, int] = {}
        paths: Dict[str, int] = {}
        cell_asked: Dict[int, int] = {}
        cell_served: Dict[int, int] = {}
        max_attempts = 0
        for cell, kind, granted, wait, time, attempts, mode, _ in self.records:
            waits.append(wait)
            asked[kind] = asked.get(kind, 0) + 1
            cell_asked[cell] = cell_asked.get(cell, 0) + 1
            if attempts > max_attempts:
                max_attempts = attempts
            if granted:
                times.append(time)
                tries.append(attempts)
                served[kind] = served.get(kind, 0) + 1
                cell_served[cell] = cell_served.get(cell, 0) + 1
                if mode:
                    paths[mode] = paths.get(mode, 0) + 1
        offered = len(waits)
        n_granted = len(times)
        with_path = sum(paths.values())
        per_cell = {
            cell: 1.0 - cell_served.get(cell, 0) / n
            for cell, n in sorted(cell_asked.items())
        }
        acq = np.array(times)

        def drop_rate_of(kind: str) -> float:
            n = asked.get(kind, 0)
            return (n - served.get(kind, 0)) / n if n else 0.0

        return {
            "offered": offered,
            "granted": n_granted,
            "dropped": offered - n_granted,
            "drop_rate": (offered - n_granted) / offered if offered else 0.0,
            "new_call_block_rate": drop_rate_of("new"),
            "handoff_failure_rate": drop_rate_of("handoff"),
            "mean_acquisition_time": float(acq.mean()) if n_granted else 0.0,
            "p95_acquisition_time": float(np.percentile(acq, 95)) if n_granted else 0.0,
            "max_acquisition_time": float(acq.max()) if n_granted else 0.0,
            "mean_queue_wait": float(np.array(waits).mean()) if offered else 0.0,
            "mean_attempts": float(np.mean(tries)) if n_granted else 0.0,
            "max_attempts": max_attempts,
            "mode_fractions": {k: v / with_path for k, v in sorted(paths.items())},
            "fairness_index": _jain([1.0 - d for d in per_cell.values()]),
            "per_cell_drop_rates": per_cell,
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
