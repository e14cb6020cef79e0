"""Lightweight DES-kernel profiling for run artifacts.

A :class:`KernelProfiler` samples the engine's vitals on the
observability cadence so perf regressions are diagnosable from a run
artifact instead of a rerun:

* **events processed** — the engine's monotone event-id counter; the
  per-interval delta is the event rate;
* **heap depth** — pending events in the scheduler queue (memory
  pressure and lookahead of the run);
* **event-loop occupancy** — CPU seconds / wall seconds per interval
  (a loop spending wall time outside CPU is blocked on something
  other than simulation);
* **messages by kind** — the network's ``sent_by_kind`` counters, whose
  per-interval deltas show which protocol phase dominates.

Simulation-time quantities (event counts, heap depth, message counts)
are deterministic; the wall/CPU columns are measurement noise by nature
and are kept in a clearly labeled section of the report.  This module
is observability-layer code, outside the SIM001 wall-clock ban on the
kernel itself.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = ["KernelProfiler"]


class KernelProfiler:
    """Samples engine vitals every ``interval`` simulated time units."""

    #: Snapshot fields (see :mod:`repro.snap.state`).
    SNAPSHOT = (
        "sim_times",
        "events",
        "heap_depth",
        "wall",
        "cpu",
        ("messages_by_kind", "messages_by_kind", dict),
    )

    def __init__(
        self,
        env: Any,
        interval: float,
        horizon: float,
        network: Any,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.env = env
        self.interval = interval
        self.horizon = horizon
        self.network = network
        self.sim_times: List[float] = []
        self.events: List[int] = []
        self.heap_depth: List[int] = []
        self.wall: List[float] = []
        self.cpu: List[float] = []
        self.messages_by_kind: List[Dict[str, int]] = []
        env.process(self._sampler(), name="obs-kernel")

    def _sampler(self, wake_at: Optional[float] = None):
        """``wake_at`` re-enters a sampler a snapshot caught asleep."""
        env = self.env
        if wake_at is not None:
            yield env.timeout_at(wake_at)
        while env.now < self.horizon:
            self.sim_times.append(env.now)
            self.events.append(env._eid)
            self.heap_depth.append(len(env))
            self.wall.append(time.perf_counter())
            self.cpu.append(time.process_time())
            self.messages_by_kind.append(dict(self.network.sent_by_kind))
            yield env.timeout(self.interval)

    # -- export --------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form with derived per-interval rates.

        ``events``/``heap_depth``/``messages_by_kind`` are
        deterministic; ``events_per_s``/``occupancy`` derive from wall
        and CPU clocks and vary run to run.
        """
        rates: List[Optional[int]] = []
        occupancy: List[Optional[float]] = []
        for i in range(1, len(self.sim_times)):
            dwall = self.wall[i] - self.wall[i - 1]
            dcpu = self.cpu[i] - self.cpu[i - 1]
            devents = self.events[i] - self.events[i - 1]
            rates.append(int(devents / dwall) if dwall > 0 else None)
            occupancy.append(round(dcpu / dwall, 4) if dwall > 0 else None)
        message_deltas: List[Dict[str, int]] = []
        for i in range(1, len(self.messages_by_kind)):
            prev, cur = self.messages_by_kind[i - 1], self.messages_by_kind[i]
            delta = {
                kind: cur[kind] - prev.get(kind, 0)
                for kind in cur
                if cur[kind] - prev.get(kind, 0)
            }
            message_deltas.append(delta)
        return {
            "interval": self.interval,
            "sim_times": list(self.sim_times),
            "events": list(self.events),
            "heap_depth": list(self.heap_depth),
            "events_per_s": rates,
            "occupancy": occupancy,
            "messages_by_kind_delta": message_deltas,
            "total_events": self.events[-1] if self.events else 0,
            "max_heap_depth": max(self.heap_depth, default=0),
        }
