"""The per-run observer: builds the collectors, harvests :class:`ObsData`.

``build_simulation`` constructs one :class:`Observer` when the
scenario's ``obs`` field holds a sample interval; after the run,
``Report.from_simulation`` calls :meth:`Observer.collect` and stores
the resulting :class:`ObsData` on ``Report.obs``.  ObsData is a plain
data container — picklable (it rides Reports through the
multiprocessing pool and the result cache) and JSON-safe — so artifact
writing (:mod:`repro.obs.artifacts`) can happen later, in the parent
process, wherever the run directory should land.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from .kernel import KernelProfiler
from .spans import SpanTracer
from .timeseries import TimeSeriesRecorder

__all__ = ["ObsData", "Observer"]


@dataclass
class ObsData:
    """Everything one run's observability layer collected (plain data)."""

    #: Closed acquisition spans (see :class:`repro.obs.spans.Span`).
    spans: List[Dict[str, Any]]
    #: Spans still open when the run ended (halted mid-traffic).
    open_spans: List[Dict[str, Any]]
    #: Free-standing instants: [time, kind, cell, detail].
    instants: List[List[Any]]
    #: Span-pairing accounting: opened/closed/dropped/malformed/….
    span_stats: Dict[str, int]
    #: Per-cell time series (see ``TimeSeriesRecorder.to_dict``).
    series: Dict[str, Any]
    #: Kernel vitals (see ``KernelProfiler.to_dict``).
    kernel: Dict[str, Any]


class Observer:
    """Attaches the three collectors to a freshly built simulation.

    Parameters
    ----------
    env, stations, network:
        The simulation environment, its ``cell -> MSS`` map and its
        network (for the kernel profiler's message counters).
    interval:
        The scenario's ``obs``: the sample interval of the time-series
        recorder and the kernel profiler, in simulated time units.
    duration:
        Scenario horizon; bounds the sampling processes so drain-style
        runs still terminate.
    """

    #: Snapshot fields (see :mod:`repro.snap.state`): the collectors.
    SNAPSHOT = (
        ("tracer", "tracer", SpanTracer),
        ("recorder", "recorder", TimeSeriesRecorder),
        ("profiler", "profiler", KernelProfiler),
    )

    def __init__(
        self,
        env: Any,
        stations: Dict[int, Any],
        interval: float,
        duration: float,
        network: Any,
    ) -> None:
        self.tracer = SpanTracer(env)
        self.recorder = TimeSeriesRecorder(env, stations, interval, horizon=duration)
        self.profiler = KernelProfiler(env, interval, horizon=duration, network=network)

    def collect(self) -> ObsData:
        """Harvest everything collected into one picklable container."""
        traced = self.tracer.to_dict()
        return ObsData(
            spans=traced["spans"],
            open_spans=traced["open_at_end"],
            instants=traced["instants"],
            span_stats=traced["stats"],
            series=self.recorder.to_dict(),
            kernel=self.profiler.to_dict(),
        )
