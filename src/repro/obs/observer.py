"""The per-run observer: builds the collectors, harvests :class:`ObsData`.

``build_simulation`` constructs one :class:`Observer` when the
scenario's ``obs`` config is enabled; after the run,
``Report.from_simulation`` calls :meth:`Observer.collect` and stores
the resulting :class:`ObsData` on ``Report.obs``.  ObsData is a plain
data container — picklable (it rides Reports through the
multiprocessing pool and the result cache) and JSON-safe — so artifact
writing (:mod:`repro.obs.artifacts`) can happen later, in the parent
process, wherever the run directory should land.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .config import ObsConfig
from .kernel import KernelProfiler
from .spans import SpanTracer
from .timeseries import TimeSeriesRecorder

__all__ = ["ObsData", "Observer"]


@dataclass
class ObsData:
    """Everything one run's observability layer collected (plain data)."""

    #: The :class:`ObsConfig` that produced this data, as a dict.
    config: Dict[str, Any] = field(default_factory=dict)
    #: Closed acquisition spans (see :class:`repro.obs.spans.Span`).
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Spans still open when the run ended (halted mid-traffic).
    open_spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Free-standing instants: [time, kind, cell, detail].
    instants: List[List[Any]] = field(default_factory=list)
    #: Span-pairing accounting: opened/closed/dropped/malformed/….
    span_stats: Dict[str, int] = field(default_factory=dict)
    #: Per-cell time series (see ``TimeSeriesRecorder.to_dict``).
    series: Dict[str, Any] = field(default_factory=dict)
    #: Kernel vitals (see ``KernelProfiler.to_dict``).
    kernel: Dict[str, Any] = field(default_factory=dict)


class Observer:
    """Attaches the configured collectors to a freshly built simulation.

    Parameters
    ----------
    env, stations:
        The simulation environment and its ``cell -> MSS`` map.
    config:
        The scenario's :class:`ObsConfig`.
    duration:
        Scenario horizon; bounds the sampling processes so drain-style
        runs still terminate.
    network:
        Optional network, for the kernel profiler's message counters.
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
        config: ObsConfig,
        duration: float,
        network: Optional[Any] = None,
    ) -> None:
        self.config = config
        self.tracer: Optional[SpanTracer] = None
        self.recorder: Optional[TimeSeriesRecorder] = None
        self.profiler: Optional[KernelProfiler] = None
        if config.spans:
            self.tracer = SpanTracer(env, max_spans=config.max_spans)
        if config.timeseries:
            self.recorder = TimeSeriesRecorder(
                env, stations, config.sample_interval, horizon=duration
            )
        if config.kernel:
            self.profiler = KernelProfiler(
                env, config.sample_interval, horizon=duration, network=network
            )

    def collect(self) -> ObsData:
        """Harvest everything collected into one picklable container."""
        data = ObsData(config=self.config.to_dict())
        if self.tracer is not None:
            traced = self.tracer.to_dict()
            data.spans = traced["spans"]
            data.open_spans = traced["open_at_end"]
            data.instants = traced["instants"]
            data.span_stats = traced["stats"]
        if self.recorder is not None:
            data.series = self.recorder.to_dict()
        if self.profiler is not None:
            data.kernel = self.profiler.to_dict()
        return data
