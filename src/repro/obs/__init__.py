"""Unified observability layer: spans, time-series, run artifacts.

Everything here rides the DES kernel's probe bus and is **off by
default**: without a sample interval in the scenario's ``obs`` field,
no observer is constructed, no probe is subscribed, and the kernel's
``if not probes: return`` fast path keeps the hot loop untouched.

Layering: this package imports only the simulation layer (never the
harness — the harness imports *us*), and artifact writing pulls the
analysis layer lazily.

Quick start::

    from repro.harness import Scenario, run_scenario
    from repro.obs import SAMPLE_INTERVAL, write_run_artifacts

    report = run_scenario(Scenario(obs=SAMPLE_INTERVAL))
    write_run_artifacts(report, "run-artifacts")

or, equivalently, ``python -m repro --trace run-artifacts``.  See
docs/OBSERVABILITY.md for the probe-event catalog and format specs and
docs/TUTORIAL.md for an end-to-end walkthrough.
"""

from .artifacts import trace_events, write_manifest, write_run_artifacts
from .kernel import KernelProfiler
from .observer import ObsData, Observer
from .spans import Span, SpanTracer
from .timeseries import (
    MODE_GLYPHS,
    TimeSeriesRecorder,
    borrowing_fraction,
    mode_glyph,
    mode_timeline,
)

#: The observers' default sample interval (simulated time units): what
#: ``python -m repro --trace`` puts in ``Scenario.obs``.
SAMPLE_INTERVAL = 50.0

__all__ = [
    "SAMPLE_INTERVAL",
    "Observer",
    "ObsData",
    "Span",
    "SpanTracer",
    "TimeSeriesRecorder",
    "KernelProfiler",
    "write_run_artifacts",
    "write_manifest",
    "trace_events",
    "MODE_GLYPHS",
    "mode_glyph",
    "mode_timeline",
    "borrowing_fraction",
]
