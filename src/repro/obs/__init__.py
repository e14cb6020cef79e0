"""Unified observability layer: spans, time-series, run artifacts.

Everything here rides the DES kernel's probe bus and is **off by
default**: without an enabled :class:`ObsConfig` on the scenario, no
observer is constructed, no probe is subscribed, and the kernel's
``if not probes: return`` fast path keeps the hot loop untouched.

Layering: this package imports only the simulation layer (never the
harness — the harness imports *us*), and artifact writing pulls the
analysis layer lazily.

Quick start::

    from repro.harness import Scenario, run_scenario
    from repro.obs import ObsConfig, write_run_artifacts

    report = run_scenario(Scenario(obs=ObsConfig()))
    write_run_artifacts(report, "run-artifacts")

or, equivalently, ``python -m repro --trace run-artifacts``.  See
docs/OBSERVABILITY.md for the probe-event catalog and format specs and
docs/TUTORIAL.md for an end-to-end walkthrough.
"""

from .artifacts import trace_events, write_manifest, write_run_artifacts
from .config import ObsConfig
from .kernel import KernelProfiler
from .observer import ObsData, Observer
from .spans import Span, SpanTracer
from .timeseries import (
    MODE_GLYPHS,
    TimeSeriesRecorder,
    UNKNOWN_MODE,
    borrowing_fraction,
    coerce_mode,
    mode_glyph,
    mode_timeline,
)

__all__ = [
    "ObsConfig",
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
    "UNKNOWN_MODE",
    "coerce_mode",
    "mode_glyph",
    "mode_timeline",
    "borrowing_fraction",
]
