"""Experiment harness: scenarios, runners, replication, table output."""

from .capability import CompatibilityError, check_compatible
from .config import Scenario
from .runner import (
    Report,
    SCHEMES,
    Simulation,
    build_simulation,
    run_replications,
    run_scenario,
)
from .ascii_viz import sparkline
from .cache import ResultCache, cache_key, code_stamp, resolve_cache
from .parallel import CellFailure, ExperimentError, default_workers, run_cells
from .presets import PRESETS, preset, preset_names
from .stats import CI, compare, summarize
from .tables import format_value, render_table

__all__ = [
    "run_cells",
    "default_workers",
    "CellFailure",
    "ExperimentError",
    "ResultCache",
    "resolve_cache",
    "cache_key",
    "code_stamp",
    "sparkline",
    "CI",
    "summarize",
    "compare",
    "preset",
    "preset_names",
    "PRESETS",
    "Scenario",
    "Report",
    "Simulation",
    "SCHEMES",
    "build_simulation",
    "run_scenario",
    "run_replications",
    "CompatibilityError",
    "check_compatible",
    "render_table",
    "format_value",
]
