"""Experiment harness: scenarios, runners, replication, table output."""

from .. import lazy_exports
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

#: The sweep tooling — pool, result cache, presets, statistics, tables
#: — loads at first use: one run builds, runs and reports without it.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".parallel": ("run_cells", "default_workers", "CellFailure", "ExperimentError"),
    ".cache": ("ResultCache", "resolve_cache", "cache_key", "code_stamp"),
    ".ascii_viz": ("sparkline",),
    ".stats": ("CI", "summarize", "compare"),
    ".presets": ("preset", "preset_names", "PRESETS"),
    ".tables": ("render_table", "format_value"),
})
