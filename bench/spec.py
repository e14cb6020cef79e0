"""The benchmark's declarations: ``BENCHMARK.json`` and the workload files.

``BENCHMARK.json`` (repository root) is the single source of truth for
metric names, units, directions and regression bounds; the workload
files under ``bench/workloads/`` hold the scenarios.  Nothing here
imports ``repro`` — the parent process never does.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from . import BENCH_DIR, ROOT

WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")

#: Timed children per workload (after one discarded warm-up child).
REPEATS = 5
#: Timed children in ``--quick`` mode.
QUICK_REPEATS = 2
#: Untraced children that anchor the ratios of a traced-only run.
TRACE_BASELINE_REPEATS = 3


def load_contract() -> Dict[str, Any]:
    """Parse ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def workload_names(contract: Dict[str, Any]) -> List[str]:
    return [w["name"] for w in contract["workloads"]]


def load_workload(name: str, quick: bool = False) -> Dict[str, Any]:
    """One workload: its kind, scenario fields, (for ``fork``) fork plan
    and the workload-specific output checks (see ``runner.check_expectations``).

    ``quick`` applies the file's short-horizon overrides, used only by
    the smoke mode and the tests.
    """
    with open(os.path.join(WORKLOAD_DIR, f"{name}.json")) as fh:
        data = json.load(fh)
    scenario = dict(data["scenario"])
    fork = data.get("fork")
    expect = dict(data.get("expect", {}))
    if quick:
        scenario.update(data.get("quick", {}))
        fork = data.get("quick_fork", fork)
        expect.update(data.get("quick_expect", {}))
    return {
        "name": name, "kind": data["kind"], "scenario": scenario,
        "fork": fork, "expect": expect,
    }
