"""Shared plumbing for the benchmark harness.

Each benchmark reproduces one table or figure of the paper (or one
claim of its abstract/§6): it runs the simulations once, prints the
regenerated table in the paper's layout (``pytest benchmarks/ -s``), and
asserts the *shape* of the result — who wins, by roughly what factor —
rather than exact numbers.  Wall-clock belongs to ``python -m bench``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping

from repro.harness import Report, Scenario, render_table, run_cells

#: Scheme display names in the paper's Table order.
PAPER_ORDER = ["basic_search", "basic_update", "advanced_update", "adaptive"]
PAPER_LABELS = {
    "fixed": "Fixed (FCA)",
    "basic_search": "Basic Search",
    "basic_update": "Basic Update",
    "advanced_update": "Advanced Update",
    "adaptive": "Adaptive (Proposed)",
    "prakash": "Allocated-set [8]",
}

#: Topology constants of the default scenario (7x7 torus, k=7, R=2).
N_REGION = 18  # |IN_i|
N_PRIMARY = 10  # |PR_i|


def run_grid(cells: Mapping[Hashable, Scenario]) -> Dict[Hashable, Report]:
    """Run a labelled grid of cells, one worker per core, always simulating."""
    return dict(zip(cells, run_cells(list(cells.values()), workers=None, cache=False)))


def run_schemes(
    schemes: Iterable[str], base: Scenario
) -> Dict[str, Report]:
    """Run the same scenario under several schemes."""
    return run_grid({s: base.with_(scheme=s) for s in schemes})


def print_banner(exp_id: str, description: str) -> None:
    print()
    print("#" * 72)
    print(f"# {exp_id}: {description}")
    print("#" * 72)


__all__ = [
    "PAPER_ORDER",
    "PAPER_LABELS",
    "N_REGION",
    "N_PRIMARY",
    "run_grid",
    "run_schemes",
    "print_banner",
    "render_table",
    "Scenario",
]
