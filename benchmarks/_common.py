"""Shared plumbing for the benchmark harness.

Each benchmark reproduces one table or figure of the paper (or one
claim of its abstract/§6): it runs the simulations once, prints the
regenerated table in the paper's layout (``pytest benchmarks/ -s``), and
asserts the *shape* of the result — who wins, by roughly what factor —
rather than exact numbers.  Wall-clock belongs to ``python -m bench``.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.harness import Report, Scenario, render_table, run_scenario

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


def run_schemes(
    schemes: Iterable[str], base: Scenario
) -> Dict[str, Report]:
    """Run the same scenario under several schemes."""
    return {s: run_scenario(base.with_(scheme=s)) for s in schemes}


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
    "run_schemes",
    "print_banner",
    "render_table",
    "Scenario",
    "run_scenario",
]
