"""One-parameter sweeps with replication, as tidy rows.

``sweep`` runs a base scenario across the values of one parameter (any
``Scenario`` field, or an ``extra_params`` key), optionally replicated
over several seeds, and returns tidy rows suitable for tables or CSV.
The cells go through :func:`~repro.harness.parallel.run_cells`, which
the experiment scripts under ``benchmarks/`` call directly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from .config import Scenario
from .parallel import run_cells
from .runner import Report

__all__ = ["SweepResult", "sweep", "to_csv", "DEFAULT_COLUMNS"]

#: Report attributes extracted into sweep rows by default.
DEFAULT_COLUMNS = (
    "drop_rate",
    "new_call_block_rate",
    "handoff_failure_rate",
    "mean_acquisition_time",
    "p95_acquisition_time",
    "messages_per_acquisition",
    "mean_attempts",
    "fairness_index",
    "violations",
)


@dataclass
class SweepResult:
    """Rows of a parameter sweep plus helpers to aggregate them."""

    parameter: str
    columns: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    reports: List[Report] = field(default_factory=list)

    def values(self) -> List[Any]:
        seen: List[Any] = []
        for row in self.rows:
            if row[self.parameter] not in seen:
                seen.append(row[self.parameter])
        return seen

    def mean_over_seeds(self, column: str) -> Dict[Any, float]:
        """Average a column across replications, per parameter value.

        Raises ``TypeError`` with the offending column/value if the
        column holds non-numeric data (e.g. an ``extra`` callback that
        returns labels).
        """
        sums: Dict[Any, List[float]] = {}
        for row in self.rows:
            value = row[column]
            try:
                numeric = float(value)
            except (TypeError, ValueError):
                raise TypeError(
                    f"column {column!r} is not numeric and cannot be "
                    f"averaged: got {value!r} at "
                    f"{self.parameter}={row.get(self.parameter)!r}, "
                    f"seed={row.get('seed')!r}"
                ) from None
            sums.setdefault(row[self.parameter], []).append(numeric)
        return {k: sum(v) / len(v) for k, v in sums.items()}

    def table_rows(self, columns: Optional[Sequence[str]] = None) -> List[List[Any]]:
        """Aggregated (mean-over-seeds) rows for render_table."""
        columns = list(columns or self.columns)
        means = {c: self.mean_over_seeds(c) for c in columns}
        return [
            [value] + [round(means[c][value], 4) for c in columns]
            for value in self.values()
        ]


def _scenario_fields() -> set:
    return {f.name for f in fields(Scenario)}


def sweep(
    base: Scenario,
    parameter: str,
    values: Iterable[Any],
    seeds: Iterable[int] = (1,),
    columns: Sequence[str] = DEFAULT_COLUMNS,
    extra: Optional[Callable[[Report], Dict[str, Any]]] = None,
    workers: Optional[int] = 1,
    cache: Any = None,
) -> SweepResult:
    """Run ``base`` for every (value, seed) combination.

    ``parameter`` may name a ``Scenario`` field (e.g. ``offered_load``,
    ``alpha``) or, if unknown, is passed through ``extra_params`` to the
    MSS constructor (e.g. ``best_policy``).  ``extra`` may compute
    additional per-report columns.

    ``workers`` fans the (value, seed) cells out over a process pool
    (``None`` = one per CPU); rows are re-ordered deterministically, so
    parallel output is row-for-row identical to serial.  ``cache``
    controls the persistent result cache (see
    :func:`repro.harness.cache.resolve_cache`): by default, re-running
    an unchanged sweep on unchanged code is a cache hit; pass
    ``cache=False`` or set ``REPRO_CACHE=off`` to always simulate.
    """
    known = _scenario_fields()
    result = SweepResult(parameter=parameter, columns=list(columns))
    cells: List[Scenario] = []
    labels: List[tuple] = []
    for value in values:
        for seed in seeds:
            if parameter in known:
                scenario = base.with_(**{parameter: value}, seed=seed)
            else:
                params = dict(base.extra_params)
                params[parameter] = value
                scenario = base.with_(extra_params=params, seed=seed)
            cells.append(scenario)
            labels.append((value, seed))
    reports = run_cells(cells, workers=workers, cache=cache)
    for (value, seed), report in zip(labels, reports):
        row: Dict[str, Any] = {parameter: value, "seed": seed}
        for column in columns:
            row[column] = getattr(report, column)
        if extra is not None:
            row.update(extra(report))
        result.rows.append(row)
        result.reports.append(report)
    return result


def to_csv(result: SweepResult) -> str:
    """Serialize sweep rows as CSV text.

    Rows may have heterogeneous keys (an ``extra`` callback that
    returns different columns per report): the header is the union of
    all row keys in first-appearance order, and missing cells are
    left blank.
    """
    if not result.rows:
        return ""
    buffer = io.StringIO()
    fieldnames: List[str] = []
    seen = set()
    for row in result.rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                fieldnames.append(key)
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
    writer.writeheader()
    for row in result.rows:
        writer.writerow(row)
    return buffer.getvalue()
