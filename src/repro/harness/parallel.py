"""Parallel execution of independent experiment cells.

The paper's entire evaluation is a grid of independent
(scheme, parameter, seed) simulations, and ``run_cells`` is the one way
this repo runs such a grid — every experiment under ``benchmarks/``,
``sweep``, cold ``run_replications``, the CLI.  Cells
fan out over a ``multiprocessing`` pool: each worker rebuilds its
simulation from a pickled :class:`~repro.harness.config.Scenario` and
returns the finished :class:`~repro.harness.runner.Report`.

Guarantees, in order of importance:

* **Determinism.** Results are re-ordered by cell index, so
  ``run_cells(..., workers=N)`` is row-for-row identical to the serial
  run for any N — parallelism is purely a wall-clock optimization.
* **Failure isolation.** A crashing cell never takes down the grid:
  its traceback is captured as a :class:`CellFailure` and the
  remaining cells complete; an :class:`ExperimentError` carrying every
  failure (and every successful report) is raised at the end.
* **Spawn safety.** The worker entrypoint is a module-level function
  driven only by its pickled arguments, so the pool works identically
  under the ``spawn``, ``fork`` and ``forkserver`` start methods.
  The parent's sanitizer policy is shipped along and re-applied in the
  worker, which does not inherit process globals under ``spawn``.

``workers=1`` (the default everywhere) bypasses the pool entirely and
runs serially in-process, with the same failure capture and the same
result cache integration (see :mod:`repro.harness.cache`).  The pool
machinery (``multiprocessing`` and the sockets and selectors under it)
is imported only when a pool runs, and the cache only when one is on,
so a serial run with ``cache=False`` loads neither.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from .capability import check_compatible
from .config import Scenario
from .runner import Report, default_sanitizer_policy, run_scenario

if TYPE_CHECKING:
    from .cache import ResultCache

__all__ = [
    "CellFailure",
    "ExperimentError",
    "run_cells",
    "default_workers",
]

#: Pickled per-cell work order: (index, scenario, sanitizer policy).
_Cell = Tuple[int, Scenario, Optional[str]]

#: Worker result: (index, ok, report-or-traceback-string).
_CellResult = Tuple[int, bool, Any]


@dataclass
class CellFailure:
    """One crashed experiment cell: which scenario, and why."""

    index: int
    scenario: Scenario
    traceback: str

    def summary(self) -> str:
        last = self.traceback.strip().splitlines()[-1] if self.traceback else "?"
        return (
            f"cell {self.index} (scheme={self.scenario.scheme!r}, "
            f"seed={self.scenario.seed}): {last}"
        )


class ExperimentError(RuntimeError):
    """One or more cells of an experiment grid crashed.

    The grid ran to completion first: ``reports`` holds every
    successful :class:`Report` (None at failed indices) and
    ``failures`` the captured tracebacks, so a long sweep's work is
    not lost to one bad cell.
    """

    def __init__(
        self, failures: List[CellFailure], reports: List[Optional[Report]]
    ) -> None:
        self.failures = failures
        self.reports = reports
        lines = [f"{len(failures)} of {len(reports)} experiment cells failed:"]
        lines += [f"  - {f.summary()}" for f in failures]
        lines.append("(full tracebacks in .failures)")
        super().__init__("\n".join(lines))


def default_workers() -> int:
    """Worker count used for ``workers=None``: one per CPU."""
    return max(1, os.cpu_count() or 1)


def _run_cell(cell: _Cell) -> _CellResult:
    """Spawn-safe worker entrypoint: run one pickled scenario.

    Exceptions are captured as formatted tracebacks rather than
    propagated, so one bad cell cannot poison the pool.
    """
    index, scenario, policy = cell
    try:
        if default_sanitizer_policy() != policy:
            from ..verify import set_default_policy

            set_default_policy(policy)
        return index, True, run_scenario(scenario)
    except Exception:
        return index, False, traceback.format_exc()


def run_cells(
    scenarios: Sequence[Scenario],
    workers: Optional[int] = 1,
    cache: Any = None,
    trace_dir: Optional[str] = None,
) -> List[Report]:
    """Run every scenario; reports come back in input order.

    Parameters
    ----------
    scenarios:
        The experiment cells.  Each must be picklable when
        ``workers > 1`` (every stock :class:`Scenario` is).
    workers:
        Process count: ``1`` (default) runs serially in-process, ``N``
        fans out over a pool of N, ``None`` uses one per CPU.  Output
        is bit-identical regardless.  Anything below 1 is refused.
    cache:
        Result-cache knob (see
        :func:`repro.harness.cache.resolve_cache`): ``None`` uses the
        ambient default (on unless ``REPRO_CACHE=off``), ``False``
        disables, a :class:`ResultCache` is used as given.  Cached
        cells are served without running (or spawning workers) at all.
    trace_dir:
        When set, write run artifacts (see
        :func:`repro.obs.write_run_artifacts`) for every traced report
        into ``trace_dir/cell-<index>-<scheme>-seed<seed>/`` plus a
        top-level ``manifest.json``.  Writing happens in the parent,
        in cell-index order, after every worker finished — so the
        directory layout is deterministic regardless of worker count.
        Cells whose scenario has no enabled ``obs`` config are listed
        in the manifest as untraced and produce no subdirectory.

    Raises
    ------
    ValueError
        Before anything runs, if ``workers`` is neither None nor at
        least 1.
    CompatibilityError
        Before anything is looked up, spawned or run, if the capability
        table rejects any cell.
    ExperimentError
        After the whole grid has been attempted, if any cell crashed.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be None or at least 1, got {workers!r}")
    scenarios = list(scenarios)
    for index, scenario in enumerate(scenarios):
        if not isinstance(scenario, Scenario):
            raise TypeError(f"cell {index} is not a Scenario: {scenario!r}")
        check_compatible(scenario)
    store: Optional[ResultCache] = None
    if cache is not False:
        from .cache import resolve_cache

        store = resolve_cache(cache)
    reports: List[Optional[Report]] = [None] * len(scenarios)

    pending: List[_Cell] = []
    policy = default_sanitizer_policy()
    for index, scenario in enumerate(scenarios):
        hit = store.get(scenario) if store is not None else None
        if hit is not None:
            reports[index] = hit
        else:
            pending.append((index, scenario, policy))

    failures: List[CellFailure] = []

    def consume(result: _CellResult) -> None:
        index, ok, value = result
        if ok:
            reports[index] = value
            if store is not None:
                store.put(scenarios[index], value)
        else:
            failures.append(CellFailure(index, scenarios[index], value))

    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(pending) <= 1:
        for cell in pending:
            consume(_run_cell(cell))
    else:
        import multiprocessing

        # ``spawn`` everywhere: identical semantics on every platform
        # and no accidental inheritance of parent state.
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=min(workers, len(pending))) as pool:
            for result in pool.imap_unordered(_run_cell, pending, chunksize=1):
                consume(result)

    if trace_dir is not None:
        _write_trace_dir(trace_dir, scenarios, reports)

    if failures:
        failures.sort(key=lambda f: f.index)
        raise ExperimentError(failures, reports)
    return reports  # type: ignore[return-value]  # all cells succeeded


def _write_trace_dir(
    trace_dir: str,
    scenarios: List[Scenario],
    reports: List[Optional[Report]],
) -> None:
    """Merge worker-local observability data into one artifact tree.

    ObsData travels back from the workers pickled inside each Report,
    so this runs entirely in the parent and in index order: the output
    is byte-deterministic for any worker count (modulo the wall-clock
    columns of the kernel profile, which are nondeterministic by
    nature).
    """
    from ..obs import write_manifest, write_run_artifacts

    entries = []
    for index, (scenario, report) in enumerate(zip(scenarios, reports)):
        name = f"cell-{index:03d}-{scenario.scheme}-seed{scenario.seed}"
        entry = {
            "index": index,
            "scheme": scenario.scheme,
            "seed": scenario.seed,
            "dir": None,
            "status": "failed" if report is None else "ok",
        }
        if report is not None and getattr(report, "obs", None) is not None:
            files = write_run_artifacts(
                report, os.path.join(trace_dir, name)
            )
            entry["dir"] = name
            entry["files"] = files
        entries.append(entry)
    write_manifest(trace_dir, entries)
