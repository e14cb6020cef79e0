"""Policy parameter tuning: grid search over the adaptive knobs.

``tune_policy`` sweeps a mode policy's shared thresholds (α, θ_l, θ_h,
W) — plus optional policy-specific parameters — over a seeded grid,
runs every cell through the parallel engine and the persistent result
cache, and reports the best setting by a chosen objective (mean drop
rate by default).  See docs/POLICIES.md for the tuning workflow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..policies.base import policy_spec
from .capability import check_compatible
from .config import Scenario
from .parallel import run_cells
from .runner import Report

__all__ = ["TuneResult", "tune_policy"]


@dataclass
class TuneResult:
    """Outcome of a :func:`tune_policy` grid search."""

    policy: str
    objective: str
    #: One row per grid point: the setting dict, per-seed objective
    #: values, and their mean (the score).
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: All reports, keyed by (setting-tuple, seed) insertion order.
    reports: List[Report] = field(default_factory=list)

    @property
    def best(self) -> Dict[str, Any]:
        """The winning row (lowest mean objective, deterministic)."""
        if not self.rows:
            raise ValueError("tune_policy produced no rows")
        return min(self.rows, key=lambda r: (r["score"], r["rank_key"]))

    def best_scenario(self, base: Scenario) -> Scenario:
        """``base`` with the winning setting applied."""
        setting = self.best["setting"]
        fields_ = {
            k: v for k, v in setting.items()
            if k in ("alpha", "theta_low", "theta_high", "window")
        }
        params = dict(base.policy_params)
        params.update(
            {k: v for k, v in setting.items() if k not in fields_}
        )
        return base.with_(policy=self.policy, policy_params=params, **fields_)

    def table_rows(self) -> List[List[Any]]:
        """Rows (setting, score) sorted best-first for render_table."""
        ordered = sorted(self.rows, key=lambda r: (r["score"], r["rank_key"]))
        return [
            [
                ", ".join(f"{k}={v}" for k, v in row["setting"].items()),
                round(row["score"], 6),
            ]
            for row in ordered
        ]


def tune_policy(
    base: Scenario,
    policy: Optional[str] = None,
    *,
    alphas: Iterable[int] = (2,),
    theta_lows: Iterable[float] = (1.0,),
    theta_highs: Iterable[float] = (3.0,),
    windows: Iterable[float] = (30.0,),
    param_grid: Optional[Dict[str, Sequence[Any]]] = None,
    seeds: Iterable[int] = (1,),
    objective: str = "drop_rate",
    workers: Optional[int] = 1,
    cache: Any = None,
) -> TuneResult:
    """Grid-search a policy's parameters over seeded replications.

    ``base`` must run a policy-driven scheme.  The grid is the cross
    product of ``alphas`` × ``theta_lows`` × ``theta_highs`` ×
    ``windows`` × ``param_grid`` (policy-specific parameters, e.g.
    ``{"beta": [0.1, 0.3, 0.5]}`` for "ewma"); infeasible corners with
    θ_l > θ_h are skipped.  Every grid point runs once per seed through
    :func:`repro.harness.parallel.run_cells`, so replications fan out
    over the worker pool and unchanged points are result-cache hits.

    ``objective`` names any numeric :class:`Report` attribute
    (minimized).  Ties break deterministically toward the first grid
    point in iteration order.
    """
    check_compatible(base, lanes=("policy tooling",))
    name = base.policy if policy is None else policy
    policy_spec(name)  # fail fast on unknown policies
    seeds = list(seeds)
    if not seeds:
        raise ValueError("tune_policy needs at least one seed")
    grid_keys = list(param_grid or {})
    grid_values = [list(param_grid[k]) for k in grid_keys]

    settings: List[Dict[str, Any]] = []
    cells: List[Scenario] = []
    labels: List[Tuple[int, int]] = []  # (setting index, seed)
    for alpha, t_low, t_high, window in itertools.product(
        alphas, theta_lows, theta_highs, windows
    ):
        if t_low > t_high:
            continue
        for combo in itertools.product(*grid_values) if grid_keys else [()]:
            setting: Dict[str, Any] = {
                "alpha": alpha,
                "theta_low": t_low,
                "theta_high": t_high,
                "window": window,
            }
            extra = dict(zip(grid_keys, combo))
            setting.update(extra)
            params = dict(base.policy_params)
            params.update(extra)
            index = len(settings)
            settings.append(setting)
            for seed in seeds:
                cells.append(
                    base.with_(
                        policy=name,
                        policy_params=params,
                        alpha=alpha,
                        theta_low=t_low,
                        theta_high=t_high,
                        window=window,
                        seed=seed,
                    )
                )
                labels.append((index, seed))
    if not settings:
        raise ValueError(
            "empty tuning grid (every corner had theta_low > theta_high?)"
        )

    reports = run_cells(cells, workers=workers, cache=cache)
    result = TuneResult(policy=name, objective=objective)
    per_setting: Dict[int, Dict[int, float]] = {}
    for (index, seed), report in zip(labels, reports):
        per_setting.setdefault(index, {})[seed] = float(
            getattr(report, objective)
        )
        result.reports.append(report)
    for index, setting in enumerate(settings):
        by_seed = per_setting[index]
        values = [by_seed[s] for s in seeds]
        result.rows.append(
            {
                "setting": setting,
                "by_seed": by_seed,
                "score": sum(values) / len(values),
                "rank_key": index,
            }
        )
    return result
