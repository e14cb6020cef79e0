"""Replication statistics: means, confidence intervals, comparisons.

Simulation point estimates without error bars invite over-reading.
``summarize`` turns replicated reports into mean ± half-width Student-t
confidence intervals, and ``compare`` answers "is scheme A better than
scheme B on metric m?" with a paired-by-seed interval — the right test
when both schemes were run under common random numbers (as
``run_replications`` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from .runner import Report

__all__ = ["CI", "summarize", "compare"]

# Two-sided 95% Student-t critical values by degrees of freedom (1..30);
# beyond that the normal value is used.  Avoids a scipy dependency in
# the core path (scipy is available but this keeps `repro` lean).
_T95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def _t95(df: int) -> float:
    if df < 1:
        raise ValueError("need at least 2 samples for an interval")
    return _T95[df - 1] if df <= len(_T95) else 1.96


@dataclass(frozen=True)
class CI:
    """A mean with a 95% confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.half_width:.4f} (n={self.n})"


def _interval(values: Sequence[float]) -> CI:
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    mean = sum(values) / n
    if n == 1:
        return CI(mean, float("inf"), 1)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = _t95(n - 1) * math.sqrt(var / n)
    return CI(mean, half, n)


def summarize(reports: Sequence[Report], metrics: Sequence[str]) -> Dict[str, CI]:
    """95% CI of each report attribute over the replications."""
    out: Dict[str, CI] = {}
    for metric in metrics:
        out[metric] = _interval([float(getattr(r, metric)) for r in reports])
    return out


def compare(
    a: Sequence[Report], b: Sequence[Report], metric: str
) -> CI:
    """Paired 95% CI of (a − b) on ``metric``.

    Reports must be paired by seed (common random numbers): same length
    and matching seeds, as produced by running ``run_replications``
    with two schemes on the same base scenario.
    """
    if len(a) != len(b):
        raise ValueError("replication lists differ in length")
    for ra, rb in zip(a, b):
        if ra.scenario.seed != rb.scenario.seed:
            raise ValueError("replications are not paired by seed")
    diffs = [
        float(getattr(ra, metric)) - float(getattr(rb, metric))
        for ra, rb in zip(a, b)
    ]
    return _interval(diffs)
