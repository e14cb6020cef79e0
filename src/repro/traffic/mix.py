"""Multi-class traffic: voice and data calls share the spectrum.

Paper §2.1: "a channel can be used for either data or voice
communication."  A :class:`TrafficMix` assigns each arrival to a call
class (its own holding time, mobility and setup patience) with a given
probability, and keeps per-class accounting — e.g. short sticky data
bursts mixed with long voice calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .calls import CallConfig, CallLog

__all__ = ["TrafficClass", "TrafficMix"]


@dataclass(frozen=True)
class TrafficClass:
    """One call class of a mix."""

    name: str
    weight: float
    config: CallConfig

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("class weight must be positive")
        if not self.name:
            raise ValueError("class needs a name")


class TrafficMix:
    """A weighted set of call classes with per-class logs.

    >>> mix = TrafficMix([
    ...     TrafficClass("voice", 0.7, CallConfig(mean_holding=180.0)),
    ...     TrafficClass("data", 0.3, CallConfig(mean_holding=30.0)),
    ... ])
    """

    def __init__(self, classes: Sequence[TrafficClass]) -> None:
        if not classes:
            raise ValueError("mix needs at least one class")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
        self.classes: List[TrafficClass] = list(classes)
        total = sum(c.weight for c in classes)
        self._probs = np.array([c.weight / total for c in classes])
        #: Per-class call accounting.
        self.logs: Dict[str, CallLog] = {c.name: CallLog() for c in classes}

    def sample(self, rng: np.random.Generator) -> TrafficClass:
        """Draw the class of the next arrival."""
        idx = int(rng.choice(len(self.classes), p=self._probs))
        return self.classes[idx]

    def log_for(self, name: str) -> CallLog:
        return self.logs[name]

    @property
    def mean_holding(self) -> float:
        """Weighted mean holding time (for Erlang bookkeeping)."""
        return float(
            sum(p * c.config.mean_holding for p, c in zip(self._probs, self.classes))
        )
