"""Scenario configuration for experiments.

A :class:`Scenario` is a fully seeded, declarative description of one
simulation run: topology, scheme, traffic, network latency and protocol
parameters.  The defaults implement the paper-scale system used across
EXPERIMENTS.md: a 7×7 toroidal grid with a k=7 reuse pattern, 70
channels (10 primaries per cell, |IN| = 18) and unit message latency T.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional

from ..faults import FaultPlan
from ..traffic.patterns import (
    HotspotLoad,
    LoadPattern,
    PiecewiseLoad,
    RampLoad,
    TemporalHotspot,
    UniformLoad,
)

__all__ = ["Scenario"]

#: Load patterns reconstructable from serialized scenarios.
_PATTERN_TYPES = {
    "UniformLoad": UniformLoad,
    "HotspotLoad": HotspotLoad,
    "TemporalHotspot": TemporalHotspot,
    "RampLoad": RampLoad,
    "PiecewiseLoad": PiecewiseLoad,
}


def _pattern_to_dict(pattern: LoadPattern) -> Dict[str, Any]:
    name = type(pattern).__name__
    if name not in _PATTERN_TYPES:
        raise ValueError(f"pattern {name} is not serializable")
    state = {}
    for key, value in vars(pattern).items():
        key = key.lstrip("_")
        if isinstance(value, frozenset):
            value = sorted(value)
        state[key] = value
    return {"type": name, **state}


def _pattern_from_dict(data: Dict[str, Any]) -> LoadPattern:
    data = dict(data)
    name = data.pop("type")
    cls = _PATTERN_TYPES[name]
    if name == "UniformLoad":
        return cls(data["rate"])
    if name == "HotspotLoad":
        return cls(data["base_rate"], data["hot_cells"], data["hot_rate"])
    if name == "TemporalHotspot":
        return cls(
            data["base_rate"], data["hot_cells"], data["hot_rate"],
            data["start"], data["end"],
        )
    if name == "RampLoad":
        return cls(data["start_rate"], data["end_rate"], data["duration"])
    # PiecewiseLoad: JSON keys are strings; coerce back to ints.
    return cls({int(k): v for k, v in data["rates"].items()}, data["default"])


@dataclass
class Scenario:
    """Declarative description of one simulation run."""

    # -- scheme ------------------------------------------------------------
    scheme: str = "adaptive"

    # -- topology ------------------------------------------------------------
    rows: int = 7
    cols: int = 7
    num_channels: int = 70
    cluster_size: int = 7
    interference_radius: Optional[int] = None
    wrap: bool = True
    #: Demand-weighted static plan: channel-pool size per reuse color
    #: (see ``repro.analysis.planning``); None = balanced split.
    channels_per_color: Optional[Dict[int, int]] = None

    # -- network -------------------------------------------------------------
    latency_T: float = 1.0
    latency_model: str = "deterministic"  # or "uniform"
    latency_spread: float = 0.0  # uniform in [T, T + spread]
    fifo: bool = True

    # -- traffic ---------------------------------------------------------------
    #: Offered load per cell in Erlangs (λ·holding).  Ignored when an
    #: explicit ``pattern`` is supplied.
    offered_load: float = 5.0
    pattern: Optional[LoadPattern] = None
    mean_holding: float = 180.0
    mean_dwell: Optional[float] = None
    setup_deadline: Optional[float] = 30.0

    # -- horizon ---------------------------------------------------------------
    duration: float = 4000.0
    warmup: float = 500.0

    # -- adaptive-scheme parameters ---------------------------------------------
    alpha: int = 2
    theta_low: float = 1.0
    theta_high: float = 3.0
    window: float = 30.0
    #: Mode-policy registry entry driving the LOCAL ↔ BORROW_IDLE
    #: decision (see ``repro.policies`` and docs/POLICIES.md).  The
    #: default "linear" is the paper's sliding-window predictor and is
    #: bit-identical to the pre-registry behaviour.
    policy: str = "linear"
    #: Policy-specific constructor parameters (e.g. ``{"q": 0.1}`` for
    #: "quantile").  Participates in the scenario JSON, hence in
    #: result-cache keys.
    policy_params: Dict[str, Any] = field(default_factory=dict)

    # -- baseline parameters -------------------------------------------------------
    max_attempts: int = 25

    # -- fault injection --------------------------------------------------------
    #: Fault plan (see ``repro.faults``): message loss/duplication/
    #: delay/reorder probabilities, link partitions and MSS crash
    #: windows, plus the hardening knobs.  None (default) or a plan
    #: with nothing to inject runs the original reliable network.
    faults: Optional[FaultPlan] = None

    # -- observability ----------------------------------------------------------
    #: Observability (see ``repro.obs``): the sample interval, in
    #: simulated time units, of the span tracer, per-cell time series
    #: and kernel profiler that then run.  None (default) attaches
    #: nothing — the probe bus stays empty and the kernel keeps its
    #: no-subscriber fast path.
    obs: Optional[float] = None

    # -- hybrid analytic/DES fast lane -------------------------------------------
    #: Advance local-mode cells with a quiescent neighborhood
    #: analytically (Erlang-loss fluid model) instead of event-by-event;
    #: cells materialize back on any borrow-related contact.  See
    #: ``repro.harness.fastlane``.  Off (the default) is bit-identical
    #: to the classic kernel; what on combines with is the ``fastlane``
    #: column of docs/CAPABILITIES.md.
    fastlane: bool = False

    # -- bookkeeping ------------------------------------------------------------
    seed: int = 1
    monitor_policy: str = "raise"
    #: Free-form extras forwarded to the MSS constructor.
    extra_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration <= self.warmup:
            raise ValueError(
                f"duration {self.duration:g} must exceed warmup {self.warmup:g}"
            )
        if self.offered_load < 0:
            raise ValueError(f"offered_load must be >= 0, got {self.offered_load:g}")
        if self.mean_holding <= 0:
            raise ValueError(f"mean_holding must be positive, got {self.mean_holding:g}")
        obs = self.obs
        if obs is not None and (
            isinstance(obs, bool)
            or not isinstance(obs, (int, float))
            or not 0 < obs < math.inf
        ):
            raise ValueError(
                f"obs must be None or a positive sample interval, got {obs!r}"
            )

    @property
    def arrival_rate(self) -> float:
        """Per-cell λ implied by the Erlang offered load."""
        return self.offered_load / self.mean_holding

    def effective_pattern(self) -> LoadPattern:
        """The load pattern to simulate (explicit or uniform-by-load)."""
        if self.pattern is not None:
            return self.pattern
        return UniformLoad(self.arrival_rate)

    def with_(self, **overrides) -> "Scenario":
        """A copy of this scenario with fields replaced."""
        return replace(self, **overrides)

    # -- (de)serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (patterns serialized by type + parameters)."""
        data = asdict(self)
        if self.pattern is not None:
            data["pattern"] = _pattern_to_dict(self.pattern)
        # asdict recursed into the plan; replace with the canonical form
        # (lists, not tuples) so cache keys and JSON round-trips agree.
        data["faults"] = self.faults.to_dict() if self.faults is not None else None
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        data = dict(data)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        if data.get("pattern") is not None:
            data["pattern"] = _pattern_from_dict(data["pattern"])
        if data.get("faults") is not None and not isinstance(
            data["faults"], FaultPlan
        ):
            data["faults"] = FaultPlan.from_dict(data["faults"])
        if data.get("channels_per_color") is not None:
            # JSON object keys are strings; restore integer colors.
            data["channels_per_color"] = {
                int(k): v for k, v in data["channels_per_color"].items()
            }
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))
