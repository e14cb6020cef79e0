"""Discrete-event simulation substrate (kernel, sync primitives, network).

This subpackage knows nothing about cellular networks or channel
allocation; it is a general-purpose deterministic DES kernel in the
process-interaction style, plus a latency-modelled message fabric.
"""

from .engine import EmptySchedule, Environment, StopSimulation
from .events import (
    AllOf,
    AnyOf,
    ConditionEvent,
    Event,
    Process,
    Timeout,
)
from .network import (
    DeterministicLatency,
    Envelope,
    LatencyModel,
    Network,
    UniformLatency,
)
from .resources import Collector, Gate, Resource
from .rng import StreamRegistry, UniformStream

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "Process",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
    "Gate",
    "Resource",
    "Collector",
    "Network",
    "Envelope",
    "LatencyModel",
    "DeterministicLatency",
    "UniformLatency",
    "StreamRegistry",
    "UniformStream",
]
