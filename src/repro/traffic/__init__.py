"""Traffic workloads: load patterns, call lifecycle, arrival processes."""

from .. import lazy_exports
from .calls import CallConfig, CallLog, call_process
from .patterns import (
    HotspotLoad,
    LoadPattern,
    PiecewiseLoad,
    RampLoad,
    TemporalHotspot,
    UniformLoad,
)
from .source import TrafficSource

__all__ = [
    "LoadPattern",
    "UniformLoad",
    "HotspotLoad",
    "TemporalHotspot",
    "RampLoad",
    "PiecewiseLoad",
    "CallConfig",
    "CallLog",
    "call_process",
    "TrafficSource",
    "TrafficClass",
    "TrafficMix",
    "WaypointHost",
    "waypoint_call_process",
]

#: Multi-class sources and waypoint mobility are built by the code that
#: uses them; a scenario's own source needs neither.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".mix": ("TrafficClass", "TrafficMix"),
    ".waypoint": ("WaypointHost", "waypoint_call_process"),
})
