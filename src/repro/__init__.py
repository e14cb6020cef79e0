"""repro — reproduction of Kahol et al., "Adaptive Distributed Dynamic
Channel Allocation for Wireless Networks" (ICPP Workshop 1998).

Public API
----------
The package is organized bottom-up:

* :mod:`repro.sim` — deterministic discrete-event kernel + message network;
* :mod:`repro.cellular` — hex grids, reuse patterns, spectrum partition;
* :mod:`repro.protocols` — FCA and the Dong–Lai search/update baselines;
* :mod:`repro.core` — the paper's adaptive hybrid scheme;
* :mod:`repro.traffic` — call workload generators and mobility;
* :mod:`repro.metrics` — drop rate, acquisition latency, message counts;
* :mod:`repro.analysis` — the closed-form models of the paper's §5;
* :mod:`repro.harness` — scenario configs, runners and table rendering.

Quick start::

    from repro import Scenario, run_scenario

    scenario = Scenario(scheme="adaptive", rows=7, cols=7,
                        num_channels=70, offered_load=5.0, seed=1)
    report = run_scenario(scenario)
    print(report.summary())
"""

__version__ = "1.0.0"

from .cellular import CellularTopology, HexGrid, ReusePattern, Spectrum
from .sim import Environment, Network, StreamRegistry

__all__ = [
    "__version__",
    "Environment",
    "Network",
    "StreamRegistry",
    "CellularTopology",
    "HexGrid",
    "ReusePattern",
    "Spectrum",
]


#: Harness names re-exported lazily (keeps `import repro` cheap and
#: avoids import cycles).
_HARNESS_EXPORTS = (
    "Scenario",
    "run_scenario",
    "run_replications",
    "build_simulation",
    "SCHEMES",
    "preset",
    "preset_names",
    "summarize",
    "compare",
    "render_table",
)


def __getattr__(name):
    if name in _HARNESS_EXPORTS:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HARNESS_EXPORTS))
