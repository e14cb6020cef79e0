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

import sys
from typing import Any, Dict, List, Tuple

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


def lazy_exports(package: str, table: Dict[str, Tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for a package whose names in ``table``
    (``{submodule: names}``) import their submodule at first access.

    The package's one loader: its ``__init__`` imports what every run
    needs and lists each export that not every run uses in ``table``,
    so a run imports only the modules it executes (DESIGN.md, "What a
    run imports").
    """
    home = {name: package + module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # The import statement's own path, so `python -X importtime` lists the load.
        return getattr(__import__(module, fromlist=(name,)), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(__name__, {".harness": _HARNESS_EXPORTS})
