"""Parallel experiment engine: failure capture and the pool's knobs.

A crashing cell reports its traceback without losing the rest of the
grid.  That ``workers=N`` rows are bit-identical to the serial run is
the workers oracle's (tests/test_lanes.py).
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.harness import (
    ExperimentError,
    Scenario,
    default_workers,
    parallel,
    run_cells,
    run_replications,
)


def quick(**kw):
    base = dict(
        duration=400.0, warmup=100.0, offered_load=4.0,
        mean_holding=60.0, seed=3,
    )
    base.update(kw)
    return Scenario(**base)


def test_run_replications_parallel_matches_serial():
    """Replication i runs seed + i.  That a pool's rows are the serial
    ones is the workers oracle's (tests/test_lanes.py)."""
    serial = run_replications(quick(scheme="basic_search"), 3, workers=1, cache=False)
    assert [r.scenario.seed for r in serial] == [3, 4, 5]


def test_failure_capture_completes_grid():
    """A crashing cell reports its traceback; the rest still run."""
    good = quick(scheme="fixed")
    bad = quick(scheme="nonesuch")
    cells = [good, bad, quick(scheme="fixed", seed=9)]
    with pytest.raises(ExperimentError) as excinfo:
        run_cells(cells, workers=2, cache=False)
    error = excinfo.value
    assert len(error.failures) == 1
    failure = error.failures[0]
    assert failure.index == 1
    assert failure.scenario.scheme == "nonesuch"
    assert "unknown scheme" in failure.traceback
    assert "nonesuch" in failure.summary()
    # The surviving cells completed and their reports are available.
    assert error.reports[1] is None
    assert error.reports[0] is not None and error.reports[2] is not None
    assert error.reports[0].offered > 0
    assert "1 of 3" in str(error)


def test_failure_capture_serial_path():
    with pytest.raises(ExperimentError) as excinfo:
        run_cells([quick(scheme="nonesuch")], workers=1, cache=False)
    assert len(excinfo.value.failures) == 1


def test_run_cells_rejects_non_scenarios():
    with pytest.raises(TypeError, match="not a Scenario"):
        run_cells(["adaptive"], cache=False)


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_is_refused_before_anything_runs(workers, nothing_constructed):
    with pytest.raises(ValueError, match=f"got {workers}"):
        run_cells([quick(scheme="fixed")], workers=workers, cache=False)


#: Runs in a fresh interpreter: pytest's conftest imports multiprocessing.
_FOOTPRINT = textwrap.dedent(
    """
    import json, sys
    import numpy
    eager = {"numpy.ma"} & set(sys.modules)  # numpy 1.x imports it with numpy
    from repro.harness import Scenario, build_simulation, run_cells
    from repro.verify import get_default_policy
    assert get_default_policy() is None  # sanitizers off
    def loaded():
        return [m for m in ("numpy.ma", "multiprocessing")
                if m in sys.modules and m not in eager]
    scenario = Scenario(scheme="adaptive", offered_load=10.0, duration=300.0,
                        warmup=50.0, seed=7)
    out = {}
    report = build_simulation(scenario).run()
    assert report.granted > 0 and report.p95_acquisition_time > 0
    out["run"] = loaded()
    reports = run_cells([scenario, scenario.with_(seed=8)], workers=1, cache=False)
    assert len(reports) == 2
    out["run_cells(workers=1)"] = loaded()
    print(json.dumps(out))
    """
)


def test_a_serial_run_loads_neither_numpy_ma_nor_multiprocessing():
    """The report's statistics do not import ``numpy.ma`` (as
    ``np.percentile`` does) and a serial grid does not import the pool
    machinery: neither is in ``sys.modules`` after a finished run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "REPRO_CACHE": "off"},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"run": [], "run_cells(workers=1)": []}


def test_default_workers_positive():
    assert default_workers() >= 1


def test_workers_none_uses_cpu_count(monkeypatch):
    """workers=None sizes the pool with default_workers()."""
    asked = []
    monkeypatch.setattr(parallel, "default_workers", lambda: asked.append(1) or 1)
    assert len(run_replications(quick(scheme="fixed"), 2, workers=None, cache=False)) == 2
    assert asked == [1]
