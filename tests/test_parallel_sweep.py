"""Parallel experiment engine: determinism parity and failure capture.

The core guarantee under test: ``workers=N`` is purely a wall-clock
optimization — the rows that come back are bit-identical to the serial
run, for every scheme, and a crashing cell reports its traceback
without losing the rest of the grid.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.faults import FaultPlan
from repro.harness import (
    ExperimentError,
    Scenario,
    default_workers,
    run_cells,
    run_replications,
    sweep,
)
from repro.harness.sweeps import to_csv


def quick(**kw):
    base = dict(
        duration=400.0, warmup=100.0, offered_load=4.0,
        mean_holding=60.0, seed=3,
    )
    base.update(kw)
    return Scenario(**base)


def test_parallel_sweep_rows_identical_to_serial():
    """sweep(workers=4) is row-for-row identical to serial, 3 schemes."""
    base = quick()
    kwargs = dict(
        parameter="scheme",
        values=["fixed", "basic_update", "adaptive"],
        seeds=[1, 2],
        cache=False,
    )
    serial = sweep(base, workers=1, **kwargs)
    parallel = sweep(base, workers=4, **kwargs)
    assert len(serial.rows) == 6
    assert parallel.rows == serial.rows
    # Full reports match on every headline quantity, not just the rows.
    for a, b in zip(serial.reports, parallel.reports):
        assert a.offered == b.offered
        assert a.drop_rate == b.drop_rate
        assert a.messages_total == b.messages_total
        assert a.mean_acquisition_time == b.mean_acquisition_time
        assert a.mode_fractions == b.mode_fractions


def test_run_replications_parallel_matches_serial():
    base = quick(scheme="basic_search")
    serial = run_replications(base, 3, workers=1, cache=False)
    parallel = run_replications(base, 3, workers=2, cache=False)
    assert [r.scenario.seed for r in serial] == [3, 4, 5]
    for a, b in zip(serial, parallel):
        assert a.scenario.seed == b.scenario.seed
        assert a.offered == b.offered
        assert a.drop_rate == b.drop_rate
        assert a.messages_total == b.messages_total


def test_what_experiments_read_off_a_worker_report_matches_serial():
    """E3, E4, E7, E8 and T3 read the per-record data, not only the
    headline attributes: it survives the trip back from a worker."""
    cells = [
        quick(scheme=s, duration=300.0, warmup=50.0, offered_load=7.0, mean_dwell=150.0)
        for s in ("basic_update", "adaptive")
    ]
    serial = run_cells(cells, workers=1, cache=False)
    parallel = run_cells(cells, workers=2, cache=False)
    for a, b in zip(serial, parallel):
        assert a.metrics.records == b.metrics.records and len(a.metrics.records) > 100
        assert a.metrics.acquisition_times().tolist() == b.metrics.acquisition_times().tolist()
        assert a.metrics.drop_rate_of("handoff") == b.metrics.drop_rate_of("handoff")
        assert any(r.kind == "handoff" for r in a.metrics.records)


def test_faulty_sweep_parallel_identical_to_serial():
    """Fault injection stays deterministic across worker processes.

    The injector draws from a named seed stream that travels with the
    (serialized) scenario, so the same seed + FaultPlan must give
    byte-identical results no matter how the work is partitioned.
    """
    base = quick(scheme="adaptive", faults=FaultPlan.uniform_loss(0.05))
    kwargs = dict(
        parameter="scheme",
        values=["basic_update", "adaptive"],
        seeds=[3, 4],
        cache=False,
    )
    serial = sweep(base, workers=1, **kwargs)
    parallel = sweep(base, workers=4, **kwargs)
    assert parallel.rows == serial.rows
    assert to_csv(parallel) == to_csv(serial)
    for a, b in zip(serial.reports, parallel.reports):
        assert a.drop_rate == b.drop_rate
        assert a.messages_total == b.messages_total
        assert a.faults_injected == b.faults_injected
        assert a.faults_recovered == b.faults_recovered
        assert a.retries == b.retries
        assert a.retry_exhausted == b.retry_exhausted
    # Faults actually fired in this configuration (the parity above is
    # not vacuous).
    assert all(sum(r.faults_injected.values()) > 0 for r in serial.reports)


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


def test_workers_none_uses_cpu_count():
    """workers=None resolves to a pool; results still match serial."""
    base = quick(scheme="fixed")
    serial = run_replications(base, 2, workers=1, cache=False)
    auto = run_replications(base, 2, workers=None, cache=False)
    for a, b in zip(serial, auto):
        assert a.drop_rate == b.drop_rate
        assert a.offered == b.offered
