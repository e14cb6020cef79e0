"""Unit tests for load patterns, call lifecycle and arrival processes."""

import numpy as np
import pytest

from repro.protocols import FixedMSS
from repro.sim import StreamRegistry
from repro.traffic import (
    CallConfig,
    CallLog,
    HotspotLoad,
    PiecewiseLoad,
    RampLoad,
    TemporalHotspot,
    TrafficSource,
    UniformLoad,
    call_process,
)

from conftest import drive, make_stack


# --------------------------------------------------------------- patterns ----
def test_uniform_load():
    p = UniformLoad(0.5)
    assert p.rate(0, 0) == 0.5
    assert p.rate(42, 1e6) == 0.5
    assert p.max_rate(7) == 0.5
    with pytest.raises(ValueError):
        UniformLoad(-1)


def test_hotspot_load():
    p = HotspotLoad(0.1, [3, 4], 2.0)
    assert p.rate(3, 0) == 2.0
    assert p.rate(5, 0) == 0.1
    assert p.max_rate(4) == 2.0
    assert p.max_rate(0) == 0.1


def test_temporal_hotspot_window():
    p = TemporalHotspot(0.1, [1], 5.0, start=100, end=200)
    assert p.rate(1, 50) == 0.1
    assert p.rate(1, 100) == 5.0
    assert p.rate(1, 199.9) == 5.0
    assert p.rate(1, 200) == 0.1
    assert p.rate(2, 150) == 0.1
    assert p.max_rate(1) == 5.0
    with pytest.raises(ValueError):
        TemporalHotspot(0.1, [1], 5.0, start=200, end=100)


def test_ramp_load():
    p = RampLoad(0.0, 1.0, duration=100)
    assert p.rate(0, 0) == 0.0
    assert p.rate(0, 50) == pytest.approx(0.5)
    assert p.rate(0, 100) == 1.0
    assert p.rate(0, 500) == 1.0
    assert p.max_rate(0) == 1.0


def test_piecewise_load():
    p = PiecewiseLoad({0: 1.0, 1: 2.0}, default=0.25)
    assert p.rate(0, 0) == 1.0
    assert p.rate(9, 0) == 0.25
    with pytest.raises(ValueError):
        PiecewiseLoad({0: -1})


# ------------------------------------------------------------ call process ----
def test_call_lifecycle_grant_hold_release():
    env, net, topo, stations, monitor, metrics = make_stack(FixedMSS)
    rng = np.random.default_rng(0)
    log = CallLog()
    cfg = CallConfig(mean_holding=50.0)
    drive(env, call_process(env, stations, 0, cfg, rng, log=log))
    assert log.started == 1
    assert log.completed == 1
    assert not stations[0].use  # channel released at completion
    assert env.now > 0


def test_blocked_call_counted():
    env, net, topo, stations, monitor, metrics = make_stack(FixedMSS)
    s = stations[0]
    for _ in range(len(topo.PR(0))):
        drive(env, s.request_channel())
    rng = np.random.default_rng(0)
    log = CallLog()
    drive(env, call_process(env, stations, 0, CallConfig(), rng, log=log))
    assert log.blocked == 1
    assert log.completed == 0


def test_mobility_performs_handoffs():
    env, net, topo, stations, monitor, metrics = make_stack(FixedMSS)
    rng = np.random.default_rng(42)
    log = CallLog()
    cfg = CallConfig(mean_holding=500.0, mean_dwell=20.0)
    drive(env, call_process(env, stations, 0, cfg, rng, log=log))
    assert log.handoffs_attempted > 0
    # Call either completed or died on a failed handoff; channel state
    # must be clean either way.
    assert all(not s.use for s in stations.values())


def test_config_validation():
    with pytest.raises(ValueError):
        CallConfig(mean_holding=0)
    with pytest.raises(ValueError):
        CallConfig(mean_dwell=-1)
    with pytest.raises(ValueError):
        CallConfig(setup_deadline=0)


@pytest.mark.parametrize("field", ["mean_holding", "mean_dwell", "setup_deadline"])
def test_config_rejects_nan(field):
    # NaN compares false to everything, so ``x <= 0`` let it through to
    # ``Environment.timeout`` as a delay.
    with pytest.raises(ValueError, match=field):
        CallConfig(**{field: float("nan")})
    assert getattr(CallConfig(**{field: float("inf")}), field) == float("inf")


def test_forced_termination_rate():
    log = CallLog(handoffs_attempted=10, handoffs_failed=3)
    assert log.forced_termination_rate == pytest.approx(0.3)
    assert CallLog().forced_termination_rate == 0.0


# ------------------------------------------------------------- TrafficSource ----
def test_poisson_arrival_count_matches_rate():
    env, net, topo, stations, monitor, metrics = make_stack(FixedMSS)
    rate = 0.05  # per cell per unit
    src = TrafficSource(
        env,
        stations,
        UniformLoad(rate),
        CallConfig(mean_holding=1.0),  # near-instant calls
        StreamRegistry(seed=1),
        horizon=2000.0,
    )
    src.start()
    env.run(until=2100)
    expected = rate * 2000 * len(stations)
    assert src.log.started == pytest.approx(expected, rel=0.1)


def test_arrivals_stop_at_horizon():
    env, net, topo, stations, monitor, metrics = make_stack(FixedMSS)
    src = TrafficSource(
        env, stations, UniformLoad(0.05), CallConfig(mean_holding=1.0),
        StreamRegistry(seed=1), horizon=100.0,
    )
    src.start()
    env.run(until=100)
    count_at_horizon = src.log.started
    env.run()  # drain
    assert src.log.started == count_at_horizon


def test_double_start_rejected():
    env, net, topo, stations, monitor, metrics = make_stack(FixedMSS)
    src = TrafficSource(
        env, stations, UniformLoad(0.01), CallConfig(),
        StreamRegistry(seed=1), horizon=10.0,
    )
    src.start()
    with pytest.raises(RuntimeError):
        src.start()


def test_traffic_reproducible_across_runs():
    def run(seed):
        env, net, topo, stations, monitor, metrics = make_stack(FixedMSS)
        src = TrafficSource(
            env, stations, UniformLoad(0.02), CallConfig(mean_holding=30.0),
            StreamRegistry(seed=seed), horizon=500.0,
        )
        src.start()
        env.run()
        return (src.log.started, src.log.completed, metrics.offered)

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_temporal_hotspot_thinning_produces_burst():
    env, net, topo, stations, monitor, metrics = make_stack(FixedMSS)
    pattern = TemporalHotspot(0.001, [0], 0.2, start=500, end=1500)
    src = TrafficSource(
        env, stations, pattern, CallConfig(mean_holding=1.0),
        StreamRegistry(seed=3), horizon=2000.0,
    )
    arrivals_in = []
    orig = metrics.record_acquisition

    def spy(cell, kind, granted, queue_wait, acquisition_time, attempts, mode, time):
        if cell == 0:
            arrivals_in.append(time)
        orig(cell, kind, granted, queue_wait, acquisition_time, attempts, mode, time)

    metrics.record_acquisition = spy
    src.start()
    env.run(until=2100)
    burst = sum(1 for t in arrivals_in if 500 <= t < 1500)
    outside = len(arrivals_in) - burst
    # Hot window: rate 0.2 for 1000 units ≈ 200 calls; outside: 0.001
    # for 1000 units ≈ 1 call.
    assert burst > 20 * max(outside, 1)
