"""Integration tests: full simulations across schemes and workloads.

Every run executes with the interference monitor in "raise" mode, so
these tests double as end-to-end safety checks of Theorem 1 under
realistic traffic, for every scheme.
"""

import pytest

from repro import Scenario, run_scenario
from repro.analysis import erlang_b
from repro.harness import SCHEMES, build_simulation
from repro.traffic import HotspotLoad, TemporalHotspot

from conftest import drain

ALL_SCHEMES = sorted(SCHEMES)


def quick(**kw):
    base = dict(duration=800.0, warmup=200.0, seed=3)
    base.update(kw)
    return Scenario(**base)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_moderate_load_runs_safely(scheme):
    rep = run_scenario(quick(scheme=scheme, offered_load=5.0))
    assert rep.violations == 0
    assert rep.offered > 200
    assert rep.drop_rate < 0.15


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_overload_runs_safely_and_drops(scheme):
    rep = run_scenario(quick(scheme=scheme, offered_load=16.0))
    assert rep.violations == 0
    assert rep.offered > 500
    assert rep.drop_rate > 0.2  # overload must shed calls


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_mobility_runs_safely(scheme):
    rep = run_scenario(
        quick(scheme=scheme, offered_load=4.0, mean_dwell=250.0)
    )
    assert rep.violations == 0
    assert rep.handoff_failure_rate <= 1.0


def test_fca_matches_erlang_b():
    # End-to-end validation of traffic + metrics against queueing theory.
    rep = run_scenario(
        quick(
            scheme="fixed",
            offered_load=9.0,
            duration=12000.0,
            warmup=1000.0,
        )
    )
    expected = erlang_b(9.0, 10)
    assert rep.drop_rate == pytest.approx(expected, abs=0.025)


def test_dynamic_schemes_beat_fca_under_hotspot():
    # The paper's central motivation: a hot cell surrounded by idle
    # neighbors drops calls under FCA but borrows under dynamic schemes.
    pattern = HotspotLoad(base_rate=0.2 / 180, hot_cells=[24], hot_rate=25.0 / 180)
    results = {}
    for scheme in ["fixed", "adaptive", "basic_update"]:
        rep = run_scenario(
            quick(scheme=scheme, pattern=pattern, duration=3000, warmup=500)
        )
        assert rep.violations == 0
        results[scheme] = rep.drop_rate
    assert results["adaptive"] < results["fixed"]
    assert results["basic_update"] < results["fixed"]


def test_adaptive_stays_silent_at_low_uniform_load():
    rep = run_scenario(quick(scheme="adaptive", offered_load=1.0))
    assert rep.messages_total == 0
    assert rep.mean_acquisition_time == 0.0
    assert rep.xi["local"] == 1.0


def test_adaptive_uses_fewer_messages_than_basic_update():
    msgs = {}
    for scheme in ["adaptive", "basic_update"]:
        rep = run_scenario(quick(scheme=scheme, offered_load=5.0))
        msgs[scheme] = rep.messages_per_acquisition
    assert msgs["adaptive"] < msgs["basic_update"]


def test_temporal_hotspot_recovery():
    # After a transient hot spot ends, the adaptive cells return to
    # local mode (no borrowing-state leak).
    pattern = TemporalHotspot(
        base_rate=1.0 / 180, hot_cells=[24, 25], hot_rate=20.0 / 180,
        start=300, end=900,
    )
    sim = build_simulation(
        quick(scheme="adaptive", pattern=pattern, duration=2500, warmup=100)
    )
    sim.source.start()
    sim.env.run(until=2500)
    from repro.core import Mode

    assert all(s.mode is Mode.LOCAL for s in sim.stations.values())
    assert all(not s.UpdateS for s in sim.stations.values())
    assert all(s.waiting == 0 for s in sim.stations.values())
    assert sim.monitor.violations == []


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_channel_accounting_balances(scheme):
    # After arrivals stop and calls drain, no channel remains in use.
    sim = drain(build_simulation(
        Scenario(scheme=scheme, offered_load=4.0, duration=800.0,
                 warmup=100.0, seed=9, mean_holding=60.0)
    ))
    assert all(not s.use for s in sim.stations.values())
    assert sim.monitor.in_use == 0
    assert sim.monitor.total_acquisitions == sim.monitor.total_releases


def test_adaptive_bounded_acquisition_under_saturation():
    # Paper Table 3: adaptive max acquisition time is (2αN+1)T; our
    # measured max must respect the bound.
    rep = run_scenario(
        quick(scheme="adaptive", offered_load=14.0, duration=1200, warmup=300)
    )
    N = 18
    alpha = rep.scenario.alpha
    bound = (2 * alpha * N + 1) * rep.scenario.latency_T
    assert rep.max_acquisition_time <= bound
