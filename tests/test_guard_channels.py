"""Tests for the guard-channel (handoff priority) extension."""

import pytest

from repro.core import AdaptiveMSS
from repro.harness import Scenario, run_scenario
from repro.protocols import FixedMSS

from conftest import drive, make_stack


def test_guard_validation():
    with pytest.raises(ValueError):
        make_stack(FixedMSS, guard_channels=-1)
    with pytest.raises(ValueError):
        make_stack(FixedMSS, guard_channels=10)  # == primaries per cell
    with pytest.raises(ValueError):
        make_stack(AdaptiveMSS, guard_channels=10)
    for scheme in ("fixed", "adaptive"):  # 3 channels over k = 7: cell 3 has none
        with pytest.raises(ValueError, match=r"^cell 3 has 0 primary channels \(fewer "
                           r"channels than reuse colours\), so guard_channels=0 must"):
            run_scenario(Scenario(scheme=scheme, num_channels=3))


def test_fixed_reserves_last_channels_for_handoffs():
    env, net, topo, stations, monitor, metrics = make_stack(
        FixedMSS, guard_channels=2
    )
    s = stations[0]
    # New calls may take 8 of the 10 primaries...
    for _ in range(8):
        assert drive(env, s.request_channel("new")) is not None
    # ...then new calls are refused while handoffs still succeed.
    assert drive(env, s.request_channel("new")) is None
    assert drive(env, s.request_channel("handoff")) is not None
    assert drive(env, s.request_channel("handoff")) is not None
    # Now truly full: even handoffs fail.
    assert drive(env, s.request_channel("handoff")) is None


def test_fixed_zero_guard_unchanged():
    env, net, topo, stations, monitor, metrics = make_stack(
        FixedMSS, guard_channels=0
    )
    s = stations[0]
    for _ in range(10):
        assert drive(env, s.request_channel("new")) is not None
    assert drive(env, s.request_channel("new")) is None


def test_adaptive_guard_blocks_new_calls_admits_handoffs():
    env, net, topo, stations, monitor, metrics = make_stack(
        AdaptiveMSS, guard_channels=2
    )
    s = stations[0]
    for _ in range(8):
        ch = drive(env, s.request_channel("new"))
        assert ch in topo.PR(0)
    # The 9th NEW call hits the guard and is blocked outright (classic
    # admission control — redirecting it to borrowing was measurably
    # worse, see the module docstring).
    assert drive(env, s.request_channel("new")) is None
    assert metrics.records[-1].mode == "guard_blocked"
    # A handoff takes a guarded primary directly, with zero latency.
    t0 = env.now
    ch2 = drive(env, s.request_channel("handoff"))
    assert ch2 in topo.PR(0)
    assert env.now == t0
    # Handoffs may even borrow once primaries are gone.
    drive(env, s.request_channel("handoff"))
    ch3 = drive(env, s.request_channel("handoff"))
    assert ch3 is not None and ch3 not in topo.PR(0)


def test_guard_trades_new_blocking_for_handoff_success():
    base = Scenario(
        scheme="fixed",
        offered_load=9.0,
        mean_dwell=150.0,
        duration=2000.0,
        warmup=300.0,
        seed=29,
    )
    plain = run_scenario(base)
    guarded = run_scenario(base.with_(extra_params={"guard_channels": 2}))
    # The classic trade: fewer forced terminations, more blocked new
    # calls.
    assert guarded.handoff_failure_rate < plain.handoff_failure_rate
    assert guarded.new_call_block_rate > plain.new_call_block_rate
    assert guarded.violations == 0
