"""Property-based protocol-conformance tests.

Hypothesis drives random workloads through the full stack, drains them
and applies the sanitizers' end-of-run checks: every REQUEST and
CHANGE_MODE round answered (the causality checker; a duplicate or
orphan reply is already ``reply_before_request`` online), every request
resolved and every channel released (the quiescence checker), plus
each test's own state checks — ``waiting == 0`` is the search
handshake's balance.  This is the strongest correctness net in the
suite — it exercises the interleavings unit tests cannot enumerate.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Mode
from repro.harness import Scenario, build_simulation

from conftest import drain


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    load=st.floats(1.0, 13.0),
    seed=st.integers(0, 10_000),
    alpha=st.integers(0, 4),
    spread=st.sampled_from([0.0, 1.0]),
)
def test_adaptive_trace_always_conformant(load, seed, alpha, spread):
    scenario = Scenario(
        scheme="adaptive",
        offered_load=load,
        mean_holding=50.0,
        duration=350.0,
        warmup=50.0,
        seed=seed,
        alpha=alpha,
        latency_model="uniform" if spread else "deterministic",
        latency_spread=spread,
    )
    sim = drain(build_simulation(scenario))
    assert sim.monitor.violations == []
    assert sim.monitor.in_use == 0
    for s in sim.stations.values():
        assert s.waiting == 0
        assert not s.DeferQ
        assert s.mode in (Mode.LOCAL, Mode.BORROW_IDLE)


@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    scheme=st.sampled_from(["basic_search", "basic_update"]),
    load=st.floats(1.0, 12.0),
    seed=st.integers(0, 10_000),
)
def test_baseline_requests_always_answered(scheme, load, seed):
    scenario = Scenario(
        scheme=scheme,
        offered_load=load,
        mean_holding=50.0,
        duration=350.0,
        warmup=50.0,
        seed=seed,
    )
    sim = drain(build_simulation(scenario))
    assert sim.monitor.violations == []
    assert sim.monitor.in_use == 0


@settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    load=st.floats(2.0, 12.0),
    seed=st.integers(0, 10_000),
    dwell=st.sampled_from([None, 60.0]),
)
def test_adaptive_trace_conformant_with_mobility_and_repack(load, seed, dwell):
    scenario = Scenario(
        scheme="adaptive",
        offered_load=load,
        mean_holding=50.0,
        mean_dwell=dwell,
        duration=350.0,
        warmup=50.0,
        seed=seed,
        extra_params={"repack": True},
    )
    sim = drain(build_simulation(scenario))
    assert sim.monitor.violations == []
    assert sim.monitor.in_use == 0
    for s in sim.stations.values():
        assert not s._alias  # every reassignment alias resolved
