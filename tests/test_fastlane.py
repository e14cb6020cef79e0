"""Hybrid analytic/DES fast lane: fluid cells, state bridge, gates.

The contract under test (DESIGN.md §10): with ``fastlane=False``
nothing is even constructed; with it on, demotion happens only under
the quiescence/Erlang-loss validity conditions, every promotion
trigger materializes *before* protocol state is observed, and the
promote→demote→promote round trip neither invents nor loses calls.
"""

import pytest

from conftest import report_row
from repro.analysis.erlang import erlang_b
from repro.faults import CrashWindow, FaultPlan
from repro.harness import CompatibilityError, Scenario, build_simulation, run_scenario
from repro.harness.fastlane import FastLane
from repro.protocols.messages import ChangeMode
from repro.sim.network import Envelope
from repro.snap import checkpoint, run_to_checkpoint


def lane_scenario(**overrides):
    defaults = dict(
        scheme="adaptive",
        wrap=False,
        offered_load=3.0,
        duration=600.0,
        warmup=100.0,
        seed=7,
        fastlane=True,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


# -- default-off: the lane must not exist ----------------------------------


def test_off_by_default_constructs_nothing():
    sim = build_simulation(lane_scenario(fastlane=False))
    assert sim.fastlane is None
    assert all(st.fastlane is None for st in sim.stations.values())
    assert sim.source.lane is None


# -- validity gates --------------------------------------------------------


def test_build_gates_reject_invalid_combinations():
    with pytest.raises(ValueError, match="schemes"):
        build_simulation(lane_scenario(scheme="basic_update"))
    with pytest.raises(ValueError, match="fault"):
        build_simulation(
            lane_scenario(
                faults=FaultPlan(
                    crashes=(CrashWindow(cell=3, at=50.0, downtime=20.0),)
                )
            )
        )
    with pytest.raises(ValueError, match="mobility"):
        build_simulation(lane_scenario(mean_dwell=600.0))
    with pytest.raises(ValueError, match="guard"):
        build_simulation(lane_scenario(extra_params={"guard_channels": 2}))


def test_trafficmix_rejected_at_lane_construction():
    sim = build_simulation(lane_scenario())
    sim.source.mix = object()  # what a TrafficMix-built source carries
    with pytest.raises(ValueError, match="TrafficMix"):
        FastLane(
            sim.env, sim.stations, sim.source, sim.metrics,
            sim.scenario, sim.streams,
        )


def test_snapshot_gates_reject_fastlane():
    with pytest.raises(CompatibilityError, match="fastlane"):
        run_to_checkpoint(lane_scenario(), at=100.0)
    sim = build_simulation(lane_scenario())
    with pytest.raises(CompatibilityError, match="fastlane"):
        checkpoint(sim)


# -- the fluid model itself ------------------------------------------------


def test_fixed_scheme_blocking_matches_erlang_b():
    """FCA cells never exchange messages, so the whole run is fluid and
    the measured drop rate must track the Erlang-B model."""
    scenario = lane_scenario(
        scheme="fixed", offered_load=8.0, duration=4000.0, warmup=200.0
    )
    report = run_scenario(scenario)
    lane = report.fastlane
    assert lane is not None
    assert lane["fluid_fraction"] > 0.99
    assert lane["promotions"] == {"message": 0, "spike": 0, "borrow": 0}
    # c = num_channels / cluster_size = 10 primaries per cell.
    expected = erlang_b(8.0, 10)
    assert abs(report.drop_rate - expected) < 0.02
    assert report.violations == 0


def test_adaptive_low_load_stays_mostly_fluid_and_clean():
    report = run_scenario(lane_scenario())
    lane = report.fastlane
    assert lane is not None
    assert lane["demotions"] > 0
    assert 0.5 < lane["fluid_fraction"] <= 1.0
    # Erlang-B at A=3, c=10 is ~8e-4: the lane must not invent drops.
    assert report.drop_rate < 0.01
    assert report.violations == 0
    # Divergence accounting is self-consistent.
    assert lane["arrivals"] >= lane["blocked"]
    assert lane["block_rate_abs_err"] >= 0.0


def test_reference_profile_lane_off_is_the_plain_kernel_and_lane_on_within_tolerance():
    """The profile the docs quote (EXPERIMENTS.md "the hybrid fast
    lane"), in counts: pins read on a clean copy of f02d344, the same
    with sanitizers raising and absent."""
    reference = lane_scenario(rows=14, cols=14, duration=2000.0, warmup=200.0)
    processed, reports = {}, {}
    for on in (False, True):
        sim = build_simulation(reference.with_(fastlane=on))
        reports[on] = sim.run()
        processed[on] = sim.env._eid - len(sim.env._queue)
    # Lane off is the plain kernel, event for event.
    assert processed[False] == 35_512
    # The mechanism behind the quoted wall ratio: 2 352 events today (15x).
    assert processed[True] * 10 <= processed[False]
    lane = reports[True].fastlane
    assert lane["fluid_fraction"] > 0.95
    assert abs(reports[True].drop_rate - reports[False].drop_rate) <= 0.01
    assert lane["block_rate_abs_err"] <= 0.01
    assert lane["occupancy_abs_err"] <= 0.5
    assert reports[False].violations == reports[True].violations == 0


def test_runs_are_seed_deterministic():
    a = run_scenario(lane_scenario())
    b = run_scenario(lane_scenario())
    assert report_row(a) == report_row(b)
    assert a.fastlane == b.fastlane


def test_lane_streams_are_scheme_invariant():
    """The per-cell lane substream depends only on (seed, cell) — never
    on the scheme — so lane draws are comparable across schemes."""
    adaptive = build_simulation(lane_scenario())
    fixed = build_simulation(lane_scenario(scheme="fixed"))
    sa = adaptive.streams.stream("fastlane", "cell", 11)
    sf = fixed.streams.stream("fastlane", "cell", 11)
    assert [sa.random() for _ in range(4)] == [sf.random() for _ in range(4)]


# -- the state bridge (promote / demote round trips) -----------------------


def fluid_sim(until=250.0):
    sim = build_simulation(lane_scenario())
    sim.source.start()
    sim.env.run(until=until)
    lane = sim.fastlane
    assert lane._fluid, "expected fluid cells at low load"
    return sim, lane


def test_promote_demote_promote_preserves_calls_and_streams():
    """A zero-length demote→promote round trip must neither create nor
    destroy calls, and must not touch any *other* cell's lane stream."""
    sim, lane = fluid_sim()
    cell = sorted(lane._fluid)[0]
    station = sim.stations[cell]
    lane._promote(cell, "message")  # settle the open interval first
    assert cell not in lane._fluid

    others = [c for c in sorted(lane._fluid) if c != cell][:3]
    other_states = [lane._rng(c).bit_generator.state for c in others]
    use_before = set(station.use)
    log = sim.source.log
    counts_before = (log.started, log.blocked, log.completed)

    assert lane._demotable(cell)
    lane._demote(cell)
    assert cell in lane._fluid
    lane._promote(cell, "message")
    assert cell not in lane._fluid

    # Zero-length fluid interval: no arrivals, no drops, no survivors.
    assert set(station.use) == use_before
    assert (log.started, log.blocked, log.completed) == counts_before
    # Neighbors' lane streams were not consulted.
    assert [lane._rng(c).bit_generator.state for c in others] == other_states
    # Re-entrant promotion of an already-discrete cell is a no-op.
    before = dict(lane.promotions)
    lane._promote(cell, "message")
    assert lane.promotions == before


def test_hostile_message_at_demotion_instant():
    """A borrow-related message delivered at the very instant a cell was
    demoted must materialize it before the handler observes anything:
    the handler then runs against discrete state and the cell becomes
    ineligible (a borrowing neighbor) rather than silently re-fluid."""
    sim, lane = fluid_sim()
    env = sim.env
    cell = sorted(lane._fluid)[0]
    station = sim.stations[cell]
    # Re-demote at *this* instant so the fluid interval is zero-length.
    lane._promote(cell, "message")
    lane._demote(cell)
    demoted_at = env.now

    neighbor = sorted(station.IN)[0]
    promos_before = lane.promotions["message"]
    station.on_message(
        Envelope(
            src=neighbor,
            dst=cell,
            payload=ChangeMode(1, neighbor, 999),
            sent_at=demoted_at,
            deliver_at=demoted_at,
        )
    )
    # Promoted first, then handled: the neighbor is now registered as
    # borrowing, which keeps the cell discrete (fastlane_eligible is
    # False while UpdateS is non-empty).
    assert cell not in lane._fluid
    assert lane.promotions["message"] == promos_before + 1
    assert neighbor in station.UpdateS
    assert not station.fastlane_eligible()
    assert not lane._demotable(cell)
    # The run continues cleanly after the synthetic delivery.
    env.run(until=env.now + 50.0)
    assert not sim.monitor.violations


def test_finalize_settles_every_fluid_cell_once():
    sim, lane = fluid_sim()
    fluid = set(lane._fluid)
    assert fluid  # the scenario genuinely exercised the lane
    sim.env.run(until=lane.duration)
    lane.finalize()
    assert lane._fluid == {}
    assert lane.fluid_time > 0.0
    # Idempotent: a second finalize must not double-settle.
    arrivals = lane.arrivals
    lane.finalize()
    assert lane.arrivals == arrivals
