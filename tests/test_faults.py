"""Tests for the fault-injection subsystem (``repro.faults``).

Covers the FaultPlan configuration surface, the ARQ/dedup hardening
primitives, the injector's determinism, exact fault-free parity of the
hardened wiring, crash–restart re-synchronisation, and the acceptance
property of this subsystem: mutual exclusion holds under message loss
with the sanitizer suite raising.
"""

import pytest

from repro.faults import (
    Ack,
    CrashWindow,
    FaultPlan,
    Hardening,
    LinkPartition,
)
from repro.faults.arq import MAX_RETRIES, DedupFilter, ReliableLink
from repro.harness import SCHEMES, Scenario, build_simulation, run_scenario
from repro.sim import DeterministicLatency, Environment, Network
from repro.traffic import HotspotLoad

from conftest import assert_drains_under_hostile_faults


# ---------------------------------------------------------------- FaultPlan --
def test_plan_defaults_are_disabled():
    plan = FaultPlan()
    assert not plan.enabled
    assert plan.max_extra_delay() == 0.0


def test_plan_enabled_by_any_fault_source():
    assert FaultPlan(drop_prob=0.01).enabled
    assert FaultPlan(dup_prob=0.01).enabled
    assert FaultPlan(partitions=(LinkPartition(0, 1, 10.0, 20.0),)).enabled
    assert FaultPlan(crashes=(CrashWindow(3, at=5.0, downtime=2.0),)).enabled


def test_plan_validation_errors():
    with pytest.raises(ValueError, match="probability"):
        FaultPlan(drop_prob=1.5)
    with pytest.raises(ValueError, match="extra_delay"):
        FaultPlan(delay_prob=0.1)
    with pytest.raises(ValueError, match="reorder_delay"):
        FaultPlan(reorder_prob=0.1)
    with pytest.raises(ValueError, match="start < end"):
        LinkPartition(0, 1, 20.0, 10.0)
    with pytest.raises(ValueError, match="downtime"):
        CrashWindow(0, at=1.0, downtime=0.0)


def test_plan_roundtrips_through_dict():
    plan = FaultPlan(
        drop_prob=0.05,
        dup_prob=0.01,
        delay_prob=0.02,
        extra_delay=3.0,
        partitions=(LinkPartition(2, 9, 100.0, 150.0),),
        crashes=(CrashWindow(24, at=200.0, downtime=30.0, lose_state=False),),
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_plan_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown FaultPlan fields"):
        FaultPlan.from_dict({"drop_prob": 0.1, "chaos_level": 11})


def test_scenario_carries_plan_through_json():
    s = Scenario(scheme="adaptive", faults=FaultPlan.uniform_loss(0.05))
    back = Scenario.from_json(s.to_json())
    assert back.faults == s.faults
    assert back == s
    # Absent plan stays absent (and distinct in the cache key).
    bare = Scenario(scheme="adaptive")
    assert Scenario.from_json(bare.to_json()).faults is None
    assert bare.to_json() != s.to_json()


def test_partition_severs_both_directions_inside_window():
    p = LinkPartition(2, 9, 10.0, 20.0)
    assert p.severs(2, 9, 15.0) and p.severs(9, 2, 15.0)
    assert not p.severs(2, 9, 5.0)
    assert not p.severs(2, 9, 20.0)  # half-open window
    assert not p.severs(2, 3, 15.0)


# -------------------------------------------------------------- ARQ / dedup --
def test_dedup_filter_suppresses_repeats_within_window():
    d = DedupFilter(window=3)
    assert d.accept(1, 10)
    assert not d.accept(1, 10)
    assert d.accept(2, 10)  # per-source spaces
    for m in (11, 12, 13):
        assert d.accept(1, m)
    # msg_id 10 fell out of source 1's window of 3.
    assert d.accept(1, 10)
    assert d.suppressed == 1
    d.reset()
    assert d.accept(2, 10)


class _Sink:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def on_message(self, envelope):
        self.received.append(envelope)


def _link_fixture():
    env = Environment()
    net = Network(env, DeterministicLatency(1.0))
    for i in range(3):
        net.attach(_Sink(i))
    hard = Hardening.from_plan(FaultPlan.uniform_loss(0.05), 1.0)
    link = ReliableLink(env, net, 0, hard)
    return env, net, link, hard


def test_reliable_link_ack_clears_pending():
    env, net, link, _ = _link_fixture()
    link.send(1, "hello")
    assert link.in_flight == 1
    env.run()
    ack = Ack(net._msg_id)  # the only message sent so far
    link.on_ack(ack)
    assert link.in_flight == 0
    assert link.recovered == 0  # first try: nothing to recover


def test_reliable_link_retransmits_then_recovers():
    env, net, link, hard = _link_fixture()
    link.send(1, "hello")
    msg_id = net._msg_id
    env.run(until=hard.rto + 0.1)  # timer fired once, no ack
    assert link.retransmissions == 1
    link.on_ack(Ack(msg_id))
    assert link.recovered == 1
    env.run()
    # Both copies reached the sink with the same logical identity.
    sink = net.node(1)
    assert [e.msg_id for e in sink.received] == [msg_id, msg_id]
    assert sink.received[1].fault_tag == "retrans"


def test_reliable_link_bounded_retries_then_gives_up():
    env, net, link, hard = _link_fixture()
    link.send(1, "void")
    env.run()
    assert link.retransmissions == MAX_RETRIES
    assert link.exhausted == 1
    assert link.in_flight == 0


def test_reliable_link_sends_in_order_per_destination():
    """The second message to a destination waits for the first's ack.

    This is the safety-critical half of the ARQ: without it a
    retransmitted stale message could overtake newer traffic and
    corrupt the receiver's neighbor-use mirror.
    """
    env, net, link, _ = _link_fixture()
    link.send(1, "first")
    first_id = net._msg_id
    link.send(1, "second")
    link.send(2, "other-link")  # different destination: not blocked
    assert net.total_sent == 2  # "second" is queued, not sent
    link.on_ack(Ack(first_id))
    assert net.total_sent == 3
    env.run(until=2.0)  # both deliveries land; before any rto fires
    assert [e.payload for e in net.node(1).received] == ["first", "second"]


def test_reliable_link_exhaustion_unblocks_queue():
    env, net, link, hard = _link_fixture()
    link.send(1, "lost-forever")
    link.send(1, "next")
    env.run()  # never acked: retries exhaust, then "next" goes out
    assert link.exhausted == 2  # both eventually give up (no acker here)
    payloads = [e.payload for e in net.node(1).received]
    assert "next" in payloads
    # Strict order: every copy of the first precedes every "next" copy.
    assert max(i for i, p in enumerate(payloads) if p == "lost-forever") < (
        min(i for i, p in enumerate(payloads) if p == "next")
    )


def test_hardening_timeout_ordering():
    hard = Hardening.from_plan(FaultPlan.uniform_loss(0.05), 2.0)
    # rto covers a full round trip; deadlines nest strictly.
    assert hard.rto > 2 * 2.0
    assert hard.round_deadline > hard.rto
    assert hard.ack_timeout > hard.round_deadline


# -------------------------------------------------- network-level semantics --
def test_msg_id_monotonic_and_in_repr():
    env = Environment()
    net = Network(env, DeterministicLatency(1.0))
    for i in range(2):
        net.attach(_Sink(i))
    a = net.send(0, 1, "x")
    b = net.send(0, 1, "y")
    assert b.msg_id == a.msg_id + 1 > 0
    assert f"msg_id={a.msg_id}" in repr(a)
    assert "fault_tag" not in repr(a)
    c = net.send(0, 1, "z", msg_id=a.msg_id, fault_tag="retrans")
    assert c.msg_id == a.msg_id
    assert "fault_tag='retrans'" in repr(c)


def test_multicast_snapshots_generator_argument():
    """A failing send must not leave a generator argument half-consumed."""
    env = Environment()
    net = Network(env, DeterministicLatency(1.0))
    for i in range(3):
        net.attach(_Sink(i))
    dsts = (d for d in [1, 99, 2])
    with pytest.raises(KeyError):
        net.multicast(0, dsts, "fan-out")
    # The iterable was snapshotted up front: nothing left dangling.
    assert list(dsts) == []
    # And plain generators work end to end.
    assert net.multicast(0, (d for d in [1, 2]), "ok") == 2


# ----------------------------------------------------- injector determinism --
def _lossy(scheme="adaptive", **kw):
    base = dict(
        scheme=scheme,
        faults=FaultPlan.uniform_loss(0.05),
        duration=200.0,
        warmup=50.0,
        offered_load=4.0,
        mean_holding=60.0,
        seed=7,
    )
    base.update(kw)
    return Scenario(**base)


def test_injector_is_deterministic():
    a = run_scenario(_lossy())
    b = run_scenario(_lossy())
    assert a.faults_injected == b.faults_injected
    assert a.faults_recovered == b.faults_recovered
    assert a.retries == b.retries
    assert a.drop_rate == b.drop_rate
    assert a.messages_total == b.messages_total
    assert sum(a.faults_injected.values()) > 0


def test_injector_seed_changes_fault_pattern():
    a = run_scenario(_lossy())
    b = run_scenario(_lossy(seed=8))
    assert a.faults_injected != b.faults_injected


def test_disabled_plan_runs_event_identical_to_no_plan():
    """An all-zero plan must not perturb the simulation at all.

    Compared on the kernel's event counter — the strongest cheap
    equality: if even one extra timeout or message were scheduled, the
    counters would diverge.
    """
    bare = build_simulation(_lossy(faults=None))
    bare.run()
    noop = build_simulation(_lossy(faults=FaultPlan()))
    noop.run()
    assert noop.injector is None
    assert noop.env._eid == bare.env._eid
    assert noop.network.total_sent == bare.network.total_sent
    assert noop.metrics.drop_rate == bare.metrics.drop_rate
    assert not hasattr(noop.stations[0], "_link") or noop.stations[0]._link is None


# --------------------------------------------------------- crash and re-sync --
def test_crash_restart_resync_stays_safe():
    """A cold crash loses all state; the restart re-sync rebuilds it."""
    plan = FaultPlan(
        crashes=(CrashWindow(24, at=100.0, downtime=15.0, lose_state=True),),
    )
    report = run_scenario(_lossy(faults=plan, duration=300.0))
    assert report.violations == 0
    injected = report.faults_injected
    assert injected.get("crash") == 1
    assert injected.get("restart") == 1
    # The crashed cell is alive again and took traffic post-restart.
    assert report.drop_rate < 1.0


def test_partition_blocks_link_during_window():
    plan = FaultPlan(partitions=(LinkPartition(24, 25, 60.0, 120.0),))
    report = run_scenario(_lossy(faults=plan, scheme="basic_update"))
    assert report.violations == 0
    assert report.faults_injected.get("partition", 0) > 0


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_every_request_ends_when_a_crash_outlasts_the_retry_budget(scheme):
    assert_drains_under_hostile_faults(scheme)


# ----------------------------------------------------------------- acceptance --
def test_mutual_exclusion_holds_under_loss():
    """Acceptance: 5% uniform loss, hot-spot load, sanitizers raising.

    The session-level conftest fixture runs every simulation with the
    deadlock/causality/quiescence sanitizers in raise mode, and the
    interference monitor raises on any co-channel violation — so this
    completing at all is the safety claim; the assertions pin the
    recovery machinery actually being exercised.
    """
    holding = 60.0
    scenario = Scenario(
        scheme="adaptive",
        faults=FaultPlan.uniform_loss(0.05),
        pattern=HotspotLoad(4.0 / holding, [24], 16.0 / holding),
        offered_load=4.0,
        mean_holding=holding,
        duration=300.0,
        warmup=50.0,
        seed=7,
    )
    report = run_scenario(scenario)
    assert report.violations == 0
    assert sum(report.faults_injected.values()) > 0
    assert sum(report.faults_recovered.values()) > 0
    assert report.retries > 0
    # The hot spot still gets served: loss degrades liveness gracefully
    # rather than collapsing the allocator.
    assert report.drop_rate < 0.2
