"""The message path's contracts after its diet (DESIGN.md §4, OBSERVABILITY.md).

(a) *Probe transparency* — subscribing to probes never changes a run.
(b) *Live table* — emit sites read the environment's subscriber table
    itself, so subscribing/unsubscribing mid-run takes effect at once.
(c) *Fan-out ≡ loop* — ``Network.multicast`` is, copy for copy,
    ``for dst in dsts: send(src, dst, payload)``, on its one-loop path
    and on the general path alike.
(d) *One delivery shape* — however a delivery got scheduled, the heap
    entry is the ``Envelope`` itself, armed with ``Network._deliver``.
"""

import numpy as np
import pytest

from conftest import report_row
from repro.faults import CrashWindow, FaultInjector, FaultPlan, LinkPartition
from repro.harness import Scenario, build_simulation
from repro.policies.linear import LinearPolicy
from repro.sim import (
    DeterministicLatency,
    Environment,
    Envelope,
    Network,
    StreamRegistry,
    UniformLatency,
)
from repro.snap import checkpoint, restore, run_to_checkpoint
from repro.verify import set_default_policy

from test_probe_catalog import emitted_kinds


@pytest.fixture
def bare():
    """No sanitizer suite: simulations start with an empty probe table."""
    previous = set_default_policy(None)
    yield
    set_default_policy(previous)


def hostile_plan():
    # Short injected delays keep the derived round deadline (81 worst
    # one-way delays) well inside the run, and cell 10 stays down past a
    # message's whole retransmission schedule: sends to it exhaust their
    # retries and rounds that wait on it time out.
    return FaultPlan(
        drop_prob=0.05,
        dup_prob=0.03,
        delay_prob=0.05,
        extra_delay=0.5,
        reorder_prob=0.02,
        reorder_delay=0.5,
        crashes=(
            CrashWindow(cell=10, at=40.0, downtime=60.0),
            CrashWindow(cell=24, at=90.0, downtime=15.0, lose_state=False),
        ),
        partitions=(LinkPartition(a=3, b=4, start=50.0, end=80.0),),
    )


SCENARIOS = {
    "adaptive": Scenario(
        scheme="adaptive", offered_load=14.0, duration=300.0, warmup=30.0, seed=5
    ),
    "basic_update": Scenario(
        scheme="basic_update", offered_load=5.0, duration=60.0, warmup=20.0, seed=5
    ),
    "hardened_faults": Scenario(
        scheme="adaptive", offered_load=12.0, duration=200.0, warmup=30.0, seed=5,
        faults=hostile_plan(),
    ),
}


def run(scenario, subscribe=()):
    """Run ``scenario`` with ``subscribe`` = ((kind, callback), ...)."""
    sim = build_simulation(scenario)
    for kind, callback in subscribe:
        sim.env.subscribe(kind, callback)
    report = sim.run()
    return sim, report_row(report)


# --------------------------------------------------- (a) probe transparency --
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_subscribers_never_change_a_run(bare, name):
    scenario = SCENARIOS[name]

    def noop(now, payload):
        pass

    sim, reference = run(scenario)
    assert sim.sanitizers is None and not sim.env._probes
    sim_all, with_all = run(scenario, [(kind, noop) for kind in sorted(emitted_kinds())])
    sim_one, with_one = run(scenario, [("net.deliver", noop)])
    assert with_all == reference
    assert with_one == reference
    assert sim_all.env._eid == sim.env._eid == sim_one.env._eid
    assert sim_all.network._seq == sim.network._seq == sim_one.network._seq


#: Catalogued kinds none of the three scenarios can reach: they need a
#: loss pattern (terminally lost ACQUISITION, traffic across the
#: severed link) these short runs do not produce.
NOT_DRIVEN = {
    "fault.ack_timeout",
    "fault.partition",
}


def test_recording_subscriber_sees_every_occurrence(bare, monkeypatch):
    decide_calls = []
    stock_decide = LinearPolicy.decide

    def counted_decide(self, t, s, borrowing):
        decide_calls.append(t)
        return stock_decide(self, t, s, borrowing)

    monkeypatch.setattr(LinearPolicy, "decide", counted_decide)
    catalogue = emitted_kinds()
    seen_anywhere = set()
    for name, scenario in sorted(SCENARIOS.items()):
        counts = {}

        def recorder(kind):
            def record(now, payload):
                counts[kind] = counts.get(kind, 0) + 1
            return record

        del decide_calls[:]
        sim, _ = run(scenario, [(kind, recorder(kind)) for kind in sorted(catalogue)])
        assert counts["net.send"] == sim.network.total_sent, name
        assert counts.get("policy.decide", 0) == len(decide_calls), name
        delivered = counts["net.deliver"]
        if sim.injector is None:
            # Perfect network: everything sent is delivered or in flight.
            in_flight = sum(isinstance(e[3], Envelope) for e in sim.env.pending())
            assert delivered + in_flight == sim.network.total_sent, name
        seen_anywhere |= set(counts)
    assert seen_anywhere <= catalogue
    assert catalogue - seen_anywhere == NOT_DRIVEN


# ------------------------------------------------------------ (b) live table --
def test_subscription_changes_take_effect_at_the_next_emit(bare):
    sim = build_simulation(SCENARIOS["adaptive"])
    env, network = sim.env, sim.network
    stations_probes = {id(st._probes) for st in sim.stations.values()}
    assert stations_probes == {id(env._probes)} and network._probes is env._probes
    sim.source.start()
    env.run(until=100.0)
    sent_before = network.total_sent
    assert sent_before > 0

    times = []

    def record(now, envelope):
        times.append(now)

    env.subscribe("net.send", record)
    env.run(until=200.0)
    sent_while = network.total_sent - sent_before
    assert sent_while > 0
    assert len(times) == sent_while
    assert min(times) >= 100.0 and max(times) <= 200.0

    env.unsubscribe("net.send", record)
    assert "net.send" not in env._probes
    env.run(until=300.0)
    assert network.total_sent > sent_before + sent_while
    assert len(times) == sent_while
    # Nothing was rebuilt along the way: same table, same objects.
    assert network._probes is env._probes
    assert {id(st._probes) for st in sim.stations.values()} == stations_probes


# ---------------------------------------------------------- (c) fan-out ≡ loop --
class Sink:
    def __init__(self, node_id):
        self.node_id = node_id
        self.got = []

    def on_message(self, envelope):
        self.got.append(envelope)


def twin(latency=None, fifo=True, nodes=8):
    """A network with sink nodes and a ``net.send`` subscriber logging
    each copy with the counters as they stand when it is emitted."""
    env = Environment()
    network = Network(env, latency() if latency else None, fifo=fifo)
    for node_id in range(nodes):
        network.attach(Sink(node_id))
    log = []
    env.subscribe(
        "net.send", lambda now, e: log.append((e.dst, e.seq, network.total_sent, now))
    )
    return env, network, log


def envelope_fields(envelope):
    return (
        envelope.src, envelope.dst, envelope.sent_at, envelope.deliver_at,
        envelope.seq, envelope.msg_id, envelope.fault_tag,
    )


def state_of(env, network, log):
    heap = [
        (when, prio, eid, envelope_fields(entry))
        for when, prio, eid, entry in sorted(env.pending(), key=lambda e: e[:3])
    ]
    return {
        "heap": heap,
        "eid": env._eid,
        "last_delivery": dict(network._last_delivery),
        "sent_by_kind": dict(network.sent_by_kind),
        "total_sent": network.total_sent,
        "seq": network._seq,
        "msg_id": network._msg_id,
        "log": list(log),
    }


def fan_out_and_loop(prepare, dsts, **twin_kw):
    """States after ``multicast`` and after the equivalent ``send`` loop."""
    states = []
    for use_multicast in (True, False):
        env, network, log = twin(**twin_kw)
        prepare(env, network)
        error = None
        try:
            if use_multicast:
                network.multicast(0, iter(dsts), "payload")
            else:
                for dst in dsts:
                    network.send(0, dst, "payload")
        except KeyError as exc:
            error = str(exc)
        state = state_of(env, network, log)
        state["error"] = error
        env.run()
        state["delivered"] = [
            [envelope_fields(e) for e in network.node(n).got] for n in range(8)
        ]
        states.append(state)
    return states


def advance(env, network):
    """Some history: a unicast, then the clock at an awkward time."""
    network.send(0, 3, "earlier")
    env.run(until=0.1 + 0.2)


def test_fan_out_equals_send_loop_on_the_perfect_network():
    fan, loop = fan_out_and_loop(advance, [1, 2, 3, 4, 5])
    assert fan == loop
    assert fan["total_sent"] == 6 and len(fan["heap"]) == 6  # "earlier" in flight
    # one probe per copy, in destination order, counted before it is emitted
    assert [(dst, total) for dst, _, total, _ in fan["log"][1:]] == [
        (dst, n) for n, dst in enumerate((1, 2, 3, 4, 5), start=2)
    ]


def slow_send(network, dst, delay):
    """A send under a slower latency model: pushes link 0→dst's floor out."""
    latency, network.latency = network.latency, DeterministicLatency(delay)
    network.send(0, dst, "slow")
    network.latency = latency


def test_fan_out_respects_a_floor_pushed_out_by_a_slower_send():
    def prepare(env, network):
        advance(env, network)
        slow_send(network, 2, 7.5)

    fan, loop = fan_out_and_loop(prepare, [1, 2, 3])
    assert fan == loop
    by_dst = {fields[1]: when for when, _, _, fields in fan["heap"] if fields[4] > 2}
    assert by_dst[2] == fan["last_delivery"][(0, 2)] == 0.3 + 7.5
    assert by_dst[1] == by_dst[3] == 1.3


def test_fan_out_equals_send_loop_without_fifo():
    def prepare(env, network):
        advance(env, network)
        slow_send(network, 2, 7.5)

    fan, loop = fan_out_and_loop(prepare, [1, 2, 3], fifo=False)
    assert fan == loop
    assert fan["last_delivery"] == {}
    assert {when for when, _, _, fields in fan["heap"] if fields[4] > 2} == {1.3}


def test_fan_out_sends_earlier_copies_before_an_unknown_destination():
    fan, loop = fan_out_and_loop(advance, [1, 2, 99, 3])
    assert fan == loop
    assert "99" in fan["error"]
    assert [fields[1] for _, _, _, fields in fan["heap"]] == [3, 1, 2]


def test_multicast_takes_the_general_path_when_latency_is_random():
    def latency():
        return UniformLatency(0.5, 1.5, np.random.default_rng(3))

    fan, loop = fan_out_and_loop(advance, [1, 2, 3, 1, 2], latency=latency)
    assert fan == loop
    assert len({when for when, _, _, _ in fan["heap"]}) >= 4


def test_multicast_takes_the_general_path_under_an_injector():
    def prepare(env, network):
        plan = FaultPlan(dup_prob=1.0)
        network.injector = FaultInjector(env, plan, StreamRegistry(1), network.latency)

    fan, loop = fan_out_and_loop(prepare, [1, 2, 3])
    assert fan == loop
    assert fan["total_sent"] == 3 and len(fan["heap"]) == 6  # each copy duplicated


def test_negative_computed_delay_still_raises():
    class Backwards(DeterministicLatency):
        def sample(self, src, dst):
            return -1.0

    env, network, _ = twin(latency=Backwards)
    env.run(until=5.0)
    with pytest.raises(ValueError, match="negative delay"):
        network.send(0, 1, "x")
    assert len(env) == 0


# ------------------------------------------------------ (d) one delivery shape --
def assert_is_delivery(entry, network):
    when, _prio, _eid, envelope = entry
    assert type(envelope) is Envelope
    assert envelope.callbacks == (network._deliver,)
    assert envelope.deliver_at == when
    assert envelope._processed is False


def test_every_scheduling_site_puts_the_envelope_itself_on_the_heap():
    env, network, _ = twin()
    network.send(0, 1, "plain")
    network.multicast(0, [2, 3], "fan-out")
    plan = FaultPlan(dup_prob=1.0, reorder_prob=1.0, reorder_delay=0.5)
    network.injector = FaultInjector(env, plan, StreamRegistry(1), network.latency)
    network.send(0, 5, "faulty")
    tags = sorted(e[3].fault_tag or "" for e in env.pending() if e[3].dst == 5)
    assert tags == ["dup", "reorder"]
    assert len(env) == 5
    for entry in env.pending():
        assert_is_delivery(entry, network)
    network.injector = None
    env.run()
    assert [len(network.node(n).got) for n in range(6)] == [0, 1, 1, 1, 0, 2]
    assert network.node(1).got[0].callbacks is None
    assert network.node(1).got[0]._processed is True


def test_restored_in_flight_messages_are_envelope_entries():
    scenario = Scenario(
        scheme="adaptive", offered_load=8.0, duration=200.0, warmup=30.0, seed=5,
        faults=hostile_plan(),
    )
    snapshot = run_to_checkpoint(scenario, at=125.0)
    in_flight = [e for e in snapshot.state["queue"] if e["kind"] == "envelope"]
    assert len(in_flight) >= 10, "scenario no longer checkpoints with messages in flight"
    forked = restore(snapshot)
    entries = [e for e in forked.env.pending() if type(e[3]) is Envelope]
    assert len(entries) == len(in_flight)
    for entry in entries:
        assert_is_delivery(entry, forked.network)
    # The restored heap re-checkpoints to the same bytes.
    assert checkpoint(forked).to_bytes() == snapshot.to_bytes()


def trajectory(scenario, stepwise):
    sim = build_simulation(scenario)
    events = []
    sim.env.subscribe("net.deliver", lambda now, e: events.append((now, e.seq, e.dst)))
    sim.source.start()
    if stepwise:
        while sim.env.peek() < scenario.duration:
            sim.env.step()
        sim.env.run(until=scenario.duration)
    else:
        sim.env.run(until=scenario.duration)
    return events, sim.env._eid, sim.env.now, sim.network.total_sent


@pytest.mark.parametrize("name", ["basic_update", "hardened_faults"])
def test_step_and_run_stay_event_for_event_identical(name):
    scenario = SCENARIOS[name]
    assert trajectory(scenario, stepwise=True) == trajectory(scenario, stepwise=False)
