"""Unit tests for the runtime sanitizers in ``repro.verify``.

Each sanitizer is driven both synthetically (hand-emitted probe events
and hand-built graphs) and through a real simulation stack, covering
the raise and record policies.
"""

import pytest

from repro.cellular import CellularTopology
from repro.core import AdaptiveMSS
from repro.harness import SCHEMES, Scenario, build_simulation
from repro.protocols import ChangeMode, InterferenceMonitor, ReqType, Request, ResType, Response
from repro.sim import DeterministicLatency, Envelope, Environment, Network
from repro.verify import (
    CausalityChecker,
    DeadlockDetector,
    QuiescenceChecker,
    SanitizerSuite,
    get_default_policy,
    set_default_policy,
)

from conftest import drive, make_stack


class Sink:
    def __init__(self, node_id, env):
        self.node_id = node_id
        self.env = env
        self.received = []

    def on_message(self, envelope):
        self.received.append(envelope)


class MirrorSink(Sink):
    """A node whose handler overwrites its mirror of the sender's state."""

    def __init__(self, node_id, env):
        super().__init__(node_id, env)
        self.mirror = {}

    def on_message(self, envelope):
        super().on_message(envelope)
        self.mirror[envelope.src] = envelope.payload


def make_net(env, fifo=True, n=4, sink=Sink):
    net = Network(env, latency=DeterministicLatency(1.0), fifo=fifo)
    for i in range(n):
        net.attach(sink(i, env))
    return net


def make_monitor():
    return InterferenceMonitor(CellularTopology(7, 7, num_channels=70, wrap=True))


def send_slow_then_fast(net):
    """Two sends on link 0→1, the second overtaking the first."""
    for payload, delay in (("slow", 5.0), ("fast", 1.0)):
        net.latency = DeterministicLatency(delay)
        net.send(0, 1, payload)


# ------------------------------------------------------ deadlock detector ----
def test_deadlock_cycle_raises():
    det = DeadlockDetector(Environment(), policy="raise")
    det.block(1, 2)
    det.block(2, 3)
    with pytest.raises(AssertionError, match="wait-for cycle"):
        det.block(3, 1)


def test_deadlock_cycle_recorded_with_members():
    det = DeadlockDetector(Environment(), policy="record")
    det.block(1, 2)
    det.block(2, 3)
    det.block(3, 1)
    assert len(det.violations) == 1
    assert set(det.violations[0].cycle) == {1, 2, 3}
    with pytest.raises(AssertionError, match="wait-for cycle"):
        det.assert_clean()


def test_two_cycle_detected():
    det = DeadlockDetector(Environment(), policy="record")
    det.block(5, 7)
    det.block(7, 5)
    assert len(det.violations) == 1
    assert set(det.violations[0].cycle) == {5, 7}


def test_unblock_breaks_would_be_cycle():
    det = DeadlockDetector(Environment(), policy="raise")
    det.block(1, 2)
    det.unblock(1, 2)
    det.block(2, 1)  # no cycle: the reverse edge is gone
    assert det.blocked_on(2) == {1}
    assert det.blocked_on(1) == set()


def test_block_idempotent_and_unblock_tolerant():
    det = DeadlockDetector(Environment(), policy="raise")
    det.block(1, 2)
    det.block(1, 2)
    assert det.edges_added == 1
    det.unblock(9, 9)  # absent edge: no-op
    assert det.edge_count == 1


def test_gate_edge_requires_open_search():
    env = Environment()
    det = DeadlockDetector(env, policy="raise")
    ts = (1.0, 2)
    # No search.begin yet: the owed ack's search already concluded, the
    # gate wait is bounded, no edge may appear.
    env.emit("wait.block", (1, 2, "gate", ts))
    assert det.blocked_on(1) == set()
    env.emit("search.begin", (2, ts))
    env.emit("wait.block", (1, 2, "gate", ts))
    assert det.blocked_on(1) == {2}
    # The ACQUISITION broadcast closes the search and clears every gate
    # edge pointing at the searcher.
    env.emit("search.end", (2,))
    assert det.blocked_on(1) == set()
    # A later block for the *old* search timestamp is stale: ignored.
    env.emit("wait.block", (1, 2, "gate", ts))
    assert det.blocked_on(1) == set()


def test_defer_edges_via_probe_bus():
    env = Environment()
    det = DeadlockDetector(env, policy="record")
    env.emit("wait.block", (3, 4, "defer", (0.5, 3)))
    assert det.blocked_on(3) == {4}
    env.emit("wait.unblock", (3, 4))
    assert det.blocked_on(3) == set()
    assert det.violations == []


def test_detach_goes_inert():
    env = Environment()
    det = DeadlockDetector(env, policy="raise")
    det.detach()
    env.emit("wait.block", (1, 2, "defer", (0.0, 1)))
    assert det.edge_count == 0


# ------------------------------------------------------ causality checker ----
def test_reply_without_request_flagged():
    env = Environment()
    net = make_net(env)
    chk = CausalityChecker(env, policy="record")
    net.send(0, 1, Response(ResType.GRANT, 0, 7, 42))
    assert [v.kind for v in chk.violations] == ["reply_before_request"]


def test_reply_after_processed_request_is_clean_and_single():
    env = Environment()
    net = make_net(env)
    chk = CausalityChecker(env, policy="record")
    # The responder (cell 0) processed requester 1's round 42.
    env.emit("proto.request", (0, 1, 42))
    net.send(0, 1, Response(ResType.GRANT, 0, 7, 42))
    assert chk.violations == []
    # Second answer to the same round: flagged.
    net.send(0, 1, Response(ResType.GRANT, 0, 7, 42))
    assert [v.kind for v in chk.violations] == ["reply_before_request"]


def test_fifo_overtaking_flagged():
    for sink in (Sink, MirrorSink):
        env = Environment()
        net = make_net(env, fifo=False, sink=sink)  # network *allows* reordering
        chk = CausalityChecker(env, policy="record", check_fifo=True)
        send_slow_then_fast(net)
        env.run()
        assert [v.kind for v in chk.violations] == ["fifo"]
    # The overtaken write landed last: the mirror holds the older state.
    assert net.node(1).mirror == {0: "slow"}


@pytest.mark.parametrize("scheme", sorted(set(SCHEMES) - {"fixed"}))
def test_real_traffic_overtaking_flagged(scheme):
    # The suite is built believing the links are FIFO; the fabric then
    # stops clamping, so the scheme's own messages overtake.
    previous = set_default_policy("record")
    try:
        sim = build_simulation(
            Scenario(scheme=scheme, offered_load=8.0, mean_holding=60.0,
                     duration=100.0, warmup=20.0, latency_model="uniform",
                     latency_spread=1.5)
        )
    finally:
        set_default_policy(previous)
    sim.network.fifo = False
    sim.monitor.policy = "record"
    try:
        sim.run()
    except AssertionError as exc:  # adaptive's own FIFO tripwire
        assert "second search response" in str(exc)
    assert "fifo" in {v.kind for v in sim.sanitizers.causality.violations}


def test_fifo_check_disabled_for_reordering_network():
    env = Environment()
    net = make_net(env, fifo=False)
    chk = CausalityChecker(env, policy="record", check_fifo=False)
    send_slow_then_fast(net)
    env.run()
    assert chk.violations == []
    assert chk.messages_checked == 2


def test_in_order_delivery_is_clean():
    env = Environment()
    net = make_net(env)
    chk = CausalityChecker(env, policy="record")
    net.send(0, 1, "a")
    net.send(0, 1, "b")
    env.run()
    assert chk.violations == []


def test_time_travel_flagged():
    env = Environment()
    chk = CausalityChecker(env, policy="record")
    env.emit(
        "net.send",
        Envelope(src=0, dst=1, payload="x", sent_at=5.0, deliver_at=4.0, seq=1),
    )
    assert [v.kind for v in chk.violations] == ["time_travel"]


REQUEST = Request(ReqType.UPDATE, 5, (0.0, 0), 0, round_id=7)
CHANGE_MODE = ChangeMode(1, 0, round_id=7)
ANSWER = {
    REQUEST: Response(ResType.GRANT, 1, 5, 7),
    CHANGE_MODE: Response(ResType.STATUS, 1, frozenset(), 7),
}


def process(env, net, message, answered):
    """Node 1 handles node 0's ``message`` as a scheme's handler does:
    announces it on ``proto.request``, then answers it or not."""
    net.send(0, 1, message)
    env.run()
    env.emit("proto.request", (1, 0, message.round_id))
    if answered:
        net.send(1, 0, ANSWER[message])
    env.run()


@pytest.mark.parametrize("answered", [False, True], ids=["unanswered", "answered"])
@pytest.mark.parametrize("message", [REQUEST, CHANGE_MODE], ids=["request", "change_mode"])
def test_finalize_flags_a_round_only_if_unanswered(message, answered):
    env = Environment()
    net = make_net(env)
    chk = CausalityChecker(env, policy="record")
    process(env, net, message, answered)
    assert chk.violations == []  # open is not yet wrong
    chk.finalize()
    expected = [] if answered else [("unanswered_round", 1, 0)]
    assert [(v.kind, v.src, v.dst) for v in chk.violations] == expected


def test_suite_judges_unanswered_rounds_only_without_faults():
    env = Environment()
    net = make_net(env)
    suite = SanitizerSuite(env, net, make_monitor(), policy="record")
    process(env, net, REQUEST, answered=False)
    net.injector = object()  # a fault plan may lose the round
    suite.finalize()
    assert suite.violations == []
    net.injector = None
    suite.finalize()
    assert [v.kind for v in suite.violations] == ["unanswered_round"]


def announce(env, net, round_id, message=REQUEST, fault_tag=None):
    """Node 1 processes node 0's ``message`` as round ``round_id``."""
    net.send(0, 1, message, fault_tag=fault_tag)
    env.run()
    env.emit("proto.request", (1, 0, round_id))


def test_a_round_processed_twice_is_a_duplicate_request():
    env = Environment()
    net = make_net(env)
    chk = CausalityChecker(env, policy="record")
    for round_id in (7, 8, 8, 3):
        announce(env, net, round_id)
    announce(env, net, 8, CHANGE_MODE)  # another message type counts its own
    assert [(v.kind, v.src, v.dst) for v in chk.violations] == [("duplicate_request", 0, 1)] * 2
    # An ARQ or injector copy may land after a later round: not judged.
    announce(env, net, 7, fault_tag="retransmit")
    assert len(chk.violations) == 2
    # A responder that loses its state forgets the rounds it processed.
    env.emit("fault.crash", (1, False))
    announce(env, net, 8)
    assert len(chk.violations) == 3
    env.emit("fault.crash", (1, True))
    announce(env, net, 8)
    assert len(chk.violations) == 3


def test_duplicate_requests_are_not_judged_over_a_reordering_network():
    env = Environment()
    chk = CausalityChecker(env, policy="record", check_fifo=False)
    env.emit("proto.request", (1, 0, 7))
    env.emit("proto.request", (1, 0, 7))
    assert chk.violations == [] and chk._highest_round == {}


def test_a_request_broadcast_twice_is_caught_by_the_sanitizer(monkeypatch):
    # basic_update sending each Request twice: every responder processes
    # the round twice and answers it twice.
    basic_update = SCHEMES["basic_update"]
    real = basic_update._broadcast

    def twice(self, payload, dsts=None):
        if type(payload) is Request:
            real(self, payload, dsts)
        return real(self, payload, dsts)

    monkeypatch.setattr(basic_update, "_broadcast", twice)
    sim = build_simulation(
        Scenario(scheme="basic_update", offered_load=9.0, duration=200.0, warmup=20.0, seed=5)
    )
    with pytest.raises(AssertionError, match="duplicate_request"):
        sim.run()


# ----------------------------------------------------- quiescence checker ----
def test_held_channel_reported_at_finalize():
    env = Environment()
    monitor = make_monitor()
    chk = QuiescenceChecker(env, monitor, policy="record")
    monitor.acquired(3, 17, 0.0)
    monitor.acquired(3, 2, 0.0)
    chk.finalize()
    assert [(v.kind, v.cell) for v in chk.violations] == [("held_channel", 3)]
    assert "[2, 17]" in chk.violations[0].detail


def test_unresolved_request_reported_at_finalize():
    env = Environment()
    chk = QuiescenceChecker(env, make_monitor(), policy="record")
    env.emit("request.begin", (5, 1, "new"))
    chk.finalize()
    assert [v.kind for v in chk.violations] == ["unresolved_request"]


def test_balanced_lifecycle_is_clean():
    env = Environment()
    monitor = make_monitor()
    chk = QuiescenceChecker(env, monitor, policy="raise")
    env.emit("request.begin", (1, 1, "new"))
    monitor.acquired(1, 4, 0.0)
    env.emit("request.end", (1, 1, 4))
    monitor.released(1, 4, 1.0)
    chk.finalize()
    assert chk.open_requests == {}


# --------------------------------------------------------- policies / API ----
def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        DeadlockDetector(Environment(), policy="warn")


def test_default_policy_roundtrip():
    previous = set_default_policy("record")
    try:
        assert get_default_policy() == "record"
        with pytest.raises(ValueError):
            set_default_policy("warn")
    finally:
        set_default_policy(previous)
    assert get_default_policy() == previous


# ------------------------------------------------------------------ suite ----
def test_suite_respects_network_fifo_flag():
    env = Environment()
    net = make_net(env, fifo=False)
    suite = SanitizerSuite(env, net, make_monitor(), policy="record")
    assert suite.causality.check_fifo is False
    assert len(suite.sanitizers) == 3


def test_suite_aggregates_and_detaches():
    env = Environment()
    suite = SanitizerSuite(env, make_net(env), make_monitor(), policy="record")
    env.emit("wait.block", (1, 2, "defer", (0.0, 1)))
    env.emit("wait.block", (2, 1, "defer", (0.0, 2)))  # 2-cycle
    env.emit("request.begin", (0, 1, "new"))
    suite.finalize()  # unresolved request
    assert len(suite.violations) == 2
    with pytest.raises(AssertionError):
        suite.assert_clean()
    suite.detach()
    env.emit("request.begin", (9, 1, "new"))
    assert suite.quiescence.open_requests == {0: 1}  # unchanged after detach


def test_real_run_is_sanitized_and_clean():
    # make_stack attaches a raise-mode suite: a borrow round that
    # exercises defer/gate/search paths must complete without any
    # sanitizer firing.
    env, net, topo, stations, monitor, metrics = make_stack(AdaptiveMSS, alpha=0)
    held = []
    for _ in range(len(topo.PR(0))):
        held.append(drive(env, stations[0].request_channel()))
    env.run()
    borrowed = drive(env, stations[0].request_channel())  # via search
    env.run()
    assert borrowed is not None
    for ch in held + [borrowed]:
        stations[0].release_channel(ch)
    env.run()
