"""Unit tests for the message-passing network substrate."""

import numpy as np
import pytest

from repro.sim import (
    DeterministicLatency,
    Environment,
    Network,
    UniformLatency,
)


class Sink:
    """Test node recording (time, src, payload) of every delivery."""

    def __init__(self, node_id, env):
        self.node_id = node_id
        self.env = env
        self.received = []

    def on_message(self, envelope):
        self.received.append((self.env.now, envelope.src, envelope.payload))


def make_net(env, **kw):
    net = Network(env, **kw)
    nodes = [Sink(i, env) for i in range(4)]
    for n in nodes:
        net.attach(n)
    return net, nodes


def test_deterministic_latency_delivery_time():
    env = Environment()
    net, nodes = make_net(env, latency=DeterministicLatency(2.5))
    net.send(0, 1, "hi")
    env.run()
    assert nodes[1].received == [(2.5, 0, "hi")]


def test_duplicate_node_id_rejected():
    env = Environment()
    net = Network(env)
    net.attach(Sink(1, env))
    with pytest.raises(ValueError):
        net.attach(Sink(1, env))


def test_unknown_destination_rejected():
    env = Environment()
    net, _ = make_net(env)
    with pytest.raises(KeyError):
        net.send(0, 99, "lost")


def test_message_counting_by_kind():
    class Ping:
        pass

    class Pong:
        pass

    env = Environment()
    net, _ = make_net(env)
    net.send(0, 1, Ping())
    net.send(1, 0, Pong())
    net.send(0, 2, Ping())
    env.run()
    assert net.total_sent == 3
    assert net.sent_by_kind == {"Ping": 2, "Pong": 1}


def test_multicast_counts_messages():
    env = Environment()
    net, nodes = make_net(env)
    n = net.multicast(0, [1, 2, 3], "all")
    env.run()
    assert n == 3
    assert all(len(nodes[i].received) == 1 for i in (1, 2, 3))


def test_fifo_preserves_order_under_random_latency():
    env = Environment()
    rng = np.random.default_rng(0)
    net, nodes = make_net(env, latency=UniformLatency(1, 10, rng), fifo=True)
    for i in range(50):
        net.send(0, 1, i)
    env.run()
    payloads = [p for _, _, p in nodes[1].received]
    assert payloads == list(range(50))


def test_non_fifo_allows_overtaking():
    env = Environment()
    rng = np.random.default_rng(7)
    net, nodes = make_net(env, latency=UniformLatency(1, 10, rng), fifo=False)
    for i in range(50):
        net.send(0, 1, i)
    env.run()
    payloads = [p for _, _, p in nodes[1].received]
    assert sorted(payloads) == list(range(50))
    assert payloads != list(range(50))  # with this seed, overtaking occurs


def test_delay_override_forces_latency():
    env = Environment()
    net, nodes = make_net(env, latency=DeterministicLatency(1.0), fifo=False)
    net.send(0, 1, "slow", delay_override=9.0)
    net.send(0, 1, "fast")
    env.run()
    assert [p for _, _, p in nodes[1].received] == ["fast", "slow"]


def test_send_and_deliver_hooks():
    env = Environment()
    net, _ = make_net(env)
    sends, delivers = [], []
    env.subscribe("net.send", lambda now, e: sends.append(e.payload))
    env.subscribe("net.deliver", lambda now, e: delivers.append(e.payload))
    net.send(0, 1, "x")
    assert sends == ["x"] and delivers == []
    env.run()
    assert delivers == ["x"]


def test_envelope_metadata():
    env = Environment()
    net, nodes = make_net(env, latency=DeterministicLatency(3.0))

    def later():
        yield env.timeout(10)
        e = net.send(2, 3, "meta")
        assert e.sent_at == 10
        assert e.deliver_at == 13
        assert e.src == 2 and e.dst == 3

    env.process(later())
    env.run()
    assert nodes[3].received == [(13.0, 2, "meta")]


def test_latency_model_validation():
    with pytest.raises(ValueError):
        DeterministicLatency(0)
    with pytest.raises(ValueError):
        UniformLatency(0, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        UniformLatency(5, 2, np.random.default_rng(0))


def test_deterministic_max_delay():
    assert DeterministicLatency(2.0).max_delay == 2.0
    assert UniformLatency(1, 3, np.random.default_rng(0)).max_delay == 3
