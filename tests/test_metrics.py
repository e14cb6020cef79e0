"""Unit tests for the metrics collector."""

import pytest

from repro.metrics import MetricsCollector
from repro.sim import Environment, Network


def rec(m, *, cell=0, kind="new", granted=True, queue_wait=0.0,
        acquisition_time=0.0, attempts=1, mode="local", time=100.0):
    m.record_acquisition(
        cell=cell, kind=kind, granted=granted, queue_wait=queue_wait,
        acquisition_time=acquisition_time, attempts=attempts,
        mode=mode, time=time,
    )


def test_warmup_discards_early_records():
    m = MetricsCollector(warmup=50)
    rec(m, time=10)
    rec(m, time=60)
    assert m.offered == 1


def test_drop_rate_accounting():
    m = MetricsCollector()
    rec(m, granted=True)
    rec(m, granted=False)
    rec(m, granted=False)
    assert m.offered == 3
    assert m.granted == 1
    assert m.dropped == 2
    assert m.drop_rate == pytest.approx(2 / 3)


def test_drop_rate_empty_is_zero():
    m = MetricsCollector()
    assert m.drop_rate == 0.0
    assert m.mean_acquisition_time() == 0.0
    assert m.mean_attempts() == 0.0
    assert m.fairness_index() == 1.0


def test_drop_rate_by_kind():
    m = MetricsCollector()
    rec(m, kind="new", granted=True)
    rec(m, kind="new", granted=False)
    rec(m, kind="handoff", granted=False)
    assert m.drop_rate_of("new") == pytest.approx(0.5)
    assert m.drop_rate_of("handoff") == 1.0
    assert m.drop_rate_of("nonexistent") == 0.0


def test_acquisition_time_stats_use_granted_requests_only():
    m = MetricsCollector()
    rec(m, granted=True, acquisition_time=2.0)
    rec(m, granted=True, acquisition_time=4.0)
    rec(m, granted=False, acquisition_time=100.0)
    assert m.mean_acquisition_time() == pytest.approx(3.0)
    assert m.acquisition_times().tolist() == [2.0, 4.0]


def test_percentile():
    m = MetricsCollector()
    for t in range(1, 101):
        rec(m, acquisition_time=float(t))
    assert m.acquisition_time_percentile(95) == pytest.approx(95.05)


def test_mean_attempts_of_granted_requests():
    m = MetricsCollector()
    rec(m, granted=True, attempts=1)
    rec(m, granted=True, attempts=3)
    rec(m, granted=False, attempts=25)
    assert m.mean_attempts() == pytest.approx(2.0)
    assert m.max_attempts() == 25


def test_mode_fractions_sum_to_one():
    m = MetricsCollector()
    rec(m, mode="local")
    rec(m, mode="local")
    rec(m, mode="update")
    rec(m, mode="search")
    fr = m.mode_fractions()
    assert fr == {"local": 0.5, "search": 0.25, "update": 0.25}
    assert sum(fr.values()) == pytest.approx(1.0)


def test_mode_fractions_ignores_drops_and_none():
    m = MetricsCollector()
    rec(m, mode="local", granted=True)
    rec(m, mode=None, granted=True)
    rec(m, mode="search", granted=False)
    assert m.mode_fractions() == {"local": 1.0}


def test_per_cell_drop_rates():
    m = MetricsCollector()
    rec(m, cell=0, granted=True)
    rec(m, cell=0, granted=False)
    rec(m, cell=1, granted=True)
    assert m.per_cell_drop_rates() == {0: 0.5, 1: 0.0}


def test_fairness_index_perfect_and_skewed():
    m = MetricsCollector()
    for cell in range(4):
        rec(m, cell=cell, granted=True)
    assert m.fairness_index() == pytest.approx(1.0)

    m2 = MetricsCollector()
    rec(m2, cell=0, granted=True)
    rec(m2, cell=1, granted=False)
    # grant rates (1, 0): Jain = (1)^2 / (2·1) = 0.5
    assert m2.fairness_index() == pytest.approx(0.5)


def test_message_baseline_subtraction():
    env = Environment()
    net = Network(env)

    class Node:
        def __init__(self, node_id):
            self.node_id = node_id

        def on_message(self, e):
            pass

    for i in range(2):
        net.attach(Node(i))

    m = MetricsCollector()
    net.send(0, 1, "early")
    env.run()
    m.snapshot_message_baseline(net)
    net.send(0, 1, "late")
    net.send(1, 0, "late2")
    env.run()
    assert m.messages_since_warmup(net) == 2
    assert m.messages_by_kind(net) == {"str": 2}


def test_messages_per_acquisition():
    env = Environment()
    net = Network(env)

    class Node:
        def __init__(self, node_id):
            self.node_id = node_id

        def on_message(self, e):
            pass

    for i in range(2):
        net.attach(Node(i))
    m = MetricsCollector()
    rec(m)
    rec(m)
    net.send(0, 1, "x")
    net.send(0, 1, "y")
    net.send(0, 1, "z")
    env.run()
    assert m.messages_per_acquisition(net) == pytest.approx(1.5)


def test_release_counting_respects_warmup():
    m = MetricsCollector(warmup=10)
    m.record_release(0, 5, time=5)
    m.record_release(0, 5, time=15)
    assert m.releases == 1
