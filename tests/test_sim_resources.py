"""Unit tests for Gate, Resource and Collector primitives."""

import pytest

from repro.sim import Collector, Environment, Gate, Resource


# ---------------------------------------------------------------- Gate ----
def test_gate_pulse_wakes_all_waiters():
    env = Environment()
    gate = Gate(env)
    woken = []

    def waiter(i):
        yield gate.wait()
        woken.append((i, env.now))

    for i in range(3):
        env.process(waiter(i))

    def pulser():
        yield env.timeout(2)
        assert gate.pulse("go") == 3

    env.process(pulser())
    env.run()
    assert woken == [(0, 2), (1, 2), (2, 2)]


def test_gate_pulse_does_not_wake_future_waiters():
    env = Environment()
    gate = Gate(env)
    log = []

    def early():
        yield gate.wait()
        log.append("early")

    def late():
        yield env.timeout(5)
        yield gate.wait()
        log.append("late")

    env.process(early())
    env.process(late())

    def pulser():
        yield env.timeout(1)
        gate.pulse()
        yield env.timeout(10)
        gate.pulse()

    env.process(pulser())
    env.run()
    assert log == ["early", "late"]


def test_gate_open_latches():
    env = Environment()
    gate = Gate(env)
    gate.open("latched")
    got = []

    def waiter():
        got.append((yield gate.wait()))

    env.process(waiter())
    env.run()
    assert got == ["latched"]
    assert gate.is_open
    gate.close()
    assert not gate.is_open


# ------------------------------------------------------------- Resource ----
def test_resource_serializes_holders():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(i, hold):
        yield res.request()
        log.append(("start", i, env.now))
        yield env.timeout(hold)
        log.append(("end", i, env.now))
        res.release()

    env.process(user(0, 5))
    env.process(user(1, 3))
    env.run()
    assert log == [
        ("start", 0, 0),
        ("end", 0, 5),
        ("start", 1, 5),
        ("end", 1, 8),
    ]


def test_resource_capacity_two():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def user(i):
        yield res.request()
        starts.append((i, env.now))
        yield env.timeout(10)
        res.release()

    for i in range(3):
        env.process(user(i))
    env.run()
    assert starts == [(0, 0), (1, 0), (2, 10)]


def test_resource_release_without_request_raises():
    env = Environment()
    res = Resource(env)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_counters():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        yield res.request()
        assert res.in_use == 1
        yield env.timeout(2)
        res.release()

    def waiter():
        ev = res.request()
        assert res.queued == 1
        yield ev
        res.release()

    env.process(holder())

    def late():
        yield env.timeout(1)
        env.process(waiter())

    env.process(late())
    env.run()


# ------------------------------------------------------------ Collector ----
def test_collector_fires_when_all_delivered():
    env = Environment()
    col = Collector(env, expected=[1, 2, 3])
    got = []

    def waiter():
        got.append((yield col.done))

    env.process(waiter())

    def deliverer():
        yield env.timeout(1)
        assert not col.deliver(2, "b")
        assert not col.deliver(1, "a")
        assert col.deliver(3, "c")

    env.process(deliverer())
    env.run()
    assert got == [{1: "a", 2: "b", 3: "c"}]


def test_collector_empty_expected_fires_immediately():
    env = Environment()
    col = Collector(env, expected=[])
    assert col.done.triggered


def test_collector_duplicate_rejected():
    env = Environment()
    col = Collector(env, expected=[1, 2])
    col.deliver(1, "a")
    with pytest.raises(KeyError):
        col.deliver(1, "again")


def test_collector_unexpected_tag_rejected():
    env = Environment()
    col = Collector(env, expected=[1])
    with pytest.raises(KeyError):
        col.deliver(99, "?")


def test_collector_cancel_suppresses_completion():
    env = Environment()
    col = Collector(env, expected=[1])
    col.cancel()
    assert not col.deliver(1, "a")
    assert not col.done.triggered


def test_collector_outstanding_tracking():
    env = Environment()
    col = Collector(env, expected=[1, 2, 3])
    col.deliver(2, None)
    assert col.outstanding == {1, 3}
    assert col.responses == {2: None}
