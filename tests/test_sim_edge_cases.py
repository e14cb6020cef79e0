"""Edge-case tests for the DES kernel: failure propagation, condition
events under failure, run() termination modes."""

from types import SimpleNamespace

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Network,
    Timeout,
)


def test_condition_event_propagates_child_failure():
    env = Environment()
    good = env.timeout(1)
    bad = env.event()

    def failer():
        yield env.timeout(0.5)
        bad.fail(ValueError("child broke"))

    env.process(failer())
    caught = []

    def waiter():
        try:
            yield AllOf(env, [good, bad])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert caught == ["child broke"]


def test_any_of_failure_beats_success():
    env = Environment()
    slow = env.timeout(10)
    bad = env.event()

    def failer():
        yield env.timeout(1)
        bad.fail(RuntimeError("fast failure"))

    env.process(failer())

    def waiter():
        with pytest.raises(RuntimeError, match="fast failure"):
            yield AnyOf(env, [slow, bad])
        return "handled"

    p = env.process(waiter())
    assert env.run(until=p) == "handled"


def test_condition_event_with_pre_processed_children():
    env = Environment()
    t1 = env.timeout(0)
    env.run(until=1)  # t1 processed
    t2 = env.timeout(1)

    def waiter():
        result = yield AllOf(env, [t1, t2])
        return len(result)

    p = env.process(waiter())
    assert env.run(until=p) == 2


def test_condition_event_cross_environment_rejected():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        AllOf(env1, [env1.timeout(1), env2.timeout(1)])


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_run_until_processed_failed_event_reraises():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("already failed"))
    ev.defuse()
    env.run()  # processes the failed (defused) event
    with pytest.raises(ValueError, match="already failed"):
        env.run(until=ev)


def test_run_until_event_that_fails_later():
    env = Environment()
    ev = env.event()

    def failer():
        yield env.timeout(3)
        ev.fail(RuntimeError("boom"))

    env.process(failer())
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=ev)


def test_step_after_run_continues():
    env = Environment()
    env.timeout(1)
    env.timeout(5)
    env.run(until=2)
    assert env.now == 2
    env.step()
    assert env.now == 5


def test_callbacks_none_after_processing():
    env = Environment()
    t = env.timeout(1)
    env.run()
    assert t.callbacks is None
    assert t.processed


def test_environment_len_and_peek_track_queue():
    env = Environment()
    assert len(env) == 0
    env.timeout(3)
    env.timeout(1)
    assert len(env) == 2
    assert env.peek() == 1


@pytest.mark.parametrize("bad", [float("nan"), -1.0])
def test_timeouts_reject_nan_and_leave_the_kernel_untouched(bad):
    # ``nan < 0`` is false: a NaN delay used to pass the guard and push a
    # NaN heap key, which silently breaks heap order for later events.
    env = Environment()
    env.timeout(2.0)
    env.run(until=1.0)
    queue, eid, now = env.pending(), env._eid, env._now
    with pytest.raises(ValueError):
        env.timeout(bad)
    with pytest.raises(ValueError):
        env.timeout_at(bad if bad != bad else 0.5)  # NaN, or before now
    with pytest.raises(ValueError):
        Timeout(env, bad)
    assert (env.pending(), env._eid, env._now) == (queue, eid, now)
    # inf is a legal "never" (a call with no mobility holds for min(x, inf)).
    assert env.timeout(float("inf")).delay == float("inf")
    assert env.timeout_at(float("inf")).delay == float("inf")


# -- the queue's lanes and delivery runs (Environment's docstring) ----------


def sinks(env, nodes=5, on_message=None):
    """A perfect network whose node ``n`` logs ``(now, n)`` per delivery."""
    got = []
    network = Network(env)
    for node_id in range(nodes):
        network.attach(SimpleNamespace(
            node_id=node_id,
            on_message=on_message or (lambda e: got.append((env.now, e.dst))),
        ))
    return network, got


def test_peek_past_an_abandoned_front_member_keeps_the_rest_of_its_run():
    env = Environment()
    network, got = sinks(env)
    network.multicast(0, [1, 2, 3, 4], "x")  # a delivery, then a run of three
    for entry in sorted(env.pending())[:2]:
        entry[3].abandon()
    assert env.peek() == 1.0 and len(env) == 2
    env.run()
    assert got == [(1.0, 3), (1.0, 4)]


def test_a_run_emptied_by_peek_takes_no_later_delivery():
    env = Environment()
    network, got = sinks(env)
    network.multicast(0, [1, 2], "x")  # eids 1, 2: a delivery, then a one-member run
    for entry in env.pending():
        entry[3].abandon()
    assert env.peek() == float("inf")  # takes both off the heap
    network.send(0, 3, "x")  # eid 3 at t = 1: next in that run's ids
    env.run()
    assert got == [(1.0, 3)]


def test_a_raising_run_member_leaves_the_rest_queued_in_order():
    env = Environment()
    got = []

    def on_message(envelope):
        got.append(envelope.dst)
        if envelope.dst == 2:  # the front of the run
            raise KeyError("handler")

    network, _ = sinks(env, on_message=on_message)
    network.multicast(0, [1, 2, 3], "x")
    with pytest.raises(KeyError):
        env.run()
    assert got == [1, 2] and len(env) == 1
    env.run()
    assert got == [1, 2, 3] and len(env) == 0


def test_a_process_a_delivery_starts_and_ends_runs_before_the_rest_of_the_run():
    env = Environment()
    got = []

    def quick():
        got.append("started")
        yield from ()

    def on_message(envelope):
        got.append(envelope.dst)
        if envelope.dst == 2:  # the front of the run
            env.process(quick()).callbacks.append(lambda _e: got.append("ended"))

    network, _ = sinks(env, on_message=on_message)
    network.multicast(0, [1, 2, 3, 4], "x")
    env.run()
    assert got == [1, 2, "started", "ended", 3, 4]


def test_a_reset_queue_never_appends_to_a_run_from_before_it():
    env = Environment()
    network, got = sinks(env)
    network.multicast(0, [1, 2], "x")  # eids 1, 2 at t = 1: a run from eid 2
    env.reset(0.0)  # what a snapshot restore starts from
    env.timeout(5.0)
    env.timeout(5.0)  # eids 1, 2 again
    network.send(0, 3, "x")  # eid 3, t = 1: contiguous with the dropped run
    env.run()
    assert got == [(1.0, 3)]


def test_a_callback_stepping_the_kernel_mid_run_sees_the_rest_of_the_run():
    env = Environment()
    got, seen = [], []

    def on_message(envelope):
        got.append(envelope.dst)
        if envelope.dst == 2:  # the front of the run
            seen.append((env.peek(), len(env)))
            env.step()  # delivers 3, the head of the rest of the run

    network, _ = sinks(env, on_message=on_message)
    network.multicast(0, [1, 2, 3, 4], "x")
    env.run()
    assert got == [1, 2, 3, 4] and seen == [(1.0, 2)] and len(env) == 0


def test_a_callback_stepping_the_clock_on_keeps_the_order():
    env = Environment()
    got = []

    def first(_event):
        env.step()  # ``a`` at t = 1
        env.timeout(0).callbacks.append(lambda _e: got.append("zero"))

    env.timeout(0).callbacks.append(first)
    for name in "ab":
        env.timeout(1).callbacks.append(lambda _e, name=name: got.append(name))
    env.run()
    assert got == ["a", "b", "zero"]


@pytest.mark.parametrize("trigger", ["succeed", "fail"])
def test_triggers_refuse_a_priority_other_than_urgent_or_normal(trigger):
    env = Environment()
    event = env.event()
    args = () if trigger == "succeed" else (KeyError("x"),)
    with pytest.raises(ValueError, match="URGENT or NORMAL"):
        getattr(event, trigger)(*args, priority=-1)
    assert not event.triggered and len(env) == 0 and env._eid == 0
