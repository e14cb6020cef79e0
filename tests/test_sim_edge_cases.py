"""Edge-case tests for the DES kernel: failure propagation, condition
events under failure, run() termination modes."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
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
    queue, eid, now = list(env._queue), env._eid, env._now
    with pytest.raises(ValueError):
        env.timeout(bad)
    with pytest.raises(ValueError):
        env.timeout_at(bad if bad != bad else 0.5)  # NaN, or before now
    with pytest.raises(ValueError):
        Timeout(env, bad)
    assert (list(env._queue), env._eid, env._now) == (queue, eid, now)
    # inf is a legal "never" (a call with no mobility holds for min(x, inf)).
    assert env.timeout(float("inf")).delay == float("inf")
    assert env.timeout_at(float("inf")).delay == float("inf")
