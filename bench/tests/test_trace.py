"""The tracer's arithmetic, the generator proxy, and patch hygiene."""

import pytest

from bench.trace import GeneratorProxy, Tracer, chrome_trace, install, uninstall


class FakeClock:
    """A clock the test moves by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_children_subtract_once_and_layers_sum_to_root():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    leaf = tracer.wrap(leaf, "leaf")

    def middle():
        clock.advance(2.0)
        leaf()
        leaf()
        clock.advance(0.5)

    middle = tracer.wrap(middle, "middle")

    def root():
        clock.advance(0.25)
        middle()
        leaf()

    tracer.wrap(root, "root")()
    agg = tracer.drain()
    assert agg["leaf"] == {"calls": 3, "starts": 0, "self_s": 3.0, "total_s": 3.0}
    assert agg["middle"]["self_s"] == pytest.approx(2.5)   # 4.5 minus two leaves
    assert agg["middle"]["total_s"] == pytest.approx(4.5)
    assert agg["root"]["self_s"] == pytest.approx(0.25)    # middle and leaf removed once each
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(agg["root"]["total_s"])
    assert tracer.drain() == {}  # drained aggregates start from zero


def test_recursive_spans_keep_the_self_time_sum():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def recurse(depth):
        clock.advance(1.0)
        if depth:
            recurse(depth - 1)
        clock.advance(0.5)

    recurse = tracer.wrap(recurse, "recurse")
    tracer.wrap(lambda: recurse(3), "root")()
    agg = tracer.drain()
    assert agg["recurse"]["calls"] == 4
    assert agg["recurse"]["self_s"] == pytest.approx(6.0)  # 4 x 1.5, each level once
    assert agg["root"]["self_s"] == pytest.approx(0.0)
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(6.0)


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    boom = tracer.wrap(boom, "boom")

    def root():
        with pytest.raises(KeyError):
            boom()
        clock.advance(1.0)

    tracer.wrap(root, "root")()
    agg = tracer.drain()
    assert agg["boom"]["self_s"] == pytest.approx(1.0)
    assert agg["root"]["self_s"] == pytest.approx(1.0)


def _conversation(log):
    try:
        got = yield "first"
        log.append(("got", got))
        try:
            yield "second"
        except ValueError as exc:
            log.append(("caught", str(exc)))
            yield "recovered"
        return "result"
    finally:
        log.append("closed")


def _drive(make):
    """Drive a generator through next/send/throw/return inside ``yield from``."""
    seen = []

    def outer():
        value = yield from make()
        seen.append(("returned", value))

    gen = outer()
    seen.append(next(gen))
    seen.append(gen.send("hello"))
    seen.append(gen.throw(ValueError("bad")))
    with pytest.raises(StopIteration):
        next(gen)
    return seen


def test_generator_proxy_is_transparent():
    plain_log, traced_log = [], []
    tracer = Tracer()
    traced = tracer.wrap_generator(_conversation, "conv")
    assert _drive(lambda: _conversation(plain_log)) == _drive(lambda: traced(traced_log))
    assert plain_log == traced_log == [("got", "hello"), ("caught", "bad"), "closed"]
    agg = tracer.drain()["conv"]
    assert agg["starts"] == 1
    assert agg["calls"] == 4  # next, send, throw, final next


def test_generator_proxy_forwards_close_and_introspection():
    log = []
    tracer = Tracer()
    proxy = tracer.wrap_generator(_conversation, "conv")(log)
    assert isinstance(proxy, GeneratorProxy)

    def outer():
        yield from proxy

    gen = outer()
    next(gen)
    # The snapshot codec walks gi_yieldfrom and reads code name and locals.
    assert gen.gi_yieldfrom is proxy
    assert proxy.gi_code.co_name == "_conversation"
    assert proxy.gi_yieldfrom is None
    assert proxy.gi_frame.f_locals["log"] is log
    gen.close()  # GeneratorExit reaches the wrapped generator's finally
    assert log == ["closed"]


def test_raw_window_is_bounded_and_parents_are_recovered():
    clock = FakeClock()
    tracer = Tracer(clock=clock, raw_limit=3)

    def leaf():
        clock.advance(1.0)

    leaf = tracer.wrap(leaf, "a.leaf")

    def parent():
        leaf()
        leaf()

    parent = tracer.wrap(parent, "a.parent")
    parent()  # window closed: nothing retained
    assert tracer.raw_spans == []
    tracer.open_window()
    parent()
    parent()  # the limit cuts this one short
    assert len(tracer.raw_spans) == 3
    events = chrome_trace(tracer)["traceEvents"]
    by_name = {}
    for event in events:
        by_name.setdefault(event["name"], []).append(event)
    (parent_event,) = by_name["a.parent"]
    assert [e["args"]["parent"] for e in by_name["a.leaf"]] == [parent_event["args"]["id"]] * 2
    assert parent_event["args"]["parent"] is None
    assert parent_event["dur"] == pytest.approx(2e6)


def test_uninstall_restores_every_patched_attribute():
    from repro.protocols import MSS
    from repro.sim import Environment, Network
    from repro.traffic import source

    before = {
        "run": vars(Environment)["run"],
        "subscribe": vars(Environment)["subscribe"],
        "send": vars(Network)["send"],
        "on_message": vars(MSS)["on_message"],
        "call_process": vars(source)["call_process"],
    }
    undo = install(Tracer())
    assert vars(source)["call_process"] is not before["call_process"]
    assert vars(Environment)["run"] is not before["run"]
    patched = [(owner, attr, raw) for owner, attr, raw in undo]
    assert len(patched) > 40
    uninstall(undo)
    assert undo == []
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is raw, f"{owner!r}.{attr} not restored"
    assert vars(Environment)["run"] is before["run"]
    assert vars(Environment)["subscribe"] is before["subscribe"]
    assert vars(Network)["send"] is before["send"]
    assert vars(MSS)["on_message"] is before["on_message"]
    assert vars(source)["call_process"] is before["call_process"]


def test_traced_run_counts_steps_and_keeps_the_stock_run_contract():
    from repro.sim import Environment

    def ticker(env, log):
        while True:
            yield env.timeout(1.0)
            log.append(env.now)

    def scenario(env):
        log = []
        env.process(ticker(env, log))
        env.run(until=3.0)              # the tick due at 3.0 waits for the next run
        clock_after_number = env.now
        value = env.run(until=env.timeout(2.5, value="done"))
        env.run(until=env.now)          # nothing due: a stop event only
        return log, clock_after_number, value, env.now

    stock = scenario(Environment())
    tracer = Tracer()
    undo = install(tracer)
    try:
        traced = scenario(Environment())
        with pytest.raises(ValueError):
            Environment(initial_time=5.0).run(until=1.0)
        with pytest.raises(RuntimeError, match="never triggered"):
            env = Environment()
            env.run(until=env.event())
    finally:
        uninstall(undo)
    assert traced == stock == ([1.0, 2.0, 3.0, 4.0, 5.0], 3.0, "done", 5.5)
    spans = tracer.drain()
    # start + ticks before 3.0 (1, 2), then 3, 4, 5 and the 2.5 timeout
    # itself; the stock run's own stop events are not steps.
    assert spans["sim.engine.step"]["calls"] == 7
    assert spans["sim.engine.run"]["calls"] == 5
    assert tracer.counters["heap_peak"] >= 1
