"""A fault link's decision stream as two ints (``repro.sim.rng.UniformStream``).

(a) *numpy is the oracle* — interleaved ``random()`` / ``uniform()``
    draws equal ``default_rng``'s bit for bit, and ``bit_generator.state``
    is numpy's dict all along.
(b) *The registry owns the states* — ``state_dict()`` / ``load_state()``;
    a loaded state is applied by whichever accessor first asks.
(c) *A guard a Generator cannot meet* — bytes per fault link stream
    (a ``Generator``: ~820).
(d) *A restore is lazy* — a restored run builds no link stream until a
    send asks for one, re-checkpoints byte-identically, and the links it
    does build are light again.
"""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from repro.faults import CrashWindow, FaultPlan
from repro.harness import Scenario, build_simulation
from repro.sim import StreamRegistry, UniformStream
from repro.snap import checkpoint, restore, run_to_checkpoint


# ------------------------------------------------------- (a) numpy oracle --
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 101, 202, 2**31 - 1, 2**62 + 3])
def test_draws_and_states_are_numpys(seed):
    name = ("faults", "net", seed % 13, seed % 11)
    ours = StreamRegistry(seed).uniforms(*name)
    theirs = StreamRegistry(seed).stream(*name)
    script = np.random.default_rng(seed).random((10_000, 3))
    for step, (pick, a, b) in enumerate(script.tolist()):
        if pick < 0.5:
            got, want = ours.random(), theirs.random()
        else:
            low, high = a * 4.0 - 2.0, a * 4.0 - 2.0 + b * 3.0
            got, want = ours.uniform(low, high), theirs.uniform(low, high)
        assert type(got) is float and got == want, step
        if step % 1_000 == 0:
            assert ours.bit_generator.state == theirs.bit_generator.state, step
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_a_state_round_trip_keeps_the_buffered_half():
    theirs = np.random.default_rng(5)
    theirs.integers(0, 10, dtype=np.uint32)  # leaves half a 64-bit draw buffered
    state = theirs.bit_generator.state
    assert state["has_uint32"] == 1
    ours = UniformStream(state)
    assert ours.bit_generator.state == state
    ours.bit_generator.state = theirs.bit_generator.state
    assert [ours.random() for _ in range(5)] == [theirs.random() for _ in range(5)]
    assert ours.state == theirs.bit_generator.state
    with pytest.raises(ValueError, match="PCG64"):
        ours.state = np.random.Generator(np.random.MT19937(1)).bit_generator.state


def test_the_seed_derivation_is_the_streams():
    digest = hashlib.sha256(b"42:faults/net/3/4").digest()
    want = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    got = StreamRegistry(seed=42).uniforms("faults", "net", 3, "4")
    assert [got.random() for _ in range(8)] == want.random(8).tolist()


# ------------------------------------------- (b) the registry owns states --
def test_state_dict_and_a_lazy_load_state():
    source = StreamRegistry(9)
    source.stream("traffic", "calls", 2).exponential(1.0)
    source.uniforms("faults", "net", 1, 2).random()
    source.uniforms("faults", "net", 0, 5).uniform(0.0, 2.0)
    states = source.state_dict()
    assert list(states) == ["faults/net/0/5", "faults/net/1/2", "traffic/calls/2"]

    target = StreamRegistry(9)
    early = target.uniforms("faults", "net", 1, 2)  # handed out before the load
    target.load_state(states)
    assert early.state == states["faults/net/1/2"]
    assert target._loaded.keys() == {"faults/net/0/5", "traffic/calls/2"}
    assert target.state_dict() == states  # not-yet-asked streams included
    link = target.uniforms("faults", "net", 0, 5)
    calls = target.stream("traffic", "calls", 2)
    assert not target._loaded and target.state_dict() == states
    assert link.uniform(0.0, 2.0) == source.uniforms("faults", "net", 0, 5).uniform(0.0, 2.0)
    assert calls.exponential(1.0) == source.stream("traffic", "calls", 2).exponential(1.0)


# --------------------------------------------------- (c) bytes per stream --
def faulty(**overrides):
    plan = FaultPlan(
        drop_prob=0.05, dup_prob=0.03, delay_prob=0.05, extra_delay=2.0,
        crashes=(CrashWindow(cell=10, at=60.0, downtime=20.0),),
    )
    fields = dict(
        scheme="adaptive", offered_load=10.0, duration=160.0, warmup=40.0,
        seed=7, faults=plan,
    )
    return Scenario(**{**fields, **overrides})


def test_a_fault_link_stream_takes_under_300_bytes():
    """What one link's stream holds, as tracemalloc sees the injector
    build 2 000 of them on 14×14, less the keys and map slots that
    name it (``sys.getsizeof``).  A numpy ``Generator``: ~820 bytes."""
    sim = build_simulation(faulty(rows=14, cols=14))
    injector, held = sim.injector, sim.streams._streams
    links = [(s, d) for s in sorted(sim.stations) for d in sim.stations[s].IN][:2_001]
    injector._link_rng(*links.pop())  # first use: imports, caches

    def maps():
        return sys.getsizeof(held) + sys.getsizeof(injector._link_rngs)

    before_maps = maps()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for src, dst in links:
            injector._link_rng(src, dst)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    keys = sum(map(sys.getsizeof, held)) + sum(map(sys.getsizeof, injector._link_rngs))
    per_stream = (after - before - (maps() - before_maps) - keys) / len(links)
    assert per_stream < 300
    sim.close()


# ---------------------------------------------------- (d) a lazy restore --
def test_a_restore_builds_no_link_stream_until_a_send_asks():
    snap = run_to_checkpoint(faulty(), 80.0)
    links = [key for key in snap.state["streams"] if key.startswith("faults/")]
    assert len(links) > 20
    sim = restore(snap)
    assert sim.injector._link_rngs == {}
    assert set(links) <= sim.streams._loaded.keys()
    assert checkpoint(sim).to_bytes() == snap.to_bytes()

    sim.env.run(until=snap.time + 10.0)
    built = sim.streams._streams
    assert sim.injector._link_rngs
    for key, stream in built.items():
        assert type(stream) is (UniformStream if key.startswith("faults/") else np.random.Generator)
    sim.close()
