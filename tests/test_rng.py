"""Unit tests for named random substreams (StreamRegistry)."""

import numpy as np
import pytest

from repro.sim import StreamRegistry


def test_same_name_same_stream_object():
    reg = StreamRegistry(seed=1)
    assert reg.stream("traffic", 3) is reg.stream("traffic", 3)


def test_same_seed_reproduces_draws():
    a = StreamRegistry(seed=5).stream("x").random(10)
    b = StreamRegistry(seed=5).stream("x").random(10)
    assert np.array_equal(a, b)


def test_different_names_are_independent():
    reg = StreamRegistry(seed=5)
    a = reg.stream("a").random(10)
    b = reg.stream("b").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = StreamRegistry(seed=1).stream("x").random(10)
    b = StreamRegistry(seed=2).stream("x").random(10)
    assert not np.array_equal(a, b)


def test_adding_consumer_does_not_perturb_existing():
    # Draw from "x" with and without another stream existing.
    reg1 = StreamRegistry(seed=9)
    only_x = reg1.stream("x").random(5)

    reg2 = StreamRegistry(seed=9)
    reg2.stream("y").random(100)  # unrelated consumer created first
    with_y = reg2.stream("x").random(5)
    assert np.array_equal(only_x, with_y)


def test_multi_part_names():
    reg = StreamRegistry(seed=4)
    assert reg.stream("a", "b", 1) is reg.stream("a", "b", 1)
    assert reg.stream("a", "b", 1) is not reg.stream("a", "b", 2)


def test_name_parts_are_identified_by_their_str():
    reg = StreamRegistry(seed=4)
    # One name is one stream, whatever the Python types of its parts.
    assert reg.stream(1, "2") is reg.stream("1", 2)
    assert reg.stream("traffic", "calls", 7) is reg.stream("traffic", "calls", "7")
    assert reg.stream("traffic", "calls", np.int64(7)) is reg.stream("traffic", "calls", 7)
    # Values that only compare equal in Python keep their distinct names.
    assert reg.stream(1) is not reg.stream(1.0)
    assert reg.stream(1) is not reg.stream(True)
    assert reg.stream(1.0) is reg.stream("1.0")


def test_substream_seed_derivation_is_pinned():
    # sha256("<seed>:<parts joined by '/'>")[:8], little-endian: the
    # derivation snapshots and golden rows depend on.
    import hashlib

    digest = hashlib.sha256(b"42:traffic/arrivals/7").digest()
    expected = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    got = StreamRegistry(seed=42).stream("traffic", "arrivals", 7)
    assert np.array_equal(got.random(8), expected.random(8))


@pytest.mark.parametrize("parts", [("a/b",), ("a", "b/c"), ("x", "/"), (1, "2/3")])
def test_separator_in_a_name_part_is_rejected(parts):
    # ("a/b",) and ("a", "b") used to alias silently to one substream.
    reg = StreamRegistry(seed=4)
    with pytest.raises(ValueError, match="must not contain '/'"):
        reg.stream(*parts)
    assert reg.stream("a", "b") is reg.stream("a", "b")


def test_a_reserved_stream_is_listed_at_the_state_a_built_one_has():
    lazy, eager = StreamRegistry(seed=7), StreamRegistry(seed=7)
    lazy.reserve("traffic", "calls", 3)
    eager.stream("traffic", "calls", 3)
    assert lazy._streams == {} and lazy.state_dict() == eager.state_dict()
    # Built at its first draw, it is the stream an eager build gives.
    assert lazy.stream("traffic", "calls", 3).random() == eager.stream("traffic", "calls", 3).random()
    assert lazy.state_dict() == eager.state_dict()
    lazy.reserve("traffic", "calls", 3)  # already built: nothing changes
    assert lazy.state_dict() == eager.state_dict()


def test_a_reserved_stream_takes_a_loaded_state():
    source = StreamRegistry(seed=7)
    source.stream("x").random(5)
    restored = StreamRegistry(seed=7)
    restored.reserve("x")
    restored.load_state(source.state_dict())
    assert restored.state_dict() == source.state_dict()
    assert restored.stream("x").random() == source.stream("x").random()


# -- the one-pass seeding kernel -----------------------------------------------
def _kernel_seeds():
    rng = np.random.default_rng(2024)
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    wide = rng.integers(0, 2**64, 10_000, dtype=np.uint64, endpoint=False).tolist()
    narrow = rng.integers(0, 2**31, 10_000).tolist()
    return edges + wide + narrow


def test_the_seed_kernel_is_numpys_seed_sequence():
    # One-word (below 2**32) and two-word entropy alike: the kernel's
    # rows are numpy's SeedSequence words, and a PCG64 seeded from a
    # row is the stream default_rng builds.
    from repro.sim.rng import _seed_words_type, seed_words

    seeds = _kernel_seeds()
    assert sum(s < 2**32 for s in seeds) > 10_000 and sum(s >= 2**32 for s in seeds) > 9_000
    rows = seed_words(np.array(seeds, dtype=np.uint64))
    assert rows.shape == (len(seeds), 4) and rows.dtype == np.uint64
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64)), seed
        built = np.random.Generator(np.random.PCG64(_seed_words_type()(row)))
        assert built.bit_generator.state == np.random.default_rng(seed).bit_generator.state, seed


def test_prepared_streams_are_the_streams_built_one_by_one():
    names = [("traffic", kind, cell) for cell in range(40) for kind in ("arrivals", "calls")]
    batched, single = StreamRegistry(seed=11), StreamRegistry(seed=11)
    batched.prepare(names)
    assert batched._streams == {} and len(batched._words) == len(names)
    # Prepared names are not named: a snapshot lists none of them.
    assert batched.state_dict() == single.state_dict() == {}
    for cell in range(0, 40, 3):
        batched.reserve("traffic", "calls", cell)
        single.reserve("traffic", "calls", cell)
    assert batched.state_dict() == single.state_dict()
    for name in names[::2]:
        assert batched.stream(*name).random(3).tolist() == single.stream(*name).random(3).tolist()
    for name in names[1::4]:
        assert batched.uniforms(*name).random() == single.uniforms(*name).random()
    assert batched.state_dict() == single.state_dict()


def test_a_small_batch_is_left_to_numpys_seed_sequence():
    reg = StreamRegistry(seed=3)
    reg.prepare([("x", i) for i in range(3)])
    assert reg._words == {}
    reg.stream("y")
    # Handed out or already prepared names are passed over.
    reg.prepare([("y",)] + [("x", i) for i in range(20)])
    assert "y" not in reg._words and len(reg._words) == 20
    reg.prepare([("x", i) for i in range(20)])
    assert len(reg._words) == 20


def test_a_name_is_handed_out_in_one_form_only():
    reg = StreamRegistry(seed=5)
    light = reg.uniforms("faults", "net", 1, 2)
    with pytest.raises(TypeError, match=r"'faults/net/1/2' was handed out as a UniformStream"):
        reg.stream("faults", "net", 1, 2)
    assert reg.uniforms("faults", "net", 1, 2) is light
    gen = reg.stream("traffic", "calls", 4)
    with pytest.raises(TypeError, match=r"'traffic/calls/4' was handed out as a Generator"):
        reg.uniforms("traffic", "calls", 4)
    assert reg.stream("traffic", "calls", 4) is gen
