"""Unit tests for the refcounted mirror sets behind interfered()."""

import pytest

from repro.core.mirrors import _CountedSet, _Mirrors


def make_pair():
    counts = {}
    return counts, _CountedSet(counts), _CountedSet(counts)


def test_add_and_discard_update_counts():
    counts, a, b = make_pair()
    a.add(5)
    assert counts == {5: 1}
    b.add(5)
    assert counts == {5: 2}
    a.discard(5)
    assert counts == {5: 1}
    b.discard(5)
    assert counts == {}


def test_duplicate_add_counts_once():
    counts, a, _ = make_pair()
    a.add(3)
    a.add(3)
    assert counts == {3: 1}
    a.discard(3)
    assert counts == {}


def test_discard_absent_is_noop():
    counts, a, _ = make_pair()
    a.discard(7)
    assert counts == {}


def test_replace_diffs_membership():
    counts, a, b = make_pair()
    a.replace([1, 2, 3])
    b.replace([3, 4])
    assert counts == {1: 1, 2: 1, 3: 2, 4: 1}
    a.replace([2, 4])
    assert sorted(a) == [2, 4]
    assert counts == {2: 1, 3: 1, 4: 2}


def test_replace_empty_clears():
    counts, a, _ = make_pair()
    a.replace([1, 2])
    a.replace([])
    assert counts == {}
    assert not a


def test_bypassing_mutators_blocked():
    counts, a, _ = make_pair()
    with pytest.raises(NotImplementedError):
        a.update([1])
    with pytest.raises(NotImplementedError):
        a.remove(1)
    with pytest.raises(NotImplementedError):
        a.clear()


def test_set_algebra_still_works_readonly():
    counts, a, b = make_pair()
    a.replace([1, 2, 3])
    b.replace([2, 3, 4])
    assert a & b == {2, 3}
    assert a - b == {1}
    assert sorted(a | b) == [1, 2, 3, 4]


def test_counts_equal_reconstructed_union():
    import numpy as np

    counts, *_ = {}, None
    counts = {}
    sets = [_CountedSet(counts) for _ in range(6)]
    rng = np.random.default_rng(0)
    for _ in range(500):
        s = sets[rng.integers(0, len(sets))]
        ch = int(rng.integers(0, 20))
        op = rng.integers(0, 3)
        if op == 0:
            s.add(ch)
        elif op == 1:
            s.discard(ch)
        else:
            s.replace(rng.integers(0, 20, size=rng.integers(0, 6)).tolist())
        # Invariant: counts reconstruct exactly from the memberships.
        expected = {}
        for t in sets:
            for c in t:
                expected[c] = expected.get(c, 0) + 1
        assert counts == expected


def make_mirrors():
    counts = {}
    return counts, _Mirrors((3, 5, 8), counts)


def test_a_write_that_leaves_a_mirror_empty_builds_none():
    counts, mirrors = make_mirrors()
    mirrors.discard(5, 7)
    mirrors.replace(8, ())
    mirrors.replace(3, frozenset())
    assert list(dict.keys(mirrors)) == []
    assert counts == {}
    assert mirrors.peek(5) == () and mirrors[5] == set()  # still total


def test_mirror_writes_on_touched_cells_match_the_set_methods():
    counts, mirrors = make_mirrors()
    mirrors.replace(5, frozenset({1, 2}))
    mirrors[8].add(2)
    assert list(dict.keys(mirrors)) == [5, 8]
    assert counts == {1: 1, 2: 2}
    mirrors.discard(5, 2)
    assert mirrors[5] == {1} and counts == {1: 1, 2: 1}
    mirrors.replace(8, ())
    assert mirrors[8] == set() and counts == {1: 1}
    assert list(dict.keys(mirrors)) == [5, 8]


@pytest.mark.parametrize("write", [
    lambda m: m.discard(4, 1), lambda m: m.replace(4, ()), lambda m: m.replace(4, {1}),
], ids=["discard", "replace-empty", "replace"])
def test_mirror_writes_outside_the_region_raise_as_indexing_does(write):
    counts, mirrors = make_mirrors()
    with pytest.raises(KeyError):
        mirrors[4]
    with pytest.raises(KeyError):
        write(mirrors)
    assert list(dict.keys(mirrors)) == [] and counts == {}
