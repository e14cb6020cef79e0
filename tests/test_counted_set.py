"""The adaptive scheme's mirrors as channel masks, against the
refcounted sets they replaced.

(a) *The reference* — ``_CountedSet`` and ``_Mirrors`` below are the
    set-based ``U_j`` / ``granted_out_j`` mirrors verbatim (they were
    ``repro.core.mirrors``); the first tests pin their behaviour.
(b) *Same view* — Hypothesis drives a station's mask mirrors and the
    reference with the same interleaved ``add`` / ``discard`` /
    ``replace`` writes, ``use`` changes and crash wipes; ``interfered()``,
    the ``I_i`` refcounts and the snapshot state must match after every
    step.
(c) *Guards the sets cannot meet* — mirror bytes per station on a
    28×28 ``basic_update`` run and a 7×7 ``adaptive`` one (as sets:
    4.6 KiB and 17.0 KiB).
"""

import sys
from typing import Collection, Dict, Iterable, Iterator, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cellular import CellularTopology
from repro.core import AdaptiveMSS
from repro.harness import Scenario, build_simulation
from repro.sim import DeterministicLatency, Environment, Network
from repro.verify import set_default_policy


# ------------------------------------------------------- (a) the reference --
class _CountedSet(set):
    """A set that maintains a shared per-channel reference count.

    The adaptive node derives its interference view ``I_i`` from ~19
    mirrored sets (``U_j`` plus ``granted_out_j``); recomputing that
    union inside ``check_mode`` — which runs on *every* message — was
    the simulator's hottest path (40% of runtime, measured).  Instead,
    every mutation of a mirrored set updates the owner's channel
    refcount, so ``interfered()`` and the free-primary count become
    O(result) lookups.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Dict[int, int]) -> None:
        super().__init__()
        self._counts = counts

    def add(self, channel: int) -> None:
        if channel not in self:
            super().add(channel)
            self._counts[channel] = self._counts.get(channel, 0) + 1

    def discard(self, channel: int) -> None:
        if channel in self:
            super().discard(channel)
            remaining = self._counts[channel] - 1
            if remaining:
                self._counts[channel] = remaining
            else:
                del self._counts[channel]

    def replace(self, new_members) -> None:
        """Make the set equal ``new_members``, updating counts."""
        new = set(new_members)
        for channel in tuple(self - new):
            self.discard(channel)
        for channel in new - self:
            self.add(channel)

    # Guard against accidental use of bypassing mutators.
    def update(self, *args, **kwargs):  # pragma: no cover - guard
        raise NotImplementedError("use add/replace so refcounts stay exact")

    def remove(self, channel):  # pragma: no cover - guard
        raise NotImplementedError("use discard so refcounts stay exact")

    def clear(self):  # pragma: no cover - guard
        raise NotImplementedError("use replace(()) so refcounts stay exact")


class _Mirrors(dict):
    """``neighbour -> _CountedSet`` over one interference region, each
    set created on first touch.

    Most neighbours never borrow, so most of a station's 2·|IN|
    mirrors stay empty for a whole run — and a snapshot restore
    rebuilds every station per fork.  The mapping is total over the
    region all the same: indexing an untouched neighbour returns (and
    keeps) a fresh empty set, and iteration, ``len``, ``in``, ``get``,
    ``keys``/``values``/``items`` cover every neighbour.  :meth:`peek`
    reads without creating, and :meth:`discard` / :meth:`replace`
    write without creating a mirror that would stay empty.
    """

    __slots__ = ("_cells", "_counts")

    def __init__(self, cells: Tuple[int, ...], counts: Dict[int, int]) -> None:
        super().__init__()
        self._cells = cells
        self._counts = counts

    def __missing__(self, cell: int) -> _CountedSet:
        if cell not in self._cells:
            raise KeyError(cell)
        mirror = self[cell] = _CountedSet(self._counts)
        return mirror

    def peek(self, cell: int) -> Iterable[int]:
        """The mirror for *cell* if it was ever touched, else ``()``."""
        return dict.get(self, cell, ())

    def discard(self, cell: int, channel: int) -> None:
        """``self[cell].discard(channel)``, creating no mirror."""
        mirror = dict.get(self, cell)
        if mirror is not None:
            mirror.discard(channel)
        elif cell not in self._cells:
            raise KeyError(cell)

    def replace(self, cell: int, members: Collection[int]) -> None:
        """``self[cell].replace(members)``; an untouched *cell* stays
        untouched when *members* is empty."""
        mirror = dict.get(self, cell)
        if mirror is None:
            if cell not in self._cells:
                raise KeyError(cell)
            if not members:
                return
            mirror = self[cell]
        mirror.replace(members)

    def __iter__(self) -> Iterator[int]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell: object) -> bool:
        return cell in self._cells

    def get(self, cell, default=None):
        return self[cell] if cell in self._cells else default

    def keys(self):
        return self._cells

    def values(self):
        return [self[j] for j in self._cells]

    def items(self):
        return [(j, self[j]) for j in self._cells]


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


# ---------------------------------------------------------- (b) same view --
TOPO = CellularTopology(7, 7, num_channels=70, wrap=True)


class ReferenceView:
    """What ``AdaptiveMSS`` derived from the reference mirrors."""

    def __init__(self, station):
        self.IN, self.PR, self.use = station.IN, station.PR, station.use
        self._icount = {}
        self.U = _Mirrors(self.IN, self._icount)
        self.granted_out = _Mirrors(self.IN, self._icount)

    def interfered(self):
        return set(self._icount)

    def state_dict(self):
        return {
            "U": {j: set(self.U.peek(j)) for j in self.IN},
            "granted_out": {j: set(self.granted_out.peek(j)) for j in self.IN},
        }


# Few neighbours and channels (two of them cell 0's primaries), and
# adds and discards twice as likely as the rest, so that writes collide:
# one channel in several mirrors, discards of a channel that is there.
neighbour = st.integers(0, 2)
mirror = st.sampled_from(["U", "granted_out"])
channel = st.integers(0, 7)
add = st.tuples(st.just("add"), mirror, neighbour, channel)
discard = st.tuples(st.just("discard"), mirror, neighbour, channel)
writes = st.one_of(
    add, discard, add, discard,
    st.tuples(st.just("replace"), mirror, neighbour, st.frozensets(channel, max_size=4)),
    st.tuples(st.just("use"), channel),
    st.tuples(st.just("crash")),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(writes, min_size=10, max_size=40))
@example([("add", "U", 0, 7), ("add", "granted_out", 1, 7), ("discard", "U", 0, 7)])
def test_the_masks_derive_what_the_sets_did(script):
    env = Environment()
    ours = AdaptiveMSS(env, Network(env, DeterministicLatency(1.0)), TOPO, 0)
    theirs = ReferenceView(ours)
    for op in script:
        if op[0] == "use":
            ours.use.symmetric_difference_update({op[1]})  # shared with the reference
        elif op[0] == "crash":
            ours._crash_hook(lose_state=True)
            for j in theirs.IN:
                theirs.U.replace(j, ())
                theirs.granted_out.replace(j, ())
        else:
            kind, name, index, arg = op
            j = ours.IN[index]
            getattr(ours, f"_mirror_{kind}")(getattr(ours, name), j, arg)
            reference = getattr(theirs, name)
            if kind == "add":
                reference[j].add(arg)
            else:
                getattr(reference, kind)(j, arg)
        assert ours.interfered() == theirs.interfered()
        assert ours._icount == theirs._icount
        state = ours.state_dict()
        assert {k: state[k] for k in ("U", "granted_out")} == theirs.state_dict()


# ----------------------------------------------- (c) bytes per station ----
@pytest.fixture
def bare():
    """No sanitizer suite: a 784-cell run takes 1 s instead of 15."""
    previous = set_default_policy(None)
    yield
    set_default_policy(previous)


def mirror_bytes(mirrors):
    """``sys.getsizeof`` of a mirror map plus each value it holds."""
    return sys.getsizeof(mirrors) + sum(map(sys.getsizeof, dict.values(mirrors)))


def mean_mirror_bytes(scenario, until, names):
    sim = build_simulation(scenario)
    sim.start()
    sim.env.run(until=until)
    held = [mirror_bytes(getattr(s, name)) for s in sim.stations.values() for name in names]
    sim.close()
    return sum(held) / len(sim.stations)


def test_a_basic_update_station_mirrors_its_region_in_under_2_kib(bare):
    """28×28 at 5 E a cell (the ``grid28_update`` workload) at t = 60:
    4.6 KiB a station as 18 sets."""
    scenario = Scenario(
        scheme="basic_update", rows=28, cols=28, offered_load=5.0,
        duration=140.0, warmup=50.0, seed=101,
    )
    assert mean_mirror_bytes(scenario, 60.0, ("U",)) < 2048


def test_an_adaptive_station_mirrors_its_region_in_under_4_kib(bare):
    """7×7 at 10 E a cell (``adaptive_contended``) at t = 400, ``U`` and
    ``granted_out`` together: 17.0 KiB a station as sets."""
    scenario = Scenario(
        scheme="adaptive", offered_load=10.0, duration=2000.0, warmup=200.0, seed=101,
    )
    assert mean_mirror_bytes(scenario, 400.0, ("U", "granted_out")) < 4096
