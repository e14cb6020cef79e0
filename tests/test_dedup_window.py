"""The duplicate window as two integer columns (docs/PROTOCOL.md §10).

(a) *Same decisions* — the set + deque ``DedupFilter`` it replaced is
    kept here verbatim as the reference; Hypothesis drives both through
    interleaved senders, duplicates, out-of-order ids, ``reset()`` and
    snapshot-codec round trips on windows 1, 2, 3, 7 and 512, and every
    ``accept`` result, ``suppressed`` and ``state_dict()`` must match.
(b) *A window of no ids is refused* — ``window < 1`` would deliver
    every duplicate.
(c) *Guards the set + deque cannot meet* — bytes per remembered id on a
    short window and on a full one (the reference: 142 B and 106 B).
"""

import json
import tracemalloc
from collections import deque
from typing import Any, Deque, Dict, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.arq import DedupFilter
from repro.snap.format import canonical_bytes, decode_value, encode_value


# ------------------------------------------------------- (a) the reference --
class SetDequeDedupFilter:
    """Receiver-side duplicate suppression keyed on ``Envelope.msg_id``.

    Tracks recently seen ids per source in a bounded window (ids are
    monotonically increasing per network, and duplicates can only
    arrive within the ARQ's bounded retry horizon, so a small window is
    exact in practice).
    """

    #: Snapshot fields; ``_seen`` goes through :meth:`state_dict` as the
    #: arrival order alone (the set half is derived from it).
    SNAPSHOT = ("suppressed",)

    def __init__(self, window: int = 512) -> None:
        self.window = window
        self._seen: Dict[int, Tuple[Set[int], Deque[int]]] = {}
        self.suppressed = 0

    def state_dict(self) -> Dict[str, Any]:
        return {"seen": {src: list(order) for src, (_, order) in self._seen.items()}}

    def load_state(self, state: Dict[str, Any]) -> None:
        self._seen = {
            src: (set(order), deque(order))
            for src, order in sorted(state["seen"].items())
        }

    def accept(self, src: int, msg_id: int) -> bool:
        """Record (src, msg_id); False if it was already seen."""
        entry = self._seen.get(src)
        if entry is None:
            entry = (set(), deque())
            self._seen[src] = entry
        seen, order = entry
        if msg_id in seen:
            self.suppressed += 1
            return False
        seen.add(msg_id)
        order.append(msg_id)
        if len(order) > self.window:
            seen.discard(order.popleft())
        return True

    def reset(self) -> None:
        """Forget everything (crash with state loss)."""
        self._seen.clear()


def through_codec(state):
    """``state`` as a snapshot stores it and hands it back."""
    return decode_value(json.loads(canonical_bytes({"dedup": encode_value(state)})))["dedup"]


def reloaded(filt, cls):
    """A fresh ``cls`` restored from ``filt``'s snapshot state."""
    clone = cls(filt.window)
    clone.load_state(through_codec(filt.state_dict()))
    clone.suppressed = filt.suppressed
    return clone


senders = st.integers(0, 2)
ops = st.one_of(
    st.tuples(st.just("back"), senders, st.integers(0, 12)),  # a recent id: dup or late
    st.tuples(st.just("next"), senders, st.integers(1, 3)),  # in order, some gaps
    st.tuples(st.just("burst"), senders, st.integers(1, 600)),  # fills and cycles a window
    st.tuples(st.just("reset")),
    st.tuples(st.just("snapshot")),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3, 7, 512]), st.lists(ops, max_size=40))
def test_every_decision_equals_the_set_and_deque(window, script):
    ours, theirs = DedupFilter(window), SetDequeDedupFilter(window)
    top = 12  # the largest id handed out so far

    def accept(src, msg_id):
        assert ours.accept(src, msg_id) == theirs.accept(src, msg_id), (src, msg_id)

    for op in script:
        if op[0] == "back":
            accept(op[1], top - op[2])
        elif op[0] == "next":
            top += op[2]
            accept(op[1], top)
        elif op[0] == "burst":
            for _ in range(op[2]):
                top += 1
                accept(op[1], top)
            accept(op[1], top - min(op[2], window))  # oldest kept, or just evicted
        elif op[0] == "reset":
            ours.reset()
            theirs.reset()
        else:
            ours, theirs = reloaded(ours, DedupFilter), reloaded(theirs, SetDequeDedupFilter)
        assert ours.suppressed == theirs.suppressed
        assert ours.state_dict() == theirs.state_dict()
        assert all(type(i) is int for order in ours.state_dict()["seen"].values() for i in order)


def test_eviction_follows_acceptance_order_not_id_order():
    ours = DedupFilter(window=3)
    for msg_id in (30, 10, 20, 40):  # 30 is the oldest, not the smallest
        assert ours.accept(1, msg_id)
    assert ours.state_dict() == {"seen": {1: [10, 20, 40]}}
    assert ours.accept(1, 30)  # evicts 10
    assert not ours.accept(1, 20)
    assert ours.state_dict() == {"seen": {1: [20, 40, 30]}}
    assert ours.suppressed == 1


# ------------------------------------------------ (b) an empty window ------
@pytest.mark.parametrize("window", [0, -1])
def test_a_window_of_no_ids_is_refused(window):
    with pytest.raises(ValueError, match="window must be >= 1"):
        DedupFilter(window)


# ------------------------------------------- (c) bytes per remembered id ----
def bytes_per_id(filt, senders_, per_sender):
    """Traced bytes ``filt`` keeps after ``per_sender`` in-order ids from
    each of ``senders_`` (interleaved, as a station receives them), per
    id it remembers."""
    first = 10**9  # boxed ints, as a long run's msg_ids are
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for k in range(per_sender):
            for src in range(senders_):
                assert filt.accept(src, first + k * senders_ + src)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    remembered = sum(len(order) for order in filt.state_dict()["seen"].values())
    assert remembered == senders_ * min(per_sender, filt.window)
    return (after - before) / remembered


def test_a_short_window_costs_under_48_bytes_an_id():
    """18 senders (a 14×14 station's interference region) × 14 ids:
    142 B an id as a set, a deque and a boxed int."""
    assert bytes_per_id(DedupFilter(), 18, 14) < 48


def test_a_full_window_costs_under_24_bytes_an_id():
    """18 senders × 512 ids once eviction has cycled: 106 B an id as a
    set, a deque and a boxed int; 16 B of columns plus growth slack."""
    assert bytes_per_id(DedupFilter(), 18, 700) < 24
