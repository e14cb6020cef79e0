"""The adaptive protocol's FIFO-link assumption, declared and demonstrated.

The paper never states it, but the waiting/ACQUISITION handshake
requires per-link FIFO delivery: a searcher's ACQUISITION broadcast
must reach a responder before the searcher's *next* search request
does, or the responder would owe two unacknowledged responses to the
same node.  ``AdaptiveMSS.requires_fifo`` (``MSS``'s default, True)
says so, and a scenario over unordered links is refused before anything
is built; the runtime tripwire that made the assumption visible still
fires on a network switched to reordering directly.  Every other stock
scheme runs clean over unordered links, which is its evidence for
declaring ``requires_fifo = False``, and no scheme declares it without.
"""

import pytest

from repro import Scenario, run_scenario
from repro.harness import CompatibilityError, build_simulation
from repro.harness.capability import SCHEMES
from repro.verify import set_default_policy


def jittered(scheme="adaptive", **overrides):
    fields = dict(scheme=scheme, offered_load=9.0, duration=800.0, warmup=100.0,
                  latency_model="uniform", latency_spread=2.0, seed=4)
    return Scenario(**{**fields, **overrides})


def test_unordered_links_are_refused_for_adaptive(nothing_constructed):
    with pytest.raises(CompatibilityError, match="scheme that requires FIFO links"):
        run_scenario(jittered(fifo=False))


def test_reordering_network_trips_the_handshake_assertion():
    # Built FIFO, then the fabric stops clamping: the capability table
    # judges scenarios, not a network switched under a built stack.
    previous = set_default_policy("record")
    try:
        sim = build_simulation(jittered())
    finally:
        set_default_policy(previous)
    sim.network.fifo = False
    with pytest.raises(AssertionError, match="second search response"):
        sim.run()


def test_same_load_with_fifo_is_clean():
    rep = run_scenario(jittered())
    assert rep.violations == 0
    assert rep.offered > 500


#: The stock schemes this module's stress is the evidence for.
UNORDERED = ["advanced_update", "basic_search", "basic_update", "fixed", "prakash"]


def test_exactly_the_stressed_schemes_accept_unordered_links():
    assert [s for s in sorted(SCHEMES) if not SCHEMES[s].requires_fifo] == UNORDERED


@pytest.mark.parametrize("scheme", UNORDERED)
def test_schemes_without_the_fifo_requirement_are_safe_over_unordered_links(scheme):
    # The monitor and the sanitizers raise: one interference violation fails the run.
    for seed in (1, 2, 3):
        rep = run_scenario(jittered(scheme, offered_load=12.0, duration=500.0, warmup=50.0,
                                    fifo=False, seed=seed))
        assert rep.violations == 0 and rep.offered > 1000
