"""Quiescence invariants: after traffic drains, no protocol state leaks.

These catch slow leaks that short unit tests can't see: stranded
DeferQ entries, unbalanced waiting counters, stale borrowed-channel
mirrors, or pledges that never resolve.
"""

import pytest

from repro.cellular.spectrum import channels
from repro.core import Mode
from repro.harness import Scenario, build_simulation

from conftest import drain


def drained(scheme: str, load: float, seed: int, **kw):
    return drain(
        build_simulation(
            Scenario(scheme=scheme, offered_load=load, mean_holding=60.0,
                     duration=700.0, warmup=100.0, seed=seed, **kw)
        )
    )


@pytest.mark.parametrize("load", [4.0, 9.0, 14.0])
def test_adaptive_quiesces_clean(load):
    sim = drained("adaptive", load, seed=89)
    for s in sim.stations.values():
        assert not s.use
        assert s.mode in (Mode.LOCAL, Mode.BORROW_IDLE)
        assert s.waiting == 0, f"cell {s.cell} leaked waiting counter"
        assert not s.DeferQ, f"cell {s.cell} stranded deferred requests"
        assert s._collector is None
        assert not s.pending
        # No borrowed (non-primary) channel may linger in any mirror:
        # borrowed releases reach the whole region (deviation D7).
        for j in s.IN:
            stale_borrowed = set(channels(s.U[j])) - sim.topo.PR(j)
            assert not stale_borrowed, (
                f"cell {s.cell} thinks {j} still borrows {stale_borrowed}"
            )
        for j in s.IN:
            granted = channels(s.granted_out[j])
            assert not granted, (
                f"cell {s.cell} never resolved grant {granted} to {j}"
            )
    assert sim.monitor.in_use == 0
    assert sim.monitor.total_acquisitions == sim.monitor.total_releases


@pytest.mark.parametrize("scheme", ["basic_update", "advanced_update"])
def test_update_family_mirrors_quiesce_empty(scheme):
    sim = drained(scheme, 9.0, seed=90)
    for s in sim.stations.values():
        assert not s.use
        for j, mirrored in s.U.items():
            assert not mirrored, f"cell {s.cell} stale mirror for {j}: {channels(mirrored)}"
    if scheme == "advanced_update":
        for s in sim.stations.values():
            assert not s.outstanding, f"cell {s.cell} leaked grants"


def test_prakash_quiesces_with_exclusive_allocations():
    sim = drained("prakash", 9.0, seed=91)
    for s in sim.stations.values():
        assert not s.use
        assert s._collector is None
        assert s._claiming is None
        assert not s._deferred
    # Allocated sets remain a valid exclusive partition per region.
    for cell, s in sim.stations.items():
        for other in sim.topo.IN(cell):
            common = s.allocated & sim.stations[other].allocated
            assert not common, (cell, other, common)
    # Every channel is still allocated somewhere (no channel lost to a
    # failed transfer).
    union = set()
    for s in sim.stations.values():
        union |= s.allocated
    assert union == set(range(sim.topo.num_channels))


def test_adaptive_quiesces_clean_with_mobility():
    sim = drained("adaptive", 7.0, seed=92, mean_dwell=80.0)
    for s in sim.stations.values():
        assert not s.use
        assert s.waiting == 0
        assert not s.DeferQ
    assert sim.monitor.in_use == 0
