"""One shared, frozen topology per scenario shape (``topology_for``).

The paper fixes ``IN_i``/``PR_i``/``Spectrum`` for the life of the
system, so every build of one shape — replications, snapshot
restores — gets the same :class:`CellularTopology` from a bounded memo.
Sharing is only sound if nobody can write to the shared value, and
only bounded if the memo evicts; both are checked here, together with
the statics the stations now read from it instead of recomputing.
"""

import pytest

from repro.cellular import CellularTopology, HexGrid, topology_for
from repro.cellular.topology import _shared_topology
from repro.harness import Scenario, build_simulation
from repro.snap import restore, run_to_checkpoint


def small(**overrides):
    defaults = dict(scheme="adaptive", duration=120.0, warmup=40.0, seed=3)
    defaults.update(overrides)
    return Scenario(**defaults)


def test_builds_of_one_shape_share_the_topology():
    a = build_simulation(small(seed=1))
    b = build_simulation(small(seed=2, scheme="basic_update", offered_load=9.0))
    assert a.topo is b.topo is topology_for(small())
    # Stations read their statics straight from the shared tables.
    assert a.stations[5].IN is b.stations[5].IN
    assert a.stations[5].PR is b.stations[5].PR


def test_different_shapes_do_not_share():
    base = topology_for(small())
    for other in (
        small(rows=14, cols=14),
        small(num_channels=140),
        small(wrap=False),
        small(channels_per_color={c: 10 for c in range(7)}),
    ):
        assert topology_for(other) is not base
    # A demand-weighted plan is part of the shape, in any key order.
    plan = {0: 16, 1: 9, 2: 9, 3: 9, 4: 9, 5: 9, 6: 9}
    shuffled = dict(reversed(list(plan.items())))
    weighted = topology_for(small(channels_per_color=plan))
    assert weighted is topology_for(small(channels_per_color=shuffled))
    assert len(weighted.PR(0)) in (9, 16)


def test_restore_uses_the_shared_topology():
    scenario = small()
    snap = run_to_checkpoint(scenario, 60.0)
    assert restore(snap, seed=9).topo is topology_for(scenario)


def test_shared_tables_are_read_only():
    topo = topology_for(small())
    with pytest.raises(TypeError):
        topo.interference[0] = frozenset()
    with pytest.raises(TypeError):
        del topo.primaries[0]
    with pytest.raises(AttributeError):
        topo.interference_radius = 1
    with pytest.raises(AttributeError):
        topo.IN(0).add(1)
    with pytest.raises(AttributeError):
        topo.sorted_IN(0).append(1)
    # A directly constructed topology is frozen the same way.
    with pytest.raises(AttributeError):
        CellularTopology(7, 7, num_channels=70, wrap=True).grid = None


def test_sorted_in_matches_the_interference_region():
    for scenario in (small(), small(wrap=False), small(rows=14, cols=14)):
        topo = topology_for(scenario)
        for cell in topo.grid:
            assert topo.sorted_IN(cell) == tuple(sorted(topo.IN(cell)))
            assert topo.interference[cell] is topo.IN(cell)


def test_memo_is_bounded_and_evicts_least_recently_used():
    bound = _shared_topology.cache_info().maxsize
    assert bound is not None and bound >= 1
    first = topology_for(small(num_channels=70))
    for extra in range(1, bound + 1):
        topology_for(small(num_channels=70 + 7 * extra))
    assert _shared_topology.cache_info().currsize <= bound
    rebuilt = topology_for(small(num_channels=70))
    assert rebuilt is not first  # evicted, built again — and equal
    assert rebuilt.primaries == first.primaries
    assert rebuilt.interference == first.interference


def test_invalid_shapes_raise_every_time():
    too_small = small(rows=2, cols=2, cluster_size=4)
    bad_torus = small(rows=8, cols=8)  # not a multiple of the k=7 lattice
    bad_cluster = small(cluster_size=5)
    for scenario in (too_small, bad_torus, bad_cluster):
        for _ in range(2):  # errors are not memoized
            with pytest.raises(ValueError):
                topology_for(scenario)
            with pytest.raises(ValueError):
                build_simulation(scenario)


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("shape", [(7, 7), (3, 5), (2, 9), (1, 1)])
def test_disk_matches_the_full_distance_scan(shape, wrap):
    """``disk`` enumerates cached per-radius offsets; the O(N) scan over
    ``distance`` is the reference it must agree with."""
    grid = HexGrid(*shape, wrap=wrap)
    for radius in (0, 1, 2, 3):
        for cell in grid:
            scan = [
                c for c in grid
                if c != cell and grid.distance(cell, c) <= radius
            ]
            assert grid.disk(cell, radius) == scan
