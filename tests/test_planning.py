"""Tests for the capacity planner and weighted static partitions."""

import itertools

import pytest

from repro.analysis import (
    expected_blocked_traffic,
    marginal_allocation,
    plan_partition,
)
from repro.cellular import CellularTopology, HexGrid, ReusePattern, Spectrum


# -------------------------------------------------------------- planner ----
def test_equal_loads_get_equal_channels():
    counts = marginal_allocation([5.0] * 7, 70)
    assert counts == [10] * 7


def test_heavier_color_gets_more_channels():
    counts = marginal_allocation([2.0, 2.0, 2.0, 12.0], 40)
    assert counts[3] > max(counts[:3])
    assert sum(counts) == 40


def test_greedy_is_optimal_small_instance():
    # Brute-force check on a small instance: the greedy allocation must
    # achieve the minimum expected blocked traffic.
    loads = [1.0, 4.0, 8.0]
    total = 12
    best = None
    for counts in itertools.product(range(1, total + 1), repeat=3):
        if sum(counts) != total:
            continue
        value = expected_blocked_traffic(loads, counts)
        if best is None or value < best:
            best = value
    greedy = marginal_allocation(loads, total)
    assert expected_blocked_traffic(loads, greedy) == pytest.approx(best)


def test_every_color_keeps_one_channel():
    counts = marginal_allocation([0.0, 10.0], 10)
    assert counts[0] == 1  # the idle color keeps its floor, no more
    assert counts[1] == 9


def test_planner_validation():
    with pytest.raises(ValueError):
        marginal_allocation([], 10)
    with pytest.raises(ValueError):
        marginal_allocation([1.0, -2.0], 10)
    with pytest.raises(ValueError):
        marginal_allocation([1.0, 1.0], 1)  # cannot give 1 to each
    with pytest.raises(ValueError):
        expected_blocked_traffic([1.0], [1, 2])


def test_plan_partition_dict_interface():
    plan = plan_partition({0: 2.0, 1: 2.0, 2: 10.0}, 21)
    assert sum(plan.values()) == 21
    assert plan[2] > plan[0]


# -------------------------------------------------- weighted partitions ----
def test_spectrum_partition_sizes_and_disjointness():
    s = Spectrum(70)
    pools = s.partition([30, 25, 15])
    assert [len(p) for p in pools] == [30, 25, 15]
    assert frozenset().union(*pools) == s.all_channels
    for a, b in itertools.combinations(pools, 2):
        assert not (a & b)


def test_spectrum_partition_validation():
    s = Spectrum(10)
    with pytest.raises(ValueError):
        s.partition([5, 6])  # sums to 11
    with pytest.raises(ValueError):
        s.partition([-1, 11])


def test_weighted_primary_sets():
    grid = HexGrid(7, 7, wrap=True)
    pattern = ReusePattern(grid, 7)
    s = Spectrum(70)
    weights = {0: 22, 1: 8, 2: 8, 3: 8, 4: 8, 5: 8, 6: 8}
    pr = s.primary_sets(pattern, weights)
    for cell in grid:
        assert len(pr[cell]) == weights[pattern.color(cell)]
    # Interfering cells still have disjoint primaries.
    im = grid.interference_map(2)
    for cell in grid:
        for other in im[cell]:
            assert not (pr[cell] & pr[other])


def test_weighted_primary_sets_validation():
    grid = HexGrid(7, 7, wrap=True)
    pattern = ReusePattern(grid, 7)
    s = Spectrum(70)
    with pytest.raises(ValueError, match="cover colors"):
        s.primary_sets(pattern, {0: 70})


def test_weighted_topology_end_to_end():
    weights = {0: 16, 1: 9, 2: 9, 3: 9, 4: 9, 5: 9, 6: 9}
    topo = CellularTopology(
        7, 7, num_channels=70, wrap=True, channels_per_color=weights
    )
    sizes = {len(topo.PR(c)) for c in topo.grid}
    assert sizes == {16, 9}


def test_weighted_scenario_runs_and_serializes():
    from repro.harness import Scenario, run_scenario

    weights = {0: 16, 1: 9, 2: 9, 3: 9, 4: 9, 5: 9, 6: 9}
    s = Scenario(
        scheme="fixed",
        channels_per_color=weights,
        offered_load=4.0,
        duration=500.0,
        warmup=100.0,
        mean_holding=60.0,
        seed=3,
    )
    rep = run_scenario(s)
    assert rep.violations == 0
    restored = Scenario.from_json(s.to_json())
    assert restored.channels_per_color == weights
