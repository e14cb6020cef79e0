"""Unit tests for hexagonal grid geometry."""

import numpy as np
import pytest

from repro.cellular import Hex, HexGrid, hex_distance


def test_hex_cube_invariant():
    h = Hex(3, -5)
    assert h.q + h.r + h.s == 0


def test_hex_distance_axioms():
    a, b, c = Hex(0, 0), Hex(2, -1), Hex(-3, 4)
    assert hex_distance(a, a) == 0
    assert hex_distance(a, b) == hex_distance(b, a)
    assert hex_distance(a, c) <= hex_distance(a, b) + hex_distance(b, c)


def test_hex_distance_known_values():
    origin = Hex(0, 0)
    assert hex_distance(origin, Hex(1, 0)) == 1
    assert hex_distance(origin, Hex(0, 1)) == 1
    assert hex_distance(origin, Hex(1, -1)) == 1
    assert hex_distance(origin, Hex(1, 1)) == 2
    assert hex_distance(origin, Hex(2, -1)) == 2
    assert hex_distance(origin, Hex(2, 1)) == 3  # k=7 co-channel shift


def test_hex_neighbors_are_all_at_distance_one():
    h = Hex(4, -2)
    nbrs = h.neighbors()
    assert len(nbrs) == 6
    assert len(set(nbrs)) == 6
    assert all(hex_distance(h, n) == 1 for n in nbrs)


def test_hex_add_sub():
    assert Hex(1, 2) + Hex(3, -1) == Hex(4, 1)
    assert Hex(1, 2) - Hex(3, -1) == Hex(-2, 3)


def test_grid_dimensions_and_ids():
    g = HexGrid(3, 4)
    assert g.num_cells == 12
    assert len(g) == 12
    assert list(g) == list(range(12))
    # Round trip id <-> coord
    for cell in g:
        assert g.cell_at(g.coord(cell)) == cell


def test_grid_invalid_dimensions():
    with pytest.raises(ValueError):
        HexGrid(0, 5)
    with pytest.raises(ValueError):
        HexGrid(5, -1)


def test_unwrapped_interior_cell_has_six_neighbors():
    g = HexGrid(5, 5, wrap=False)
    center = g.cell_at(Hex(2, 2))
    assert len(g.neighbors(center)) == 6


def test_unwrapped_corner_cell_has_fewer_neighbors():
    g = HexGrid(5, 5, wrap=False)
    corner = g.cell_at(Hex(0, 0))
    assert len(g.neighbors(corner)) < 6


def test_wrapped_grid_every_cell_has_six_neighbors():
    g = HexGrid(7, 7, wrap=True)
    for cell in g:
        nbrs = g.neighbors(cell)
        assert len(nbrs) == 6
        assert len(set(nbrs)) == 6


def test_wrapped_neighbor_symmetry():
    g = HexGrid(7, 7, wrap=True)
    for cell in g:
        for n in g.neighbors(cell):
            assert cell in g.neighbors(n)


def test_wrapped_distance_symmetry():
    g = HexGrid(6, 6, wrap=True)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.integers(0, g.num_cells, size=2)
        assert g.distance(int(a), int(b)) == g.distance(int(b), int(a))


def test_wrapped_distance_never_exceeds_planar():
    planar = HexGrid(9, 9, wrap=False)
    torus = HexGrid(9, 9, wrap=True)
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = (int(x) for x in rng.integers(0, 81, size=2))
        assert torus.distance(a, b) <= planar.distance(a, b)


def test_cell_at_outside_unwrapped_grid_raises():
    g = HexGrid(3, 3, wrap=False)
    with pytest.raises(KeyError):
        g.cell_at(Hex(10, 10))


def test_cell_at_wraps_on_torus():
    g = HexGrid(3, 3, wrap=True)
    assert g.cell_at(Hex(3, 0)) == g.cell_at(Hex(0, 0))
    assert g.cell_at(Hex(-1, -1)) == g.cell_at(Hex(2, 2))


def test_ring_and_disk_consistency():
    g = HexGrid(9, 9, wrap=True)
    center = 40
    disk2 = set(g.disk(center, 2))
    assert disk2 == {c for c in g if 1 <= g.distance(center, c) <= 2}
    assert center not in disk2


def test_ring_sizes_on_torus():
    g = HexGrid(9, 9, wrap=True)
    assert len(g.disk(0, 1)) == 6
    assert len(set(g.disk(0, 2)) - set(g.disk(0, 1))) == 12


def test_interference_region_two_rings():
    g = HexGrid(7, 7, wrap=True)
    region = g.interference_region(0, 2)
    assert len(region) == 18  # 6 + 12
    assert all(1 <= g.distance(0, c) <= 2 for c in region)


def test_interference_region_symmetric():
    g = HexGrid(7, 7, wrap=True)
    im = g.interference_map(2)
    for i in g:
        for j in im[i]:
            assert i in im[j]


def test_interference_region_torus_too_small():
    g = HexGrid(4, 4, wrap=True)
    with pytest.raises(ValueError):
        g.interference_region(0, 2)


def test_interference_region_cached():
    g = HexGrid(7, 7, wrap=True)
    assert g.interference_region(3, 2) is g.interference_region(3, 2)


def test_random_walk_step_is_adjacent():
    g = HexGrid(7, 7, wrap=True)
    rng = np.random.default_rng(2)
    cell = 24
    for _ in range(20):
        nxt = g.random_walk_step(cell, rng)
        assert nxt in g.neighbors(cell)
        cell = nxt


def test_random_walk_on_single_cell_grid():
    g = HexGrid(1, 1, wrap=False)
    rng = np.random.default_rng(0)
    assert g.random_walk_step(0, rng) == 0
