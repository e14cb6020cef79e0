"""Unit tests for reuse patterns and spectrum partitioning."""

import pytest

from repro.cellular import (
    CellularTopology,
    HexGrid,
    ReusePattern,
    Spectrum,
    cluster_shift,
    valid_cluster_sizes,
)


def test_valid_cluster_sizes_prefix():
    assert valid_cluster_sizes(13) == [1, 3, 4, 7, 9, 12, 13]


def test_cluster_shift_known_values():
    for k in (1, 3, 4, 7, 9, 12, 13, 19, 21):
        i, j = cluster_shift(k)
        assert i * i + i * j + j * j == k


def test_cluster_shift_invalid_k():
    for k in (2, 5, 6, 8, 10, 11):
        with pytest.raises(ValueError):
            cluster_shift(k)


def test_reuse_pattern_k7_has_seven_colors():
    g = HexGrid(7, 7, wrap=True)
    p = ReusePattern(g, 7)
    assert len(set(p.colors.values())) == 7
    # Balanced: each color appears 49/7 = 7 times
    for color in range(7):
        assert len(p.cells_of_color(color)) == 7


def test_reuse_pattern_neighbors_differ_in_color():
    g = HexGrid(7, 7, wrap=True)
    p = ReusePattern(g, 7)
    for cell in g:
        for n in g.neighbors(cell):
            assert p.color(cell) != p.color(n)


def test_same_color_cells_beyond_interference_radius():
    g = HexGrid(7, 7, wrap=True)
    p = ReusePattern(g, 7)
    for a in g:
        for b in g:
            if a < b and p.color(a) == p.color(b):
                assert g.distance(a, b) >= 3


def test_min_cochannel_distance_values():
    g = HexGrid(12, 12, wrap=False)
    assert ReusePattern(g, 7).min_cochannel_distance() == 3
    assert ReusePattern(g, 3).min_cochannel_distance() == 2
    assert ReusePattern(g, 4).min_cochannel_distance() == 2
    assert ReusePattern(g, 9).min_cochannel_distance() == 3
    assert ReusePattern(g, 12).min_cochannel_distance() == 4


def test_incompatible_torus_rejected():
    # 8x8 torus is not a multiple of the k=7 reuse lattice.
    g = HexGrid(8, 8, wrap=True)
    with pytest.raises(ValueError, match="incompatible"):
        ReusePattern(g, 7)


def test_compatible_tori():
    ReusePattern(HexGrid(7, 7, wrap=True), 7)
    ReusePattern(HexGrid(14, 14, wrap=True), 7)
    ReusePattern(HexGrid(6, 6, wrap=True), 3)
    ReusePattern(HexGrid(6, 6, wrap=True), 4)  # (2,0): even dims work


def test_k9_coloring_with_gcd_shift():
    # k=9 has shift (3, 0) with gcd 3 — exercises the lattice-reduction
    # path where simple modular formulas fail.
    g = HexGrid(9, 9, wrap=True)
    p = ReusePattern(g, 9)
    assert len(set(p.colors.values())) == 9
    for a in g:
        for b in g:
            if a < b and p.color(a) == p.color(b):
                assert g.distance(a, b) >= 3


def test_spectrum_balanced_partition():
    s = Spectrum(70)
    sets = [s.channels_of_color(c, 7) for c in range(7)]
    assert all(len(x) == 10 for x in sets)
    union = frozenset().union(*sets)
    assert union == s.all_channels
    for i in range(7):
        for j in range(i + 1, 7):
            assert not (sets[i] & sets[j])


def test_spectrum_uneven_partition():
    s = Spectrum(71)
    sizes = sorted(len(s.channels_of_color(c, 7)) for c in range(7))
    assert sizes == [10] * 6 + [11]
    assert sum(sizes) == 71


def test_spectrum_invalid():
    with pytest.raises(ValueError):
        Spectrum(0)
    with pytest.raises(ValueError):
        Spectrum(10).channels_of_color(7, 7)


def test_primary_sets_cover_spectrum_within_cluster():
    g = HexGrid(7, 7, wrap=True)
    p = ReusePattern(g, 7)
    s = Spectrum(70)
    pr = s.primary_sets(p)
    # A cell plus its interference region covers... each color appears at
    # least once in {cell} ∪ IN for radius 2 and k=7, so the union of
    # primaries over any 1-cluster neighborhood is the whole spectrum.
    im = g.interference_map(2)
    for cell in g:
        covered = set(pr[cell])
        for other in im[cell]:
            covered |= pr[other]
        assert covered == set(s.all_channels)


def test_topology_defaults():
    topo = CellularTopology(7, 7, num_channels=70, cluster_size=7, wrap=True)
    assert topo.num_cells == 49
    assert topo.num_channels == 70
    assert topo.interference_radius == 2
    for cell in topo.grid:
        assert len(topo.IN(cell)) == 18
        assert len(topo.PR(cell)) == 10
        assert cell not in topo.IN(cell)


def test_topology_primary_disjoint_within_interference():
    topo = CellularTopology(7, 7, num_channels=70, wrap=True)
    for cell in topo.grid:
        for other in topo.IN(cell):
            assert not (topo.PR(cell) & topo.PR(other))


def test_topology_describe_mentions_shape():
    topo = CellularTopology(7, 7, num_channels=70, wrap=True)
    text = topo.describe()
    assert "7x7" in text and "70 channels" in text and "k=7" in text
