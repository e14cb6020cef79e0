"""Cross-topology integration tests: the protocols must be correct on
any valid reuse configuration, not just the paper-scale default."""

import pytest

from repro import Scenario, run_scenario

CONFIGS = [
    # (rows, cols, channels, cluster, wrap, label)
    (6, 6, 36, 3, True, "small k=3 torus"),
    (6, 6, 40, 4, True, "k=4 torus"),
    (7, 7, 35, 7, True, "skinny spectrum k=7"),
    (14, 14, 70, 7, True, "large k=7 torus"),
    (9, 9, 63, 7, False, "planar grid with boundary cells"),
]


@pytest.mark.parametrize(
    "rows,cols,channels,cluster,wrap,label",
    CONFIGS,
    ids=[c[-1] for c in CONFIGS],
)
@pytest.mark.parametrize("scheme", ["fixed", "basic_update", "adaptive"])
def test_scheme_safe_on_topology(rows, cols, channels, cluster, wrap, label, scheme):
    rep = run_scenario(
        Scenario(
            scheme=scheme,
            rows=rows,
            cols=cols,
            num_channels=channels,
            cluster_size=cluster,
            wrap=wrap,
            offered_load=0.55 * channels / cluster,  # ~55% of primaries
            mean_holding=60.0,
            duration=500.0,
            warmup=100.0,
            seed=77,
        )
    )
    assert rep.violations == 0
    assert rep.offered > 50
    assert rep.drop_rate < 0.5


def test_interference_radius_one_configuration():
    # k=3 has co-channel distance 2, so the interference region is
    # radius 1 (the 6 adjacent cells) — a much tighter N than the default.
    rep = run_scenario(
        Scenario(
            scheme="adaptive",
            rows=6,
            cols=6,
            num_channels=36,
            cluster_size=3,
            wrap=True,
            offered_load=8.0,
            mean_holding=60.0,
            duration=600.0,
            warmup=100.0,
            seed=78,
        )
    )
    assert rep.violations == 0
    assert rep.offered > 100


def test_large_grid_scales():
    rep = run_scenario(
        Scenario(
            scheme="adaptive",
            rows=14,
            cols=14,
            num_channels=70,
            offered_load=7.0,
            mean_holding=60.0,
            duration=400.0,
            warmup=100.0,
            seed=79,
        )
    )
    assert rep.violations == 0
    assert rep.offered > 1000  # 196 cells worth of traffic


def test_planar_edge_cells_have_smaller_regions():
    from repro.cellular import CellularTopology

    topo = CellularTopology(9, 9, num_channels=63, wrap=False)
    sizes = {len(topo.IN(c)) for c in topo.grid}
    assert max(sizes) == 18
    assert min(sizes) < 18  # corners see fewer neighbors


@pytest.mark.parametrize("scheme", ["basic_search", "advanced_update", "prakash"])
def test_remaining_schemes_on_nondefault_topology(scheme):
    rep = run_scenario(
        Scenario(
            scheme=scheme,
            rows=6,
            cols=6,
            num_channels=36,
            cluster_size=4,
            wrap=True,
            offered_load=5.0,
            mean_holding=60.0,
            duration=500.0,
            warmup=100.0,
            seed=80,
        )
    )
    assert rep.violations == 0
    assert rep.offered > 100
