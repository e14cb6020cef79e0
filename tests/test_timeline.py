"""Tests for mode timelines: the recorder's mode column and its renderer."""

import pytest

from repro.harness import Scenario, build_simulation
from repro.obs import TimeSeriesRecorder, borrowing_fraction, mode_timeline
from repro.traffic import TemporalHotspot


def sampled(scenario, interval):
    """The run's time series, sampled every ``interval``."""
    sim = build_simulation(scenario.with_(obs=interval))
    return sim.run().obs.series


def test_sampler_validation():
    sim = build_simulation(Scenario(duration=200.0, warmup=50.0))
    with pytest.raises(ValueError):
        TimeSeriesRecorder(sim.env, sim.stations, interval=0, horizon=200.0)


def test_sampler_counts_and_glyphs():
    scenario = Scenario(
        scheme="adaptive",
        offered_load=2.0,
        duration=400.0,
        warmup=50.0,
        mean_holding=60.0,
        seed=21,
    )
    series = sampled(scenario, 40.0)
    assert len(series["times"]) == 10  # 0, 40, ..., 360
    assert all(len(c["mode"]) == 10 for c in series["cells"].values())
    lines = mode_timeline(series, cells=[0, 1])
    assert len(lines) == 3
    assert "." in "\n".join(lines)


def test_borrowing_fraction_tracks_hotspot():
    pattern = TemporalHotspot(
        base_rate=1.0 / 60.0 / 10,  # near idle baseline
        hot_cells=[24],
        hot_rate=18.0 / 60.0,
        start=100.0,
        end=500.0,
    )
    scenario = Scenario(
        scheme="adaptive",
        pattern=pattern,
        mean_holding=60.0,
        duration=700.0,
        warmup=0.0,
        seed=23,
    )
    cells = sampled(scenario, 20.0)["cells"]
    assert borrowing_fraction(cells[24]["mode"]) > 0.3
    assert borrowing_fraction(cells[0]["mode"]) < 0.1
    # Per sample, the fraction of cells borrowing.
    system = [
        borrowing_fraction(sample)
        for sample in zip(*(c["mode"] for c in cells.values()))
    ]
    assert max(system) > 0.05
    assert system[0] == 0.0  # idle at start


def test_sampler_on_modeless_scheme():
    scenario = Scenario(
        scheme="fixed", offered_load=3.0, duration=200.0, warmup=50.0,
        mean_holding=60.0,
    )
    cells = sampled(scenario, 50.0)["cells"]
    assert all(borrowing_fraction(c["mode"]) == 0.0 for c in cells.values())


def test_empty_timeline_renders():
    assert mode_timeline({}) == ["(no time-series samples)"]
