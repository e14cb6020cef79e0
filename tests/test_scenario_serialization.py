"""Tests for Scenario (de)serialization and the --config CLI path."""

import json

import pytest

from repro.harness import Scenario
from repro.traffic import (
    HotspotLoad,
    PiecewiseLoad,
    RampLoad,
    TemporalHotspot,
    UniformLoad,
)


def test_round_trip_defaults():
    s = Scenario()
    restored = Scenario.from_json(s.to_json())
    assert restored == s


def test_round_trip_with_overrides():
    s = Scenario(scheme="basic_update", offered_load=9.5, seed=42,
                 alpha=4, mean_dwell=120.0, latency_spread=1.5)
    assert Scenario.from_dict(s.to_dict()) == s


@pytest.mark.parametrize(
    "pattern",
    [
        UniformLoad(0.05),
        HotspotLoad(0.01, [3, 4], 0.2),
        TemporalHotspot(0.01, [7], 0.3, start=10, end=50),
        RampLoad(0.0, 0.1, duration=100),
        PiecewiseLoad({0: 0.1, 5: 0.2}, default=0.01),
    ],
    ids=lambda p: type(p).__name__,
)
def test_round_trip_patterns(pattern):
    s = Scenario(pattern=pattern)
    restored = Scenario.from_json(s.to_json())
    # Patterns don't define __eq__; compare behaviorally.
    for cell in (0, 3, 5, 7, 20):
        for t in (0.0, 25.0, 200.0):
            assert restored.pattern.rate(cell, t) == s.pattern.rate(cell, t)
        assert restored.pattern.max_rate(cell) == s.pattern.max_rate(cell)


def test_unknown_field_rejected():
    with pytest.raises(ValueError, match="unknown scenario fields"):
        Scenario.from_dict({"bogus_field": 1})


def test_fastlane_is_a_format_constant_not_a_field():
    # The lane is gone; its key stays in every v2 scenario JSON (snapshots,
    # result-cache keys), always false.
    text = Scenario(seed=3, fifo=False).to_json()
    assert json.loads(text)["fastlane"] is False
    assert Scenario.from_json(text).to_json() == text
    with pytest.raises(ValueError, match="fast lane was removed"):
        Scenario.from_json(text.replace('"fastlane": false', '"fastlane": true'))
    with pytest.raises(TypeError):
        Scenario(fastlane=False)


def test_json_is_valid_and_sorted():
    text = Scenario(seed=3).to_json()
    data = json.loads(text)
    assert data["seed"] == 3
    assert list(data) == sorted(data)


def test_cli_config_round_trip(tmp_path, capsys):
    from repro.__main__ import main

    config = tmp_path / "scenario.json"
    s = Scenario(scheme="fixed", offered_load=2.0, duration=400.0,
                 warmup=100.0, seed=7)
    config.write_text(s.to_json())

    rc = main(["--config", str(config), "--scheme", "fixed", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["scheme"] == "fixed"


def test_cli_dump_config(capsys):
    from repro.__main__ import main

    rc = main(["--scheme", "adaptive", "--load", "6", "--dump-config"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["offered_load"] == 6.0
    assert data["scheme"] == "adaptive"
