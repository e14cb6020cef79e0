"""Tests for Scenario (de)serialization and the --config CLI path."""

import gzip
import json
import pathlib

import pytest

from repro.faults import FaultPlan
from repro.faults import plan as fault_plan
from repro.harness import Scenario
from repro.harness import config
from repro.snap import Snapshot
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


#: A scenario JSON the parent commit wrote, fault plan included.
PARENT_WRITTEN = Snapshot.from_bytes(gzip.decompress(
    (pathlib.Path(__file__).parent / "data" / "snapshots_b425d78" / "adaptive-faults.snap.gz")
    .read_bytes()
)).scenario_json

#: (section, key, constant, reason) of every key retired from the v2 JSON.
RETIRED_KEYS = [
    (section, key, constant, reason)
    for section, table in (("scenario", config.RETIRED), ("faults", fault_plan.RETIRED))
    for key, (constant, reason) in table.items()
]


@pytest.mark.parametrize(
    "section, key, constant, reason", RETIRED_KEYS, ids=[k for _s, k, _c, _r in RETIRED_KEYS]
)
def test_a_retired_key_is_a_format_constant_not_a_field(section, key, constant, reason):
    # The field is gone; its key stays in every v2 scenario JSON
    # (snapshots, result-cache keys), always at its constant.
    def at(data):
        return data if section == "scenario" else data["faults"]

    fresh = Scenario(seed=3, fifo=False, faults=FaultPlan(drop_prob=0.1)).to_json()
    for text in (PARENT_WRITTEN, fresh):
        value = at(json.loads(text))[key]
        assert value == constant and type(value) is type(constant)
        assert Scenario.from_json(text).to_json() == text
    for other in (True, 7, 0.5, "other", {"q": 0.1}, None):
        if other == constant:
            continue
        data = json.loads(PARENT_WRITTEN)
        at(data)[key] = other
        with pytest.raises(ValueError, match=key) as refused:
            Scenario.from_dict(data)
        assert reason in str(refused.value)
    if section == "scenario":
        with pytest.raises(TypeError):
            Scenario(**{key: constant})
        with pytest.raises(TypeError):
            Scenario().with_(**{key: constant})
    else:
        with pytest.raises(TypeError):
            FaultPlan(**{key: constant})


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
