"""Scenario result cache: round trip, invalidation, kill switch."""

import os

import pytest

from repro.harness import ResultCache, Scenario, cache_key, code_stamp, run_cells
from repro.harness.cache import default_enabled, resolve_cache
from repro.traffic import UniformLoad


class CustomLoad(UniformLoad):
    """Not in the serialization registry, so scenarios using it are
    uncacheable (and simply always run)."""


def quick(**kw):
    base = dict(
        scheme="fixed", duration=400.0, warmup=100.0, offered_load=4.0,
        mean_holding=60.0, seed=3,
    )
    base.update(kw)
    return Scenario(**base)


def test_different_scenarios_do_not_collide(tmp_path):
    cache = ResultCache(tmp_path)
    run_cells([quick(seed=1)], cache=cache)
    assert cache.get(quick(seed=2)) is None
    assert cache.get(quick(seed=1)) is not None


def stamp(monkeypatch, value):
    """Pretend the ``repro`` sources hash to ``value``."""
    monkeypatch.setattr("repro.harness.cache.code_stamp", lambda: value)


def test_version_salt_invalidates(tmp_path, monkeypatch):
    """A changed code stamp orphans all previous entries."""
    scenario = quick()
    stamp(monkeypatch, "stamp-a")
    old = ResultCache(tmp_path)
    run_cells([scenario], cache=old)
    assert old.stores == 1
    stamp(monkeypatch, "stamp-b")
    new = ResultCache(tmp_path)
    assert new.get(scenario) is None  # stale entry not visible
    assert new.misses == 1
    # Same stamp still hits.
    stamp(monkeypatch, "stamp-a")
    again = ResultCache(tmp_path)
    assert again.get(scenario) is not None


def test_cache_key_is_canonical_and_salted(monkeypatch):
    a = quick()
    assert cache_key(a) == cache_key(quick())
    assert cache_key(a) != cache_key(quick(seed=99))
    stamp(monkeypatch, "x")
    x = cache_key(a)
    stamp(monkeypatch, "y")
    assert x != cache_key(a)


def test_unserializable_scenario_is_uncacheable(tmp_path):
    scenario = quick(pattern=CustomLoad(0.05))
    assert cache_key(scenario) is None
    cache = ResultCache(tmp_path)
    (report,) = run_cells([scenario], cache=cache)
    assert report.offered > 0
    assert cache.stores == 0  # ran, but nothing persisted


def test_repro_cache_off_disables_ambient_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert not default_enabled()
    assert resolve_cache(None) is None
    run_cells([quick()], cache=None)
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_repro_cache_on_routes_to_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert default_enabled()
    cache = resolve_cache(None)
    assert cache is not None and cache.root == tmp_path
    run_cells([quick()], cache=None)
    assert any(tmp_path.rglob("*.pkl"))


def test_explicit_cache_overrides_kill_switch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    cache = ResultCache(tmp_path)
    assert resolve_cache(cache) is cache
    run_cells([quick()], cache=cache)
    assert cache.stores == 1


def test_resolve_cache_knobs(tmp_path):
    # None (ambient), False (off) or a ResultCache: one spelling per choice.
    assert resolve_cache(False) is None
    for knob in (True, str(tmp_path / "c")):
        with pytest.raises(TypeError, match="cache must be None, False or a ResultCache"):
            resolve_cache(knob)
    assert not list(tmp_path.iterdir())


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    scenario = quick()
    run_cells([scenario], cache=cache)
    (entry,) = list(tmp_path.rglob("*.pkl"))
    entry.write_bytes(b"not a pickle")
    fresh = ResultCache(tmp_path)
    assert fresh.get(scenario) is None
    assert fresh.misses == 1


def test_code_stamp_is_stable_within_process():
    assert code_stamp() == code_stamp()
    assert len(code_stamp()) == 16
    int(code_stamp(), 16)  # hex


def test_suite_runs_with_ambient_cache_disabled():
    """conftest sets REPRO_CACHE=off so the suite is hermetic."""
    assert os.environ.get("REPRO_CACHE") == "off"
