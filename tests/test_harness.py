"""Unit tests for scenario config, runner and table rendering."""

import pytest

from repro.harness import (
    SCHEMES,
    Scenario,
    build_simulation,
    render_table,
    run_replications,
    run_scenario,
)
from repro.traffic import HotspotLoad, PiecewiseLoad, TemporalHotspot


def quick(**kw):
    base = dict(duration=600.0, warmup=100.0, offered_load=3.0, seed=2)
    base.update(kw)
    return Scenario(**base)


def test_scenario_defaults_are_paper_scale():
    s = Scenario()
    assert s.rows == s.cols == 7
    assert s.num_channels == 70
    assert s.cluster_size == 7
    assert s.wrap


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(duration=100, warmup=100)
    with pytest.raises(ValueError):
        Scenario(offered_load=-1)
    with pytest.raises(ValueError):
        Scenario(mean_holding=0)
    with pytest.raises(ValueError, match="mean_dwell must be a number, got nan"):
        Scenario.from_dict({"mean_dwell": float("nan")})


def test_arrival_rate_conversion():
    s = Scenario(offered_load=9.0, mean_holding=180.0)
    assert s.arrival_rate == pytest.approx(0.05)


def test_with_override():
    s = Scenario(seed=1)
    s2 = s.with_(seed=9, scheme="fixed")
    assert s2.seed == 9 and s2.scheme == "fixed"
    assert s.seed == 1  # original untouched


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown scheme"):
        build_simulation(quick(scheme="nonesuch"))


@pytest.mark.parametrize(
    "pattern",
    [
        HotspotLoad(0.01, [-1, 24, 49], 0.1),
        TemporalHotspot(0.01, [-1, 24, 49], 0.1, 100.0, 200.0),
        PiecewiseLoad({-1: 0.1, 24: 0.1, 49: 0.1}),
    ],
    ids=lambda pattern: type(pattern).__name__,
)
def test_a_pattern_naming_a_cell_off_the_grid_is_refused(pattern):
    with pytest.raises(ValueError, match=r"names cells \[-1, 49\] outside the 7x7 grid"):
        build_simulation(quick(pattern=pattern))


def test_schemes_registry():
    assert set(SCHEMES) == {
        "fixed", "basic_search", "basic_update", "advanced_update",
        "adaptive", "prakash",
    }


def test_run_scenario_produces_consistent_report():
    rep = run_scenario(quick(scheme="fixed"))
    assert rep.offered == rep.granted + rep.dropped
    assert 0 <= rep.drop_rate <= 1
    assert rep.violations == 0
    assert rep.messages_total == 0  # FCA sends nothing
    assert "fixed" in rep.summary()


def test_determinism_same_seed_same_report():
    a = run_scenario(quick(scheme="adaptive"))
    b = run_scenario(quick(scheme="adaptive"))
    assert a.offered == b.offered
    assert a.drop_rate == b.drop_rate
    assert a.messages_total == b.messages_total
    assert a.mean_acquisition_time == b.mean_acquisition_time


def test_different_seeds_differ():
    a = run_scenario(quick(scheme="adaptive", seed=1))
    b = run_scenario(quick(scheme="adaptive", seed=2))
    assert (a.offered, a.messages_total) != (b.offered, b.messages_total)


def test_replications_use_distinct_seeds():
    reps = run_replications(quick(scheme="fixed"), 3)
    assert len(reps) == 3
    seeds = [r.scenario.seed for r in reps]
    assert seeds == [2, 3, 4]


@pytest.mark.parametrize("n", [0, -3])
def test_replications_below_one_are_refused_before_anything_is_built(n, nothing_constructed):
    with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
        run_replications(quick(scheme="fixed"), n)


def test_xi_fractions_accessor():
    rep = run_scenario(quick(scheme="adaptive", offered_load=6.0))
    xi = rep.xi
    assert set(xi) == {"local", "update", "search"}
    assert 0.99 <= sum(xi.values()) <= 1.01 or sum(xi.values()) == 0


def test_extra_params_forwarded():
    sim = build_simulation(quick(scheme="adaptive", extra_params={"alpha": 7}))
    assert all(s.alpha == 7 for s in sim.stations.values())


def test_uniform_latency_model():
    rep = run_scenario(
        quick(scheme="basic_search", latency_model="uniform", latency_spread=0.5)
    )
    assert rep.violations == 0
    assert rep.mean_acquisition_time > 2.0  # latency at least base T both ways


def test_unknown_latency_model_rejected():
    with pytest.raises(ValueError):
        build_simulation(quick(latency_model="quantum"))


# ----------------------------------------------------------------- tables ----
def test_render_table_alignment_and_title():
    out = render_table(
        ["name", "value"],
        [["alpha", 1.5], ["beta-long-name", 22]],
        title="Table X",
        note="hello",
    )
    lines = out.splitlines()
    assert lines[0] == "Table X"
    assert "name" in lines[2] and "value" in lines[2]
    assert "beta-long-name" in out
    assert "note: hello" in out


def test_render_table_value_formats():
    from repro.harness import format_value

    assert format_value(True) == "yes"
    assert format_value(float("inf")) == "inf"
    assert format_value(float("nan")) == "-"
    assert format_value(0.00001) == "1e-05"
    assert format_value(3.14159) == "3.142"
    assert format_value(1234.5) == "1.23e+03"
    assert format_value("text") == "text"
    assert format_value(0.0) == "0"


def test_render_table_row_width_mismatch():
    with pytest.raises(ValueError):
        render_table(["a"], [[1, 2]])
