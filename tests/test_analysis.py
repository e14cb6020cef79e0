"""Unit tests for the §5 analytical models and Erlang-B theory."""

import math

import pytest

from repro.analysis import (
    MODELS,
    ModelParams,
    adaptive,
    advanced_update,
    basic_search,
    basic_update,
    bounds_table,
    erlang_b,
    low_load_table,
    offered_load_for_blocking,
)
from repro.harness import Scenario, run_scenario


# ------------------------------------------------------------- Table 1 ----
def test_basic_search_costs_are_load_independent():
    p = ModelParams(N=18, N_search=3, m=2, alpha=4, xi1=0.2, xi2=0.5, xi3=0.3)
    assert basic_search.message_complexity(p) == 36
    assert basic_search.acquisition_time(p) == 4  # (3+1)·T


def test_basic_update_costs_grow_with_attempts():
    p1 = ModelParams(N=18, m=1, alpha=4, xi1=0, xi2=1, xi3=0)
    p3 = ModelParams(N=18, m=3, alpha=4, xi1=0, xi2=1, xi3=0)
    assert basic_update.message_complexity(p1) == 2 * 18 + 2 * 18
    assert basic_update.message_complexity(p3) == 6 * 18 + 2 * 18
    assert basic_update.acquisition_time(p3) == 6


def test_advanced_update_all_local_collapses_to_broadcasts():
    p = ModelParams(N=18, n_p=3, m=1, alpha=2, xi1=1.0, xi2=0.0, xi3=0.0)
    assert advanced_update.message_complexity(p) == 2 * 18
    assert advanced_update.acquisition_time(p) == 0


def test_adaptive_all_local_zero_messages_without_borrowers():
    p = ModelParams(N=18, N_borrow=0, m=0, alpha=2, xi1=1, xi2=0, xi3=0)
    assert adaptive.message_complexity(p) == 0
    assert adaptive.acquisition_time(p) == 0


def test_adaptive_local_with_borrowing_neighbors():
    p = ModelParams(N=18, N_borrow=4, m=0, alpha=2, xi1=1, xi2=0, xi3=0)
    assert adaptive.message_complexity(p) == 8  # 2·ξ1·N_borrow


def test_adaptive_mixed_regime_formula():
    p = ModelParams(
        N=18, N_borrow=2, N_search=2, m=1.5, alpha=2,
        xi1=0.5, xi2=0.3, xi3=0.2,
    )
    expected = 2 * 0.5 * 2 + 3 * 0.3 * 1.5 * 18 + 0.2 * (3 * 2 + 4) * 18
    assert adaptive.message_complexity(p) == pytest.approx(expected)
    expected_t = (2 * 1.5 * 0.3 + (2 * 2 + 2 + 1) * 0.2) * 1.0
    assert adaptive.acquisition_time(p) == pytest.approx(expected_t)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(xi1=0.5, xi2=0.2, xi3=0.2)  # doesn't sum to 1
    with pytest.raises(ValueError):
        ModelParams(m=5, alpha=2)


# ------------------------------------------------------------- Table 2 ----
def test_low_load_table_matches_paper():
    t2 = low_load_table(N=18, n_p=3, T=1.0)
    assert t2["basic_search"] == {"messages": 36, "time": 2}
    assert t2["basic_update"] == {"messages": 72, "time": 2}  # 4N / 2T
    assert t2["advanced_update"] == {"messages": 36, "time": 0}  # 2N / 0
    assert t2["adaptive"] == {"messages": 0, "time": 0}


# ------------------------------------------------------------- Table 3 ----
def test_bounds_table_matches_paper():
    t3 = bounds_table(N=18, alpha=2, T=1.0)
    inf = float("inf")
    assert t3["basic_search"] == {
        "msg_min": 36, "msg_max": 36, "time_min": 2, "time_max": 19,
    }
    assert t3["basic_update"]["msg_min"] == 36
    assert t3["basic_update"]["msg_max"] == inf
    assert t3["basic_update"]["time_max"] == inf
    assert t3["advanced_update"]["msg_min"] == 18  # N
    assert t3["advanced_update"]["time_min"] == 0
    assert t3["adaptive"] == {
        "msg_min": 0,
        "msg_max": 2 * 2 * 18 + 4 * 18,  # 2αN + 4N
        "time_min": 0,
        "time_max": (2 * 2 * 18 + 1) * 1.0,  # (2αN + 1)T
    }


def test_models_registry_covers_all_schemes():
    assert set(MODELS) == {
        "fixed", "basic_search", "basic_update", "advanced_update", "adaptive",
    }


# ------------------------------------- Tables 1 and 2 against the simulator ----
@pytest.mark.parametrize("scheme", sorted(MODELS))
def test_table1_messages_match_the_simulator_at_general_load(scheme):
    """The T1 anchor (benchmarks/test_table1_general.py: 7x7, 7.5 Erlang),
    shortened to 2000 units with 600 of warm-up — a shorter warm-up leaves
    the adaptive row in its start-up transient, +40 % and more.  Measured
    here, seeds 1-3, (sim - model) / model: basic_search +0.1 / +0.1 /
    -0.1 %, advanced_update +8.5 / +8.1 / +8.7 %, basic_update -12.9 /
    -15.3 / -13.8 %, adaptive +19.3 / +16.7 / +10.1 % (seed 13: +28.9 %);
    EXPERIMENTS.md T1 reads 0, +9, -13, +22 % at full length.  The
    formulas leave out CHANGE_MODE chatter and per-call releases."""
    model = MODELS[scheme]
    for seed in (1, 2, 3):
        report = run_scenario(
            Scenario(scheme=scheme, offered_load=7.5, duration=2000.0, warmup=600.0, seed=seed)
        )
        predicted = model.message_complexity(model.measured_params(report, 18))  # |IN| = 18
        assert report.violations == 0
        assert report.messages_per_acquisition == pytest.approx(predicted, rel=0.30)


@pytest.mark.parametrize("scheme", ["adaptive", "fixed"])
def test_table2_no_messages_at_low_load(scheme):
    report = run_scenario(
        Scenario(scheme=scheme, offered_load=1.0, duration=2000.0, warmup=600.0, seed=1)
    )
    assert report.offered > 300
    assert report.messages_total == 0 == low_load_table()[scheme]["messages"]


# ------------------------------------------------------------ Erlang-B ----
def test_erlang_b_known_values():
    # Classic reference points.
    assert erlang_b(1.0, 1) == pytest.approx(0.5)
    assert erlang_b(2.0, 2) == pytest.approx(0.4)
    # A=10, c=10 → ≈ 0.2146
    assert erlang_b(10.0, 10) == pytest.approx(0.21459, abs=1e-4)
    # Light load, many servers → tiny blocking.
    assert erlang_b(1.0, 10) < 1e-6


def test_erlang_b_monotone_in_load_and_servers():
    loads = [1, 2, 5, 10, 20]
    blocks = [erlang_b(a, 10) for a in loads]
    assert blocks == sorted(blocks)
    servers = [1, 2, 5, 10, 20]
    blocks_s = [erlang_b(5.0, c) for c in servers]
    assert blocks_s == sorted(blocks_s, reverse=True)


def test_erlang_b_edge_cases():
    assert erlang_b(0.0, 5) == 0.0
    assert erlang_b(5.0, 0) == 1.0
    with pytest.raises(ValueError):
        erlang_b(-1, 5)
    with pytest.raises(ValueError):
        erlang_b(1, -5)


def test_erlang_b_matches_direct_formula():
    # Direct formula: B = (A^c/c!) / sum_k A^k/k!
    A, c = 7.3, 9
    direct = (A**c / math.factorial(c)) / sum(
        A**k / math.factorial(k) for k in range(c + 1)
    )
    assert erlang_b(A, c) == pytest.approx(direct)


def test_inverse_erlang_b_round_trip():
    for target in (0.01, 0.1, 0.3):
        a = offered_load_for_blocking(target, 10)
        assert erlang_b(a, 10) == pytest.approx(target, rel=1e-6)


def test_inverse_erlang_b_validation():
    with pytest.raises(ValueError):
        offered_load_for_blocking(0.0, 10)
    with pytest.raises(ValueError):
        offered_load_for_blocking(1.0, 10)
