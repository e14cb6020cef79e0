"""Tests for the a-priori occupancy model (truncated Poisson, ξ)."""

import dataclasses
import math

import pytest

from repro.analysis.occupancy import predict_xi, truncated_poisson_pmf
from repro.analysis import erlang_b


def test_pmf_sums_to_one():
    for a, c in [(0.5, 3), (5.0, 10), (50.0, 40)]:
        pmf = truncated_poisson_pmf(a, c)
        assert sum(pmf.values()) == pytest.approx(1.0)
        assert set(pmf) == set(range(c + 1))


def test_pmf_top_state_equals_erlang_b():
    for a, c in [(1.0, 1), (5.0, 10), (12.0, 10)]:
        pmf = truncated_poisson_pmf(a, c)
        assert pmf[c] == pytest.approx(erlang_b(a, c), rel=1e-9)


def test_pmf_zero_load_concentrates_at_zero():
    pmf = truncated_poisson_pmf(0.0, 5)
    assert pmf[0] == 1.0
    assert all(pmf[k] == 0 for k in range(1, 6))


def test_pmf_matches_direct_formula():
    a, c = 4.2, 7
    pmf = truncated_poisson_pmf(a, c)
    denom = sum(a**j / math.factorial(j) for j in range(c + 1))
    for k in range(c + 1):
        assert pmf[k] == pytest.approx((a**k / math.factorial(k)) / denom)


def test_pmf_validation():
    with pytest.raises(ValueError):
        truncated_poisson_pmf(-1, 5)
    with pytest.raises(ValueError):
        truncated_poisson_pmf(1, -5)


def test_predict_xi_fractions_form_distribution():
    for load in (0.5, 3.0, 7.0, 12.0):
        p = predict_xi(load)
        total = p.xi_local + p.xi_update + p.xi_search
        assert total == pytest.approx(1.0)
        assert 0 <= p.xi_local <= 1
        assert 0 <= p.xi_update <= 1
        assert 0 <= p.xi_search <= 1


def test_predict_xi_monotone_trends():
    loads = [1.0, 3.0, 5.0, 7.0, 9.0, 12.0]
    preds = [predict_xi(a) for a in loads]
    locals_ = [p.xi_local for p in preds]
    assert locals_ == sorted(locals_, reverse=True)
    searches = [p.xi_search for p in preds]
    assert searches == sorted(searches)


def test_predict_xi_matches_simulation_at_low_and_moderate_load():
    """The model's strong regime: borrowing is rare and search rarer.

    At high load the model underestimates ξ₃ (it ignores α-exhaustion
    under contention — documented), so the sharp check stays below the
    knee of the curve.
    """
    from repro import Scenario, run_scenario

    for load in (3.0, 5.0):
        predicted = predict_xi(load)
        rep = run_scenario(
            Scenario(
                scheme="adaptive",
                offered_load=load,
                duration=1500.0,
                warmup=300.0,
                seed=11,
            )
        )
        assert rep.xi["local"] == pytest.approx(predicted.xi_local, abs=0.02)
        assert rep.xi["search"] <= 0.01


def test_predict_xi_validation_and_dict():
    with pytest.raises(ValueError):
        predict_xi(-1)
    d = dataclasses.asdict(predict_xi(5.0))
    assert set(d) == {"xi_local", "xi_update", "xi_search"}
