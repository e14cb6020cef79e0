"""Tests for the a-priori occupancy model (ξ)."""

import dataclasses

import pytest

from repro.analysis.occupancy import predict_xi


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
