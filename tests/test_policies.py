"""Mode-policy registry: round trips, cache hygiene, snapshots.

The contracts under test (docs/POLICIES.md):

* **Registry round trip** — every registered policy reconstructs from
  its scenario fields after a JSON round trip, and its mutable state
  survives ``state_dict``/``load_state`` the same way.
* **Cache hygiene** — ``policy`` and the parameters every policy
  receives (θ_l, θ_h, W) participate in the result-cache key, so two
  scenarios differing only in policy can never alias a cached row.
* **Snapshot round trip** — a mid-run checkpoint taken under any
  policy resumes row-identically to never having snapshotted (the
  format-v2 opaque policy state actually carries the policy's memory).
"""

import json

import pytest

from conftest import report_row
from repro.harness import Scenario, run_scenario
from repro.harness.cache import cache_key
from repro.policies import make_policy, policy_names, policy_spec
from repro.snap import run_from_snapshot, run_to_checkpoint

#: Station-derived context every policy receives (paper defaults).
CONTEXT = dict(
    cell=7,
    theta_low=1.0,
    theta_high=3.0,
    window=30.0,
    horizon=2.0,
    initial=10,
)


def small(**overrides):
    defaults = dict(
        scheme="adaptive",
        offered_load=5.0,
        duration=160.0,
        warmup=40.0,
        seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


# -- registry ---------------------------------------------------------------


def test_registry_ships_the_two_documented_policies():
    assert policy_names() == ["linear", "quantile"]


def test_unknown_policy_is_a_value_error():
    with pytest.raises(ValueError, match="unknown policy"):
        policy_spec("nope")
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("nope", **CONTEXT)


@pytest.mark.parametrize("name", policy_names())
def test_config_round_trip(name):
    """Scenario JSON -> make_policy reconstructs the policy it names."""
    scenario = Scenario.from_json(small(policy=name).to_json())
    policy = make_policy(scenario.policy, **CONTEXT)
    assert type(policy) is policy_spec(name)
    assert policy.state_dict() == make_policy(name, **CONTEXT).state_dict()
    assert getattr(policy, "q", None) == (0.25 if name == "quantile" else None)


@pytest.mark.parametrize("name", policy_names())
def test_state_dict_round_trip(name):
    """Mutable state survives state_dict -> JSON -> load_state."""
    policy = make_policy(name, **CONTEXT)
    borrowing = False
    for t, s in [(0.0, 10), (4.0, 6), (9.0, 2), (15.0, 0), (22.0, 5)]:
        answer = policy.decide(t, s, borrowing)
        if answer is not None:
            borrowing = answer
    state = json.loads(json.dumps(policy.state_dict()))
    rebuilt = make_policy(name, **CONTEXT)
    rebuilt.load_state(state)
    assert rebuilt.state_dict() == policy.state_dict()
    # The restored policy predicts and decides exactly like the
    # original from here on.
    assert rebuilt.predict_at(30.0) == policy.predict_at(30.0)
    assert rebuilt.decide(30.0, 4, borrowing) == policy.decide(
        30.0, 4, borrowing
    )


def test_quantile_prediction_forgets_samples_older_than_the_window():
    """``predict_at(t)`` reads the window at ``t``: a dip that slid out
    during a quiet gap longer than W no longer counts, and reading it
    changes nothing."""
    policy = make_policy("quantile", **CONTEXT)
    for t, s in [(0.0, 10), (1.0, 0), (2.0, 10)]:
        policy.decide(t, s, borrowing=False)
    assert policy.predict_at(2.0) == 0.0
    state = policy.state_dict()
    assert policy.predict_at(2.0 + 2 * CONTEXT["window"]) == 10.0
    assert policy.state_dict() == state


# -- cache hygiene ----------------------------------------------------------


def test_cache_key_separates_policies_and_params():
    base = small()
    keys = {
        cache_key(base),
        cache_key(base.with_(policy="quantile")),
        cache_key(base.with_(policy="quantile", theta_low=0.5)),
    }
    assert len(keys) == 3


def test_scenario_json_round_trips_policy_fields():
    scenario = small(policy="quantile", window=20.0)
    restored = Scenario.from_json(scenario.to_json())
    assert restored.policy == "quantile"
    assert restored.window == 20.0
    assert cache_key(restored) == cache_key(scenario)


# -- default behavior -------------------------------------------------------


def test_default_policy_is_linear_and_row_identical():
    """An explicit policy="linear" is the default, bit for bit."""
    default = run_scenario(small())
    explicit = run_scenario(small(policy="linear"))
    assert report_row(default) == report_row(explicit)


# -- snapshot round trip ----------------------------------------------------


@pytest.mark.parametrize("name", policy_names())
def test_midrun_checkpoint_resumes_row_identically(name):
    scenario = small(policy=name)
    cold = report_row(run_scenario(scenario))
    snapshot = run_to_checkpoint(scenario, at=80.0)
    resumed = report_row(run_from_snapshot(snapshot))
    assert resumed == cold
