"""The capability table, tested from the table.

Two halves, both built from ``repro.harness.capability.CAPABILITIES``
and the per-feature witness map rather than a hand list:

* **the boundary** — every row, on the minimal request built from the
  per-feature witness map (``tests/conftest.py``), fires the one
  validator with the one error type and the row's reason, through every
  library entry point that can express it, and nothing has been
  constructed when it does (the CLI's one-line refusal is
  ``tests/test_cli.py``'s);
* **the cross-lane differential oracle** — Hypothesis draws, for each
  lane, scenarios from every feature the table does not refuse with it;
  every such lane's report and acquisition log are the classic
  kernel's.  Sanitizers raise throughout (the session fixture) and
  ``violations == 0`` is part of the compared row, the hostile fault
  plan included.

Budget: ``max_examples`` below (70 fork, 60 cache, 8×6 workers) draw
every lane × feature pair the table accepts at least three times, in
about a minute on 2 vCPUs.
"""

import inspect
import re
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import WITNESS, report_row, witness_request
from repro.harness import (
    CompatibilityError,
    ResultCache,
    Scenario,
    build_simulation,
    check_compatible,
    run_cells,
    run_scenario,
)
from repro.harness.capability import CAPABILITIES, SCHEMES
from repro.policies.base import policy_names
from repro.snap import SnapshotError, checkpoint, run_from_snapshot, run_to_checkpoint

#: The lanes the oracle checks against the classic kernel.
LANES = ("checkpoint", "workers", "result cache")

#: Adaptive over unordered links broke Theorem 1 at 12 E, seed 30 with
#: the oracle's own random-latency witness; the FIFO row refuses it.
UNORDERED_ADAPTIVE = Scenario(
    scheme="adaptive", offered_load=12.0, seed=30, latency_model="uniform",
    latency_spread=0.5, fifo=False, duration=160.0, warmup=40.0,
)

# -- the boundary -----------------------------------------------------------


def test_every_feature_has_a_witness_and_every_witness_is_drawn_or_named():
    named = {name for pair in CAPABILITIES for name in pair}
    assert named <= set(WITNESS)
    drawn = set(LANES).union(*map(drawable, LANES))
    assert set(WITNESS) <= named | drawn


def entry_points(scenario, lanes, source):
    """Every library call that can express the request, as thunks."""
    lanes = set(lanes)
    # What checkpoint() reads of an already built stack before it validates.
    fake_sim = SimpleNamespace(
        scenario=scenario,
        env=SimpleNamespace(_now=0.0),
        source=SimpleNamespace(_started=False, mix=None if source is None else source.mix),
    )
    if source is not None:
        # A TrafficMix exists only as a live source: checkpoint() takes one.
        return [lambda: checkpoint(fake_sim)] if lanes == {"checkpoint"} else []
    if not lanes:
        return [
            lambda: run_scenario(scenario),
            lambda: run_cells([scenario], cache=False),
            lambda: run_cells([scenario] * 2, workers=2, cache=False),
            lambda: build_simulation(scenario),
        ]
    if lanes == {"checkpoint"}:
        return [
            lambda: run_to_checkpoint(scenario, 0.0),
            lambda: checkpoint(fake_sim),
        ]
    return []


@pytest.mark.parametrize("pair", list(CAPABILITIES), ids=" x ".join)
def test_rejected_row_fires_the_validator_before_anything_is_built(pair, nothing_constructed):
    reason = CAPABILITIES[pair]
    request = witness_request(*pair)
    with pytest.raises(CompatibilityError) as caught:
        check_compatible(**request)
    assert reason in str(caught.value)

    calls = entry_points(**request)
    assert calls, "no entry point can express this row"
    for call in calls:
        with pytest.raises(CompatibilityError) as caught:
            call()
        assert reason in str(caught.value)


def test_unknown_policy_is_refused_before_anything_is_built(nothing_constructed):
    scenario = Scenario(policy="harvest", duration=160.0, warmup=40.0)
    calls = [
        lambda: run_scenario(scenario),
        lambda: run_cells([scenario], cache=False),
        lambda: run_cells([scenario] * 2, workers=2, cache=False),
        lambda: run_to_checkpoint(scenario, 0.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape("available: ['linear', 'quantile']")):
            call()


def test_accepted_request_is_silent():
    # No feature is refused alone.  The default scheme, adaptive, is the
    # FIFO row's other half, so the other witnesses run on fixed.
    for name in WITNESS:
        other = {} if name == "scheme that requires FIFO links" else {"scheme": "fixed"}
        check_compatible(**witness_request(name, **other))


# -- the oracle -------------------------------------------------------------


def row(report):
    """What a lane must reproduce: the report's row and its acquisition log."""
    return report_row(report), report.metrics.records


def accepted(lane, **fields):
    """Does the validator accept ``Scenario(**fields)`` in ``lane``?"""
    try:
        check_compatible(**witness_request(lane, **fields))
    except CompatibilityError:
        return False
    return True


def takes(scheme, fields):
    """Can ``scheme``'s constructor take the extras in ``fields``? (a value
    question — only two schemes have guard channels — not a combination)."""
    parameters = inspect.signature(SCHEMES[scheme].__init__).parameters
    return all(name in parameters for name in fields.get("extra_params", ()))


def drawable(lane):
    """The features a ``lane`` scenario may switch on: every scenario
    witness but the lane itself and the scheme's (the scheme is drawn)."""
    return sorted(
        name for name, witness in WITNESS.items()
        if "scenario" in witness and name not in (lane, "scheme that requires FIFO links")
    )


@st.composite
def scenarios(draw, lane):
    """A scenario the validator accepts in ``lane``: any drawable features,
    any scheme and policy accepted there (one that takes the first
    feature, if one does), any load and seed.  Each feature is kept, in
    drawn order, if the scheme takes it and the table refuses nothing
    it adds to the ones kept before it."""
    names = draw(st.lists(st.sampled_from(drawable(lane)), unique=True))
    wanted = [WITNESS[name]["scenario"] for name in names]
    schemes = [s for s in sorted(SCHEMES) if accepted(lane, scheme=s)]
    first = wanted[0] if wanted else {}
    scheme = draw(st.sampled_from(
        [s for s in schemes if takes(s, first) and accepted(lane, scheme=s, **first)] or schemes
    ))
    fields = dict(
        scheme=scheme,
        offered_load=float(draw(st.integers(1, 12))),
        seed=draw(st.integers(0, 50)),
        duration=160.0,
        warmup=40.0,
    )
    if SCHEMES[scheme].policy_driven:
        fields["policy"] = draw(st.sampled_from([p for p in policy_names() if accepted(lane, policy=p)]))
    for extra in wanted:
        if takes(scheme, extra) and accepted(lane, **{**fields, **extra}):
            fields.update(extra)
    request = witness_request(lane, **fields)
    check_compatible(**request)
    return request["scenario"]


def lane_settings(max_examples):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )


@lane_settings(70)
@given(scenarios("checkpoint"), st.sampled_from([0.0, 60.0]))
def test_fork_at_the_snapshots_own_seed_is_row_identical_to_classic(scenario, at):
    classic = row(run_scenario(scenario))
    assert classic[0]["violations"] == 0
    try:
        with mock.patch("repro.snap.fork.DRAIN_WINDOW", 10.0):
            snapshot = run_to_checkpoint(scenario, at)
    except SnapshotError as exc:
        # Run-time state, not a table cell: this scheme at this load never quiesces.
        assert at > 0 and "no snapshot-safe point" in str(exc)
        return
    assert snapshot.started == (at > 0)
    assert row(run_from_snapshot(snapshot)) == classic
    if not snapshot.started:
        # A cold snapshot forked under another seed is that seed's cold run.
        other = scenario.with_(seed=scenario.seed + 1)
        assert row(run_from_snapshot(snapshot, seed=other.seed)) == row(run_scenario(other))


@lane_settings(60)
@given(scenarios("result cache"))
@example(scenario=UNORDERED_ADAPTIVE)
def test_cached_row_is_the_classic_row(tmp_path_factory, scenario):
    store = ResultCache(tmp_path_factory.mktemp("cache"))
    if scenario is UNORDERED_ADAPTIVE:
        # Pinned: what the table refuses is refused by the lane, never run.
        with pytest.raises(CompatibilityError, match="FIFO"):
            run_cells([scenario], cache=store)
        assert (store.misses, store.stores, store.hits) == (0, 0, 0)
        return
    classic = row(run_scenario(scenario))
    cold, = run_cells([scenario], cache=store)
    warm, = run_cells([scenario], cache=store)
    assert (store.misses, store.stores, store.hits) == (1, 1, 1)
    assert row(cold) == row(warm) == classic and cold.scenario == warm.scenario == scenario


@lane_settings(8)
@given(st.lists(scenarios("workers"), min_size=6, max_size=6))
def test_worker_pool_rows_are_the_classic_rows(cells):
    classic = [row(run_scenario(cell)) for cell in cells]
    assert [row(r) for r in run_cells(cells, workers=2, cache=False)] == classic
