"""The capability table, tested from the table.

Two halves, both iterating ``repro.harness.capability.CAPABILITIES``
rather than a hand list:

* **the boundary** — every ``rejected`` row, on the minimal request
  built from the per-feature witness map (``tests/conftest.py``), fires
  the one validator with the one error type and the row's reason,
  through every entry point that can express it (library and CLI), and
  nothing has been constructed when it does;
* **the cross-lane differential oracle** — Hypothesis draws scenarios
  from exactly the feature space the table marks ``ok`` for the lane
  under test; every such lane's report is row-identical to the classic
  kernel's, and fastlane is within the bound of its ``tolerance`` row.
  Sanitizers raise throughout (the session fixture) and
  ``violations == 0`` is part of the compared row, the hostile fault
  plan included.

Budget: ``max_examples`` below (80 fork, 30 cache, 3×4 workers,
40 fastlane) add about half a minute to tier-1 on the development host.
"""

import inspect
import re
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import WITNESS, witness_request
from repro.__main__ import main
from repro.harness import (
    CompatibilityError,
    ResultCache,
    Scenario,
    build_simulation,
    check_compatible,
    run_cells,
    run_replications,
    run_scenario,
)
from repro.harness.capability import CAPABILITIES, SCHEMES
from repro.harness.fastlane import FastLane
from repro.policies.base import policy_names
from repro.snap import SnapshotError, checkpoint, run_from_snapshot, run_to_checkpoint

REJECTED = [pair for pair, verdict in CAPABILITIES.items() if verdict.kind == "rejected"]

# -- the boundary -----------------------------------------------------------


def test_every_feature_has_a_witness_and_every_witness_a_row():
    mentioned = {name for pair in CAPABILITIES for name in pair}
    assert mentioned == set(WITNESS)


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
        # A TrafficMix exists only as a live source: the two calls that take one.
        if lanes == {"checkpoint"}:
            return [lambda: checkpoint(fake_sim)]
        return [lambda: FastLane(None, {}, source, None, scenario, None)] if not lanes else []
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
            lambda: run_replications(scenario, 2, warmup_checkpoint=0.0),
            lambda: checkpoint(fake_sim),
        ]
    return []


@pytest.mark.parametrize("pair", REJECTED, ids=" x ".join)
def test_rejected_row_fires_the_validator_before_anything_is_built(
    pair, nothing_constructed, capsys, tmp_path, monkeypatch
):
    reason = CAPABILITIES[pair].detail
    request, argv = witness_request(*pair)
    with pytest.raises(CompatibilityError) as caught:
        check_compatible(**request)
    assert reason in str(caught.value)

    calls = entry_points(**request)
    for call in calls:
        with pytest.raises(CompatibilityError) as caught:
            call()
        assert reason in str(caught.value)

    if argv is not None:
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--duration", "160", "--warmup", "40", "--no-cache"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {caught.value}\n"
        assert not list(tmp_path.iterdir())
    assert calls or argv is not None, "no entry point can express this row"


def test_run_replications_refuses_workers_when_forking(nothing_constructed, monkeypatch):
    scenario = witness_request("workers", duration=160.0, warmup=40.0)[0]["scenario"]
    reason = CAPABILITIES["resume", "workers"].detail
    for workers in (None, 2):
        with pytest.raises(CompatibilityError, match=reason):
            run_replications(scenario, 2, workers=workers, warmup_checkpoint=0.0)
    monkeypatch.undo()  # lift nothing_constructed: workers=1 must still fork
    forked = run_replications(scenario, 2, workers=1, cache=False, warmup_checkpoint=0.0)
    assert [r.scenario.seed for r in forked] == [scenario.seed, scenario.seed + 1]


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
    for name in WITNESS:
        check_compatible(**witness_request(name)[0])


# -- the oracle -------------------------------------------------------------

ROW = (
    "offered", "granted", "dropped", "violations", "messages_total", "messages_by_kind",
    "mean_acquisition_time", "mode_fractions", "calls_completed",
)


def row(report):
    return {name: getattr(report, name) for name in ROW}


def accepted(lane, **fields):
    """Does the validator accept ``Scenario(**fields)`` in ``lane``?"""
    try:
        check_compatible(**witness_request(lane, **fields)[0])
    except CompatibilityError:
        return False
    return True


def takes(scheme, fields):
    """Can ``scheme``'s constructor take the extras in ``fields``? (a value
    question — only two schemes have guard channels — not a combination)."""
    parameters = inspect.signature(SCHEMES[scheme].__init__).parameters
    return all(name in parameters for name in fields.get("extra_params", ()))


@st.composite
def scenarios(draw, lane, **fixed):
    """A scenario from exactly the space the table marks ``ok`` for ``lane``:
    any scheme and policy the validator accepts there, any load and seed,
    and any subset of the features with an ``ok`` row."""
    scheme = draw(st.sampled_from([s for s in sorted(SCHEMES) if accepted(lane, scheme=s)]))
    fields = dict(
        scheme=scheme,
        offered_load=float(draw(st.integers(1, 12))),
        seed=draw(st.integers(0, 50)),
        duration=160.0,
        warmup=40.0,
    )
    if SCHEMES[scheme].policy_driven:
        fields["policy"] = draw(st.sampled_from([p for p in policy_names() if accepted(lane, policy=p)]))
    ok = sorted(
        name for (a, name), verdict in CAPABILITIES.items()
        if a == lane and verdict.kind == "ok" and "scenario" in WITNESS[name]
    )
    for name in sorted(draw(st.sets(st.sampled_from(ok)))) if ok else ():
        extra = WITNESS[name]["scenario"]
        if takes(scheme, extra):
            fields.update(extra)
    request, _ = witness_request(lane, **{**fields, **fixed})
    check_compatible(**request)
    return request["scenario"]


def lane_settings(max_examples):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )


@lane_settings(80)
@given(scenarios("checkpoint"), st.sampled_from([0.0, 60.0]))
def test_fork_at_the_snapshots_own_seed_is_row_identical_to_classic(scenario, at):
    classic = row(run_scenario(scenario))
    assert classic["violations"] == 0
    try:
        snapshot = run_to_checkpoint(scenario, at, drain_window=10.0)
    except SnapshotError as exc:
        # Run-time state, not a table cell: this scheme at this load never quiesces.
        assert at > 0 and "no snapshot-safe point" in str(exc)
        return
    assert snapshot.started == (at > 0)
    assert row(run_from_snapshot(snapshot)) == classic


@lane_settings(30)
@given(scenarios("result cache"))
def test_cached_row_is_the_classic_row(tmp_path_factory, scenario):
    classic = row(run_scenario(scenario))
    store = ResultCache(tmp_path_factory.mktemp("cache"))
    cold, = run_cells([scenario], cache=store)
    warm, = run_cells([scenario], cache=store)
    assert store.hits == 1
    assert row(cold) == row(warm) == classic


@lane_settings(3)
@given(st.lists(scenarios("workers"), min_size=4, max_size=4))
def test_worker_pool_rows_are_the_classic_rows(cells):
    classic = [row(run_scenario(cell)) for cell in cells]
    assert [row(r) for r in run_cells(cells, workers=2, cache=False)] == classic


@lane_settings(40)
@given(scenarios("fastlane", offered_load=3.0, duration=2000.0, warmup=200.0))
def test_fastlane_is_within_its_tolerance_row(scenario):
    verdict = CAPABILITIES["fastlane", "classic kernel"]
    assert verdict.kind == "tolerance" and "drop rate" in verdict.detail
    fluid = run_scenario(scenario)
    exact = run_scenario(scenario.with_(fastlane=False))
    assert fluid.violations == exact.violations == 0
    assert abs(fluid.drop_rate - exact.drop_rate) <= verdict.bound
