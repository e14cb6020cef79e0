"""Checkpoint/restore: determinism oracles, format, cache, analyzer.

The headline contracts under test (see DESIGN.md §9):

* **Fork-at-t0 row-identity** — a cold (t0) snapshot forked to another
  seed is that seed's cold run: the checkpoint oracle in
  ``tests/test_lanes.py`` draws it for every scheme and feature.
* **Exact mid-run continuation** — for schemes that reach global
  quiescence mid-run (fixed, adaptive, advanced_update, prakash at
  these loads), checkpointing at t and resuming is row-identical to
  never having snapshotted; schemes that cannot quiesce fail with an
  honest :class:`SnapshotError` instead of a silently-wrong snapshot.
* **Byte stability** — re-checkpointing a restored simulation yields
  the original snapshot's exact bytes, so the content hash is a true
  identity (and safe to use in result-cache variant keys).
* **Cache hygiene** — warm-forked rows and cold rows for the same
  scenario can never alias (the cache-poisoning regression).

Every simulation here runs with the session-wide sanitizer policy
("raise"): a restore that corrupts protocol state trips an invariant
before any row comparison gets a chance to.
"""

import dataclasses
import enum
import json
from collections import deque

import pytest

from conftest import report_row
from repro.faults import CrashWindow, FaultPlan, LinkPartition
from repro.harness import (
    SCHEMES as SCHEME_TABLE,
    CompatibilityError,
    ResultCache,
    Scenario,
    build_simulation,
    run_scenario,
)
from repro.snap import (
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    SnapshotError,
    UnsafeState,
    apply_state,
    checkpoint,
    fork_replications,
    load_snapshot,
    restore,
    run_from_snapshot,
    run_to_checkpoint,
    save_snapshot,
)

SCHEMES = sorted(SCHEME_TABLE)

#: Schemes whose acquisitions resolve without suspending at these
#: loads, so the drain in run_to_checkpoint finds a globally quiescent
#: instant almost immediately.  basic_search/basic_update run a full
#: message round per acquisition and (at load 5 on 7x7) essentially
#: never quiesce — they are the honest-failure cases instead.
QUIESCENT_SCHEMES = ["fixed", "adaptive", "advanced_update", "prakash"]


def small(scheme="adaptive", **overrides):
    defaults = dict(
        scheme=scheme,
        offered_load=5.0,
        duration=160.0,
        warmup=40.0,
        seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def hostile_faults():
    return FaultPlan(
        drop_prob=0.05,
        dup_prob=0.03,
        delay_prob=0.05,
        extra_delay=2.0,
        crashes=(
            CrashWindow(cell=10, at=90.0, downtime=30.0),
            CrashWindow(cell=24, at=140.0, downtime=25.0),
        ),
        partitions=(LinkPartition(a=3, b=4, start=80.0, end=130.0),),
    )


# -- exact mid-run continuation --------------------------------------------


@pytest.mark.parametrize("scheme", QUIESCENT_SCHEMES)
def test_midrun_resume_row_identical_to_uninterrupted(scheme):
    scenario = small(scheme)
    snap = run_to_checkpoint(scenario, 80.0)
    assert snap.started and snap.time >= 80.0
    resumed = run_from_snapshot(snap)
    straight = run_scenario(scenario)
    assert report_row(resumed) == report_row(straight)


@pytest.mark.parametrize("scheme", ["fixed", "adaptive"])
def test_midrun_resume_with_mobility_is_row_identical(scheme):
    # Calls suspended between two handoffs: the resumed call re-enters
    # the handoff loop (random-walk draw, release, re-acquire, dwell
    # draw) with the handoffs it had already counted.
    scenario = small(scheme, offered_load=9.0, mean_dwell=30.0, duration=200.0)
    snap = run_to_checkpoint(scenario, 100.0)
    calls = [e for e in snap.state["queue"] if e["kind"] == "call"]
    assert sum(1 for e in calls if e["handoffs_attempted"]) > 50
    resumed_sim = restore(snap)
    assert checkpoint(resumed_sim).to_bytes() == snap.to_bytes()
    resumed = run_from_snapshot(snap)
    straight_sim = build_simulation(scenario)
    straight = straight_sim.run()
    assert report_row(resumed) == report_row(straight)
    assert resumed.calls_started == straight.calls_started > 0
    assert resumed.calls_completed == straight.calls_completed > 0
    if scheme == "fixed":
        assert straight.handoff_failure_rate > 0

    # The aggregate log a resumed run ends with is the uninterrupted one's.
    env = resumed_sim.env
    env.run(until=scenario.duration)
    assert resumed_sim.source.log == straight_sim.source.log
    assert straight_sim.source.log.handoffs_attempted > 300
    assert (straight_sim.source.log.handoffs_failed > 0) == (scheme == "fixed")


def test_midrun_resume_inside_crash_window_under_faults():
    # t=100 sits inside cell 10's crash window *and* the 3-4 link
    # partition: the snapshot must carry the down state, the pending
    # recovery timers and the partition cursor.
    scenario = small("adaptive", faults=hostile_faults(), duration=220.0)
    snap = run_to_checkpoint(scenario, 100.0)
    resumed = run_from_snapshot(snap)
    straight = run_scenario(scenario)
    assert report_row(resumed) == report_row(straight)


def test_midrun_snapshot_refuses_never_quiescent_scheme(monkeypatch):
    # Every basic_update acquisition runs an update round, so no
    # globally quiescent instant exists mid-run; the drain must give
    # up honestly instead of capturing a torn state.
    monkeypatch.setattr("repro.snap.fork.DRAIN_WINDOW", 10.0)
    with pytest.raises(SnapshotError, match="no snapshot-safe point"):
        run_to_checkpoint(small("basic_update"), 80.0)


@pytest.mark.parametrize("at", [float("nan"), -5.0, 160.0, 5000.0], ids=["nan", "negative", "horizon", "past"])
def test_checkpoint_time_outside_the_run_is_refused(at, nothing_constructed):
    # A past-horizon or negative instant used to become a snapshot of
    # the horizon or of t0; NaN ran the kernel backwards.
    with pytest.raises(ValueError, match=rf"must lie in \[0, 160\), got {at!r}"):
        run_to_checkpoint(small("adaptive"), at)


# -- reseeded forking ------------------------------------------------------


def test_fork_same_seed_is_deterministic_and_seeds_differ():
    snap = run_to_checkpoint(small("adaptive"), 80.0)
    a = run_from_snapshot(snap, seed=101)
    b = run_from_snapshot(snap, seed=101)
    c = run_from_snapshot(snap, seed=102)
    assert report_row(a) == report_row(b)
    assert report_row(a) != report_row(c)


def test_fork_replications_seed_zero_is_exact_continuation():
    scenario = small("adaptive")
    snap = run_to_checkpoint(scenario, 80.0)
    reports = fork_replications(snap, 2)
    # Seed i=0 forks under the snapshot's own seed: exact continuation,
    # row-identical to the cold run of the base scenario.
    assert report_row(reports[0]) == report_row(run_scenario(scenario))
    assert report_row(reports[0]) != report_row(reports[1])


@pytest.mark.parametrize("n", [0, -2])
def test_forks_below_one_are_refused_before_anything_is_built(n, nothing_constructed):
    cold = Snapshot(scenario_json=small().to_json(), time=0.0, started=False, state={})
    with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
        fork_replications(cold, n)


def test_a_fork_builds_a_call_stream_only_in_cells_that_accept_an_arrival(monkeypatch):
    # Per fork: one arrival stream per cell, and a call stream in each
    # cell whose arrival process accepts a call in the window.  A call
    # resumed in its hold without mobility draws nothing.
    import numpy as np

    import repro.traffic.source as source_module

    snap = run_to_checkpoint(small("adaptive", offered_load=3.0, duration=120.0), 80.0)
    built, accepted = [], set()
    real_generator, real_call = np.random.Generator, source_module.call_process

    def counting_generator(bit_generator):
        built.append(bit_generator)
        return real_generator(bit_generator)

    def recording_call(env, stations, cell, *args, **kwargs):
        accepted.add((env, cell))
        return real_call(env, stations, cell, *args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", counting_generator)
    monkeypatch.setattr(source_module, "call_process", recording_call)
    reports = fork_replications(snap, 3)
    cells = len(snap.state["stations"])
    assert len(built) == 3 * cells + len(accepted)
    assert 0 < len(accepted) < 3 * cells and all(r.offered for r in reports)


def test_a_restore_seeds_its_streams_without_a_seed_sequence(monkeypatch):
    # A reseeded fork derives every stream the snapshot names in one
    # batch; an exact continuation loads every state it draws from.
    import numpy as np

    snap = run_to_checkpoint(small("adaptive", offered_load=3.0, duration=120.0), 80.0)
    made = []
    for name in ("SeedSequence", "default_rng"):  # default_rng makes one inside
        real = getattr(np.random, name)
        monkeypatch.setattr(
            np.random, name, lambda *a, real=real, **kw: made.append(a) or real(*a, **kw)
        )
    forked = run_from_snapshot(snap, seed=snap.seed + 1)
    assert made == [] and forked.offered
    resumed = run_from_snapshot(snap)
    assert made == [] and resumed.offered


@pytest.mark.parametrize("fork", [False, True])
def test_a_batched_restore_gives_the_streams_of_the_single_key_path(monkeypatch, fork):
    from repro.harness import Report
    from repro.sim import StreamRegistry

    snap = run_to_checkpoint(small("adaptive", offered_load=3.0, duration=120.0), 80.0)
    seed = snap.seed + 1 if fork else None

    def restored_states():
        sim = restore(snap, seed=seed)
        try:
            after_restore = sim.streams.state_dict()
            sim.env.run(until=sim.scenario.duration)
            return after_restore, sim.streams.state_dict(), report_row(Report.from_simulation(sim))
        finally:
            sim.close()

    batched = restored_states()
    monkeypatch.setattr(StreamRegistry, "prepare_keys", lambda self, keys: None)
    single = restored_states()
    assert batched == single
    assert batched[0].keys() == snap.state["streams"].keys()


_FRESH_INTERPRETER = """
import dataclasses, json, sys
from repro.snap import checkpoint, load_snapshot, restore, run_from_snapshot

snap = load_snapshot(sys.argv[1])
rows = []
for i in range(4):
    data = dataclasses.asdict(run_from_snapshot(snap, seed=snap.scenario().seed + i))
    for key in ("scenario", "obs", "metrics"):
        data.pop(key)
    rows.append(data)
json.dump({"rows": rows, "again": checkpoint(restore(snap)).to_bytes().hex()}, sys.stdout)
"""


def test_restore_in_a_dirty_process_matches_a_fresh_interpreter(tmp_path):
    """Process-shared statics (the topology memo) must not leak between
    builds: forks from a process that has already built other grids,
    schemes and seeds equal the same forks from a clean interpreter."""
    import os
    import subprocess
    import sys

    import repro

    scenario = small("adaptive")
    snap = run_to_checkpoint(scenario, 80.0)
    before = snap.to_bytes()
    path = tmp_path / "warm.snap"
    save_snapshot(snap, path)

    # Dirty this process: other shapes (enough to cycle the topology
    # memo), other schemes, other seeds — some run, some only built.
    for other in (
        small("basic_update", rows=14, cols=14, seed=5),
        small("fixed", wrap=False, seed=6),
        small("prakash", num_channels=140, seed=7),
        small("adaptive", rows=6, cols=6, cluster_size=3, seed=8),
        small("advanced_update", num_channels=77, seed=9),
        small("adaptive", seed=10),
    ):
        run_scenario(other.with_(duration=60.0, warmup=20.0))
    dirty = [
        report_row(run_from_snapshot(snap, seed=scenario.seed + i)) for i in range(4)
    ]
    assert dirty[0] == report_row(run_scenario(scenario))  # seed 0: exact continuation
    assert snap.to_bytes() == before
    assert checkpoint(restore(snap)).to_bytes() == before

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "REPRO_CACHE": "off"},
    )
    assert fresh.returncode == 0, fresh.stderr
    out = json.loads(fresh.stdout)
    assert out["rows"] == json.loads(json.dumps(dirty))
    assert bytes.fromhex(out["again"]) == before


def test_snapshot_scenario_is_parsed_once_and_handed_out_as_copies():
    scenario = small("adaptive")
    snap = run_to_checkpoint(scenario, 0.0)
    first = snap.scenario()
    assert first == scenario and first is not snap.scenario()
    assert snap.scenario(seed=99) == scenario.with_(seed=99)
    # A caller editing its copy cannot reach later restores.
    first.duration = 1.0
    assert snap.scenario().duration == scenario.duration


# -- byte stability and format ---------------------------------------------


def test_roundtrip_is_byte_stable_cold_and_warm(tmp_path):
    for at in (0.0, 80.0):
        snap = run_to_checkpoint(small("adaptive"), at)
        path = tmp_path / f"at{at:g}.snap"
        save_snapshot(snap, path)
        loaded = load_snapshot(path)
        assert loaded.to_bytes() == snap.to_bytes()
        assert loaded.content_hash() == snap.content_hash()
        if snap.started:
            again = checkpoint(restore(loaded))
            assert again.to_bytes() == snap.to_bytes()


def test_snapshot_rejects_tampered_bytes():
    snap = run_to_checkpoint(small("fixed"), 0.0)
    blob = snap.to_bytes()
    tampered = blob.replace(b"fixed", b"mixed", 1)
    assert tampered != blob
    with pytest.raises(SnapshotError, match="hash"):
        Snapshot.from_bytes(tampered)
    # Stripping a field — the hash itself included — is no way round the
    # check, and nothing malformed escapes as a KeyError / AttributeError.
    body = json.loads(blob)
    for field in ("hash", "scenario", "time", "started", "state"):
        stripped = json.dumps({k: v for k, v in body.items() if k != field})
        with pytest.raises(SnapshotError, match=f"corrupt snapshot: no {field} field"):
            Snapshot.from_bytes(stripped.encode())
    for not_an_object in (b"[]", b"7", b'"snapshot"', b"null"):
        with pytest.raises(SnapshotError, match="corrupt snapshot: not a JSON object"):
            Snapshot.from_bytes(not_an_object)


def test_snapshot_rejects_unknown_format_version():
    snap = run_to_checkpoint(small("fixed"), 0.0)
    bumped = dataclasses.replace(snap, version=SNAPSHOT_FORMAT_VERSION + 1)
    with pytest.raises(SnapshotError, match="version"):
        restore(bumped)


def test_content_hash_distinguishes_scenarios_and_instants():
    h0 = run_to_checkpoint(small("adaptive"), 0.0).content_hash()
    h0b = run_to_checkpoint(small("adaptive"), 0.0).content_hash()
    h0_other = run_to_checkpoint(small("adaptive", seed=12), 0.0).content_hash()
    h80 = run_to_checkpoint(small("adaptive"), 80.0).content_hash()
    assert h0 == h0b
    assert h0 != h0_other
    assert h0 != h80


def test_traffic_mix_source_is_refused_for_good_not_as_a_transient():
    # ``UnsafeState`` means "step the kernel and retry"; no amount of
    # stepping makes a multi-class source capturable.
    from repro.traffic import CallConfig, TrafficClass, TrafficMix, TrafficSource

    sim = build_simulation(small("fixed"))
    mix = TrafficMix([
        TrafficClass("voice", 0.7, CallConfig(mean_holding=180.0)),
        TrafficClass("data", 0.3, CallConfig(mean_holding=20.0)),
    ])
    sim.source = TrafficSource(
        sim.env, sim.stations, sim.source.pattern, mix, sim.streams, horizon=160.0
    )
    for started in (False, True):
        with pytest.raises(CompatibilityError, match="TrafficMix"):
            checkpoint(sim)
        if not started:
            sim.start()
            sim.env.run(until=20.0)


# -- restore-side guards ----------------------------------------------------


@pytest.fixture(scope="module")
def hostile_traced_snapshot():
    scenario = small(
        "adaptive", offered_load=10.0, faults=hostile_faults(), duration=220.0,
        obs=10.0,
    )
    return run_to_checkpoint(scenario, 100.0)


@pytest.mark.parametrize(
    "change, refusal",
    [
        ({"scheme": "fixed"}, "cell 0: scheme mismatch, built FixedMSS"),
        ({"rows": 5, "cols": 5, "wrap": False}, "unknown cell 25"),
        ({"faults": None}, "injector presence differs"),
        ({"obs": None}, "obs presence differs"),
    ],
)
def test_apply_state_refuses_a_differently_built_simulation(
    hostile_traced_snapshot, change, refusal
):
    snap = hostile_traced_snapshot
    other = build_simulation(snap.scenario().with_(**change))
    with pytest.raises(SnapshotError, match=refusal):
        apply_state(other, snap.state)


# -- the declarations are complete -----------------------------------------

_OPAQUE = object()


def plain(value):
    """``value`` as comparable plain data — numbers, strings, enums and
    sets / dicts / lists / deques / tuples of them — else ``_OPAQUE``."""
    if value is None or isinstance(value, (bool, int, float, str, enum.Enum)):
        return value
    if isinstance(value, dict):
        if hasattr(value, "peek"):
            # An adaptive mirror map materialises an entry on first
            # touch, so raw ``==`` differs by design: compare the view.
            value = {cell: set(value.peek(cell)) for cell in value}
        items = {key: plain(item) for key, item in value.items()}
        return _OPAQUE if _OPAQUE in items.values() else items
    if isinstance(value, (set, frozenset, list, deque, tuple)):
        items = [plain(item) for item in value]
        if _OPAQUE in items:
            return _OPAQUE
        return set(items) if isinstance(value, (set, frozenset)) else items
    return _OPAQUE


def undeclared(original, restored):
    """Plain-data attributes two objects disagree on, minus the ones
    their classes list in ``SNAPSHOT_TRANSIENT``."""
    transient = {
        name
        for klass in type(original).__mro__
        for name in vars(klass).get("SNAPSHOT_TRANSIENT", ())
    }
    found = []
    for name in sorted((set(vars(original)) | set(vars(restored))) - transient):
        ours = plain(getattr(original, name, _OPAQUE))
        theirs = plain(getattr(restored, name, _OPAQUE))
        if _OPAQUE not in (ours, theirs) and ours != theirs:
            found.append(f"{type(original).__name__}.{name}")
    return found


@pytest.mark.parametrize(
    "name", ["warm-fixed", "warm-advanced_update", "warm-prakash", "warm-adaptive", "faults"]
)
def test_every_mutable_attribute_is_declared_or_transient(name):
    scenario, at = LAYOUT_CASES[name]
    sim = build_simulation(scenario)
    sim.start()
    sim.env.run(until=at)
    while True:
        try:
            snap = checkpoint(sim)
            break
        except UnsafeState:
            sim.env.step()
    twin = restore(snap)
    pairs = [
        (sim.network, twin.network),
        (sim.metrics, twin.metrics),
        (sim.monitor, twin.monitor),
        (sim.source.log, twin.source.log),
    ]
    if sim.injector is not None:
        pairs.append((sim.injector, twin.injector))
    pairs += [(sim.stations[cell], twin.stations[cell]) for cell in sorted(sim.stations)]
    assert sorted({attr for pair in pairs for attr in undeclared(*pair)}) == []
    # The two by-design exceptions are live entries, not dead ones.
    assert any(hasattr(st, "_attempts") for st in sim.stations.values())
    assert not any(hasattr(st, "_attempts") for st in twin.stations.values())
    if sim.network.total_sent:
        assert sim.network._seq != twin.network._seq


# -- layout pin -------------------------------------------------------------

#: name -> (scenario, checkpoint instant): small snapshots that between
#: them fill every part of the v2 layout ``bench/golden.json`` does not.
LAYOUT_CASES = {
    **{f"cold-{s}": (small(s), 0.0) for s in SCHEMES},
    **{f"warm-{s}": (small(s), 80.0) for s in ("fixed", "advanced_update", "prakash")},
    "warm-basic_search": (small("basic_search", offered_load=0.5), 80.0),
    "warm-basic_update": (small("basic_update", offered_load=0.5), 80.0),
    "warm-adaptive": (small("adaptive", offered_load=14.0), 120.0),
    "mobility": (small("fixed", offered_load=9.0, mean_dwell=30.0), 80.0),
    "faults": (
        small("adaptive", offered_load=10.0, faults=hostile_faults(), duration=220.0),
        100.0,
    ),
    "obs": (
        small("adaptive", offered_load=14.0, obs=10.0),
        80.0,
    ),
    "quantile": (small("adaptive", offered_load=14.0, policy="quantile"), 120.0),
    "random-best": (
        small(
            "adaptive",
            offered_load=14.0,
            extra_params={"best_policy": "random", "repack": True},
        ),
        120.0,
    ),
}

# Regenerate (only with a SNAPSHOT_FORMAT_VERSION bump): PYTHONPATH=src python -c "import tests.test_snapshot as t; print({n: t.layout_hash(n) for n in t.LAYOUT_CASES})"
LAYOUT_PINS = {
    "cold-fixed": "428b6d270840c7edb9bd7167479eb5ebbd550f9016c32ca83ae86a95e6caf12b",
    "cold-basic_search": "bea54259c567c73c97d7bf9105154f0fe340f22738b4e5abdd1ab0529e0ecab3",
    "cold-basic_update": "d931cb19e626e1032f4c51d800d0c629b863ca838cb645034f9cf06153acb560",
    "cold-advanced_update": "6bb60dc139d5052b34c289aab56e08ab70e47061a31dc31d7b83ba7f9914d40a",
    "cold-adaptive": "1cb437c1da63b4234ca663f7fc1a965d431bdd042ca79fab51738d65eb490057",
    "cold-prakash": "4894d2ca226b1b441429674df782f2dee492b741aca634521173effc9c74cf75",
    "warm-fixed": "02719f0520addcddbd178b6ee56f96f52e687fde8d5ca90037e86a754e609ae2",
    "warm-advanced_update": "ac2840eff0502f55ca62dea4dc7513d4fce750d5ecc46ef4fa1d8706a4810114",
    "warm-prakash": "909f323c892b3f26791b5d7e75ab1e056c0bf9ad55b30ee34e76ec1a7bc454e5",
    "warm-basic_search": "c65b0f86f6e982d6d5e8f56681001b8f957a86ffb26ddc3b0da63aeba489e398",
    "warm-basic_update": "7dc3dae2ff43234fca1d57d79031d0eb47ef05386d1648ccd63fd7353d8625e1",
    "warm-adaptive": "8f1c8cff1ddcb76a64485899ef871ed6211df5ed47e18657ff65aa82495bf84e",
    "mobility": "6c49eb1de7111630ebf3e73561db960b0c430b0a43220913e6163e8394b3898f",
    "faults": "b24344d3b07a077716038bf0f74a6128f109df539baaeb837e3049e30168a387",
    "obs": "b8462793c70e84bf5776f6805d4acc4f13d52ab1e7774531d5db24c34a9f9ed5",
    "quantile": "e26d21a7c2f07b8fa305a457d1236db80a8d7cc25800bf7a6c622b2a61365016",
    "random-best": "a5acb084021c60dea74db77cbbf061cc8734d03bdf073c7c9998c50702298b24",
}


def layout_hash(name):
    snap = run_to_checkpoint(*LAYOUT_CASES[name])
    profiler = (snap.state["obs"] or {}).get("profiler")
    if profiler is not None:  # the kernel sampler's wall/CPU clocks are not state
        for clock in ("wall", "cpu"):
            profiler[clock] = [0.0] * len(profiler[clock])
    return snap.content_hash()


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_snapshot_layout_is_pinned(name):
    assert layout_hash(name) == LAYOUT_PINS[name]


# -- cache hygiene (the cache-poisoning regression) ------------------------


def test_warm_forked_rows_never_alias_cold_rows(tmp_path):
    cache = ResultCache(tmp_path)
    scenario = small("adaptive")
    forked_scenario = scenario.with_(seed=scenario.seed + 1)

    cold = run_scenario(forked_scenario)
    cache.put(forked_scenario, cold)

    snap = run_to_checkpoint(scenario, 80.0)
    _, warm = fork_replications(snap, 2, cache=cache)
    # The warm fork simulates a different trajectory (warmup paid under
    # the base seed) — it must have MISSED the cold row, not returned it.
    assert report_row(warm) != report_row(cold)

    # Both rows now coexist: the plain lookup still returns the cold
    # report, and a second warm fork hits the warm row (no simulation).
    assert report_row(cache.get(forked_scenario)) == report_row(cold)
    hits_before = cache.hits
    _, warm2 = fork_replications(snap, 2, cache=cache)
    assert cache.hits == hits_before + 2
    assert report_row(warm2) == report_row(warm)


def test_forks_of_different_snapshots_do_not_share_rows(tmp_path):
    cache = ResultCache(tmp_path)
    scenario = small("adaptive")
    snap_a = run_to_checkpoint(scenario, 0.0)
    snap_b = run_to_checkpoint(scenario, 80.0)
    fork_replications(snap_a, 1, cache=cache)
    hits_before = cache.hits
    fork_replications(snap_b, 1, cache=cache)
    assert cache.hits == hits_before  # b never reads a's row


# -- CLI -------------------------------------------------------------------


def test_cli_checkpoint_resume_and_inspect(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "cli.snap"
    args = [
        "--scheme", "adaptive", "--load", "5", "--duration", "160",
        "--warmup", "40", "--seed", "11",
    ]
    assert main(["snapshot", "take", "--at", "80", "--out", str(out)] + args) == 0
    assert out.exists()
    capsys.readouterr()

    assert main(["snapshot", "run", str(out), "--json"]) == 0
    resumed = json.loads(capsys.readouterr().out)[0]
    straight = run_scenario(small("adaptive"))
    assert resumed["offered"] == straight.offered
    assert resumed["drop_rate"] == straight.drop_rate
    assert resumed["messages_total"] == straight.messages_total

    assert main(["snapshot", "inspect", str(out), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)[0]
    assert info["scheme"] == "adaptive"
    assert info["started"] is True
    assert info["version"] == SNAPSHOT_FORMAT_VERSION
    assert info["rng_streams"] > 0
    assert info["queue_entries"] == sum(info["queue_kinds"].values())
