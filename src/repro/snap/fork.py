"""Checkpointing drivers: take, resume, and fork snapshots.

* :func:`checkpoint` / :func:`restore` — the core pair: capture a live
  :class:`~repro.harness.runner.Simulation` into a :class:`Snapshot`,
  and rebuild a runnable simulation from one.
* :func:`run_to_checkpoint` — build and run a scenario up to an
  instant, then capture at the first safe point at/after it.
* :func:`run_from_snapshot` — restore and run to the scenario horizon,
  returning a normal :class:`~repro.harness.runner.Report`.
* :func:`fork_replications` — the warm-start sweep driver: fork N seeds
  from one warmed-up snapshot instead of re-simulating the warmup N
  times, with result-cache rows keyed by the snapshot's content hash.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..harness.capability import check_compatible
from .format import SNAPSHOT_FORMAT_VERSION, Snapshot, SnapshotError
from .state import UnsafeState, apply_state, capture_state

__all__ = [
    "DRAIN_WINDOW",
    "MAX_DRAIN_STEPS",
    "checkpoint",
    "fork_replications",
    "restore",
    "run_from_snapshot",
    "run_to_checkpoint",
]

#: Upper bound on single-step draining while hunting for a safe point.
#: Protocol rounds resolve within a handful of message latencies, so a
#: real simulation reaches a safe point in far fewer events; the bound
#: only exists to turn a (hypothetical) livelock into a clean error.
MAX_DRAIN_STEPS = 100_000

#: How far past the requested instant :func:`run_to_checkpoint` drains
#: before it gives up (simulated time units, ~25 round trips).
DRAIN_WINDOW = 50.0


def checkpoint(sim: Any) -> Snapshot:
    """Capture ``sim`` into a :class:`Snapshot`.

    The simulation must be at a safe point (see
    :mod:`repro.snap.state`); otherwise :class:`UnsafeState` propagates
    and the caller should step the kernel and retry —
    :func:`run_to_checkpoint` does exactly that.  An unserializable
    scenario raises :class:`SnapshotError`; a combination no amount of
    stepping makes capturable (fastlane, a ``TrafficMix`` source),
    :class:`~repro.harness.capability.CompatibilityError`.
    """
    try:
        scenario_json = sim.scenario.to_json()
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            "scenario is not JSON-serializable (custom pattern or "
            "extra_params?); only serializable scenarios can be "
            "checkpointed"
        ) from exc
    return Snapshot(
        scenario_json=scenario_json,
        time=float(sim.env._now),
        started=bool(sim.source._started),
        state=capture_state(sim),
    )


def restore(snapshot: Snapshot, seed: Optional[int] = None) -> Any:
    """Rebuild a runnable :class:`Simulation` from ``snapshot``.

    Restore works by *rebuild*: the scenario is built from scratch (all
    static wiring — topology, stations, probes — comes from
    ``build_simulation``) and only the captured dynamic state is applied
    on top.  The returned simulation sits at ``snapshot.time`` with the
    event heap re-materialized; run it with ``sim.env.run(...)``.

    ``seed`` forks the snapshot: the simulation is built under the new
    seed and the captured RNG stream states are *not* applied, so every
    post-fork draw comes from the fork seed's substreams while the
    structural warm state (calls in progress, channel mirrors,
    in-flight messages) carries over.  ``seed=None`` (or the snapshot's
    own seed) is an exact continuation.
    """
    if snapshot.version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format version {snapshot.version!r} is not "
            f"supported (this build reads {SNAPSHOT_FORMAT_VERSION})"
        )
    from ..harness.runner import build_simulation

    scenario = snapshot.scenario()
    reseed = seed is not None and seed != scenario.seed
    if reseed:
        scenario = scenario.with_(seed=seed)
    sim = build_simulation(scenario)
    if snapshot.started:
        apply_state(sim, snapshot.state, reseed=reseed)
    return sim


def run_to_checkpoint(scenario: Any, at: float) -> Snapshot:
    """Run ``scenario`` to (the first safe point at/after) ``at``.

    ``at <= 0`` captures a *cold* snapshot — the built-but-unstarted
    stack, which restores as a plain rebuild and runs the normal start
    choreography (this is the t0-fork form; it works for every scheme).

    For ``at > 0`` the kernel runs to ``at`` and then drains one event
    at a time until capture succeeds; the snapshot's ``time`` is the
    drained instant, which may lie after ``at`` (in-flight protocol
    rounds must land first).  The drain hunts for a *globally
    quiescent* instant — no channel request in progress anywhere — so
    its reachability depends on the scheme and the load: local-mode
    adaptive and fixed acquisitions complete without suspending and
    quiesce constantly, while a saturated search scheme (mean
    acquisition ~12 T across 49 cells) may never quiesce before the
    horizon.  The drain gives up at ``at +`` :data:`DRAIN_WINDOW` or
    ``scenario.duration``, whichever is earlier — it never simulates
    past the horizon — and raises :class:`SnapshotError` naming the
    dominant obstacle, rather than returning a snapshot far from where
    you asked.
    """
    from ..harness.runner import build_simulation
    from ..sim.engine import EmptySchedule

    check_compatible(scenario, lanes=("checkpoint",))
    sim = build_simulation(scenario)
    try:
        if at <= 0.0:
            return checkpoint(sim)

        env = sim.env
        sim.start()
        env.run(until=min(float(at), scenario.duration))

        # Events at exactly t=duration must stay unprocessed: a cold run's
        # stop event outranks them, so processing any would make the
        # resumed trajectory diverge from run-from-scratch.
        limit = min(scenario.duration, float(at) + DRAIN_WINDOW)
        last_reason = "queue exhausted"
        for _ in range(MAX_DRAIN_STEPS):
            try:
                return checkpoint(sim)
            except UnsafeState as exc:
                last_reason = exc.reason
            if env._queue and env._queue[0][0] >= limit:
                break
            try:
                env.step()
            except EmptySchedule:
                break
        raise SnapshotError(
            f"no snapshot-safe point found in [{at}, {limit}] "
            f"(dominant obstacle: {last_reason}); this scheme/load may "
            f"never quiesce mid-run — checkpoint at t=0 instead"
        )
    finally:
        sim.close()


def run_from_snapshot(snapshot: Snapshot, seed: Optional[int] = None) -> Any:
    """Restore ``snapshot`` (optionally forked to ``seed``) and run it
    to the scenario horizon; returns the :class:`Report`."""
    from ..harness.runner import Report, run_scenario

    scenario = snapshot.scenario(seed)
    if not snapshot.started:
        return run_scenario(scenario)
    sim = restore(snapshot, seed=seed)
    try:
        if sim.env._now < scenario.duration:
            sim.env.run(until=scenario.duration)
        return Report.from_simulation(sim)
    finally:
        sim.close()


def fork_replications(snapshot: Snapshot, n: int, cache: Any = None) -> List[Any]:
    """Fork ``n`` replications (seed, seed+1, ...) from one snapshot.

    The warm counterpart of
    :func:`repro.harness.runner.run_replications`: the warmup transient
    is paid once (by whoever produced ``snapshot``) and each
    replication simulates only the post-checkpoint window.  The forks
    share the pre-checkpoint trajectory by construction: they are
    exchangeable draws of that window, not fully independent runs, and
    they run serially in this process.  Results are cached under
    ``variant="warm:<snapshot hash>"`` so warm rows can never alias
    cold rows for the same scenario (see :mod:`repro.harness.cache`).
    """
    from ..harness.cache import resolve_cache

    base = snapshot.scenario()
    store = resolve_cache(cache)
    variant = f"warm:{snapshot.content_hash()}"
    reports: List[Any] = []
    for seed in range(base.seed, base.seed + n):
        scenario = base.with_(seed=seed)
        hit = store.get(scenario, variant=variant) if store is not None else None
        if hit is not None:
            reports.append(hit)
            continue
        report = run_from_snapshot(snapshot, seed=seed)
        if store is not None:
            store.put(scenario, report, variant=variant)
        reports.append(report)
    return reports
