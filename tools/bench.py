"""Simulator benchmark driver: kernel throughput, parallel sweep, cache.

Runs six measurements and records them in ``BENCH_simulator.json``:

1. **Kernel throughput (B0)** — events/second per scheme, using the
   same manual step loop as ``benchmarks/test_simulator_throughput.py``
   so the engine's ``step()`` path itself is on the clock.  CPU time
   (``time.process_time``) is used for the recorded events/s so the
   numbers are stable on noisy or shared machines; wall time is
   recorded alongside for reference.
2. **Serial vs parallel sweep** — the same small sweep run with
   ``workers=1`` and ``workers=N``, with a row-for-row identity check
   proving parallel output matches serial exactly.
3. **Cold vs warm cache** — the sweep run twice against a fresh
   :class:`~repro.harness.ResultCache`; the second run should be
   nearly free.
4. **Warm-start forking** — an N-seed replication sweep run cold
   (N full simulations) vs warm (one ``run_to_checkpoint`` at the
   warmup boundary plus N forks, ``repro.snap``); fork seed 0 must be
   row-identical to the cold base run, and ``--check`` gates the
   speedup against the profile floor (>= 3x on the full reference
   sweep, where measurement is 10% of the horizon).
5. **Fast lane** — the low-load reference scenario run with
   ``fastlane=False`` (exact baseline) and ``fastlane=True`` (fluid
   local-mode cells, ``repro.harness.fastlane``).  ``--check`` gates
   the wall-clock speedup floor (>= 3x on the full profile), the
   fluid-vs-exact divergence tolerances (drop rate, Erlang-B blocking,
   occupancy), and — against the *committed* baseline — that the
   ``fastlane=False`` run's event count has not drifted: lane-off
   behavior is contractually bit-identical to a build without the
   lane.  The divergence table is also written to
   ``benchmarks/fastlane-divergence.json`` for CI artifact upload.
6. **Policy comparison** — every registered mode policy (plus the
   clairvoyant oracle) run on one contended workload through
   ``repro.policies.compare_policies``; records per-policy mean
   regret-vs-oracle.  ``--check`` gates that the oracle's regret is
   exactly 0 and that no policy run produced interference violations.

Usage::

    python -m tools.bench                 # full profile
    python -m tools.bench --smoke         # small grid (CI)
    python -m tools.bench --smoke --check # also fail on >30% regression

``--check`` compares fresh kernel events/s against the committed
baseline in ``--out`` (same profile) and exits non-zero if any scheme
regressed by more than ``--threshold`` (default 30%).  The output file
is merge-updated: only the measured profile's section is replaced, so
``full`` numbers survive a ``--smoke`` run and vice versa.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):  # `python tools/bench.py` from the repo root
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

try:
    from repro.harness import (
        ResultCache,
        Scenario,
        build_simulation,
        run_replications,
        sweep,
    )
    from repro.sim.engine import EmptySchedule
except ImportError:  # `python -m tools.bench` without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    from repro.harness import (
        ResultCache,
        Scenario,
        build_simulation,
        run_replications,
        sweep,
    )
    from repro.sim.engine import EmptySchedule

SCHEMA = 1
DEFAULT_OUT = "BENCH_simulator.json"
SCHEMES = [
    "fixed",
    "basic_search",
    "basic_update",
    "advanced_update",
    "prakash",
    "adaptive",
]

#: Kernel events/s of the commit *before* the last change to the kernel
#: leg's code (152baac, the parent of the call-path diet), measured on
#: the host and in the session that produced the committed ``full``
#: kernel leg: three alternating parent/change runs of ``--no-sweep``,
#: best per scheme on each side (same B0 scenario, same CPU-time
#: methodology).  Kept for the before/after record; the ``--check`` gate
#: compares against the committed *after* numbers, not these.
BEFORE_FULL = {
    "fixed": 206295,
    "basic_search": 231669,
    "basic_update": 303184,
    "advanced_update": 278515,
    "prakash": 199515,
    "adaptive": 177757,
}

PROFILES = {
    "full": {
        "kernel": dict(offered_load=8.0, duration=1200.0, warmup=200.0, seed=101),
        "kernel_repeats": 3,
        "sweep": dict(
            values=["fixed", "basic_update", "adaptive"],
            seeds=[1, 2],
            offered_load=6.0,
            duration=600.0,
            warmup=100.0,
        ),
        # The reference warm-start sweep: a production-shaped horizon
        # where measurement is the last 10%, so the ideal fork speedup
        # is N*D / (W + N*(D-W)) = 30000/5700 ~ 5.3x; the floor leaves
        # headroom for restore overhead.
        "warmstart": dict(
            scheme="adaptive",
            offered_load=5.0,
            duration=3000.0,
            warmup=2700.0,
            seed=31,
            n=10,
            min_speedup=3.0,
        ),
        # The low-load reference profile of the hybrid fast lane: at 3
        # Erlang/cell an adaptive cell's Erlang-B blocking is ~1e-4, so
        # virtually the whole grid rides the fluid lane (fluid fraction
        # ~0.99) and the event heap shrinks ~15x.  Measured ~4x wall
        # against the exact kernel; the floor leaves noise headroom.
        "fastlane": dict(
            scheme="adaptive",
            rows=14,
            cols=14,
            offered_load=3.0,
            duration=2000.0,
            warmup=200.0,
            seed=7,
            min_speedup=3.0,
            max_drop_divergence=0.01,
            max_block_divergence=0.01,
            max_occupancy_divergence=0.5,
        ),
        # Contended enough (load 10 on the paper grid) that mode-policy
        # quality shows in the drop rate, so the regret ordering is
        # informative rather than noise around zero.
        "policies": dict(
            offered_load=10.0,
            duration=600.0,
            warmup=100.0,
            seeds=[1, 2],
        ),
    },
    "smoke": {
        "kernel": dict(offered_load=8.0, duration=300.0, warmup=50.0, seed=101),
        "kernel_repeats": 2,
        "sweep": dict(
            values=["fixed", "adaptive"],
            seeds=[1],
            offered_load=6.0,
            duration=300.0,
            warmup=50.0,
        ),
        # Shorter horizon, so the fixed rebuild cost per fork weighs
        # more; the floor only guards the mechanism (ideal here is
        # ~4.7x), the 3x claim belongs to the full profile.
        "warmstart": dict(
            scheme="adaptive",
            offered_load=5.0,
            duration=600.0,
            warmup=540.0,
            seed=31,
            n=8,
            min_speedup=1.3,
        ),
        # Small grid but a long horizon, so the measured region (not
        # the fixed build/report overhead) dominates; the floor still
        # only guards the mechanism — the 3x claim is the full
        # profile's.
        "fastlane": dict(
            scheme="adaptive",
            rows=7,
            cols=7,
            offered_load=3.0,
            duration=2000.0,
            warmup=200.0,
            seed=7,
            min_speedup=2.0,
            max_drop_divergence=0.02,
            max_block_divergence=0.02,
            max_occupancy_divergence=0.75,
        ),
        # One seed and a shorter horizon: the gate (oracle regret
        # exactly 0, zero violations) is structural, not statistical.
        "policies": dict(
            offered_load=10.0,
            duration=400.0,
            warmup=100.0,
            seeds=[1],
        ),
    },
}


def _step_all(scheme: str, spec: Dict[str, Any]) -> int:
    """Build a B0-style simulation and step it manually to the horizon."""
    sim = build_simulation(
        Scenario(
            scheme=scheme,
            offered_load=spec["offered_load"],
            duration=spec["duration"],
            warmup=spec["warmup"],
            seed=spec["seed"],
        )
    )
    sim.source.start()
    env = sim.env
    horizon = spec["duration"]
    events = 0
    while True:
        if env.peek() > horizon:
            break
        try:
            env.step()
        except EmptySchedule:
            break
        events += 1
    return events


def bench_kernel(spec: Dict[str, Any], repeats: int) -> Dict[str, Any]:
    """Best-of-``repeats`` events/s per scheme (CPU time)."""
    out: Dict[str, Any] = {}
    for scheme in SCHEMES:
        best_cpu = None
        best_wall = None
        events = 0
        for _ in range(repeats):
            w0 = time.perf_counter()
            c0 = time.process_time()
            events = _step_all(scheme, spec)
            cpu = time.process_time() - c0
            wall = time.perf_counter() - w0
            if best_cpu is None or cpu < best_cpu:
                best_cpu = cpu
                best_wall = wall
        out[scheme] = {
            "events": events,
            "cpu_s": round(best_cpu, 4),
            "wall_s": round(best_wall, 4),
            "events_per_s": int(events / best_cpu) if best_cpu else 0,
        }
    return out


def _sweep_base(spec: Dict[str, Any]) -> Scenario:
    return Scenario(
        scheme="fixed",
        offered_load=spec["offered_load"],
        duration=spec["duration"],
        warmup=spec["warmup"],
        seed=1,
    )


def bench_sweep(spec: Dict[str, Any], workers: int) -> Dict[str, Any]:
    """Serial vs parallel wall time for the same sweep, plus row parity."""
    base = _sweep_base(spec)
    kwargs = dict(
        parameter="scheme",
        values=spec["values"],
        seeds=spec["seeds"],
        cache=False,
    )
    t0 = time.perf_counter()
    serial = sweep(base, workers=1, **kwargs)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = sweep(base, workers=workers, **kwargs)
    parallel_s = time.perf_counter() - t0
    identical = serial.rows == par.rows
    return {
        "cells": len(serial.rows),
        "workers": workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2) if parallel_s else 0.0,
        "rows_identical": identical,
    }


def bench_cache(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Cold vs warm wall time for the same sweep against a fresh cache."""
    base = _sweep_base(spec)
    kwargs = dict(parameter="scheme", values=spec["values"], seeds=spec["seeds"])
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(tmp)
        t0 = time.perf_counter()
        cold = sweep(base, cache=cache, **kwargs)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = sweep(base, cache=cache, **kwargs)
        warm_s = time.perf_counter() - t0
        identical = cold.rows == warm.rows
        hits = cache.hits
    return {
        "cells": len(cold.rows),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "warm_fraction": round(warm_s / cold_s, 4) if cold_s else 0.0,
        "warm_hits": hits,
        "rows_identical": identical,
    }


def _parity_row(report) -> List[Any]:
    """The exact-equality fingerprint of a report, for parity checks."""
    return [
        report.offered,
        report.granted,
        report.drop_rate,
        report.mean_acquisition_time,
        report.messages_total,
        report.violations,
        report.calls_completed,
    ]


def bench_warmstart(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Cold N-seed replication sweep vs checkpoint-once-fork-N.

    Cold runs every replication from t=0; warm pays the warmup
    transient once (``run_to_checkpoint`` at the warmup boundary) and
    forks each seed from the snapshot (``repro.snap``).  Fork seed 0
    continues the snapshot's own seed, so its report must be
    row-identical to the cold base run — the speedup is only worth
    recording if the forked sweep is provably the same experiment.
    """
    from repro.snap import fork_replications, run_to_checkpoint

    scenario = Scenario(
        scheme=spec["scheme"],
        offered_load=spec["offered_load"],
        duration=spec["duration"],
        warmup=spec["warmup"],
        seed=spec["seed"],
    )
    n = spec["n"]

    w0 = time.perf_counter()
    cold = run_replications(scenario, n, workers=1, cache=False)
    cold_s = time.perf_counter() - w0

    w0 = time.perf_counter()
    snapshot = run_to_checkpoint(scenario, spec["warmup"])
    checkpoint_s = time.perf_counter() - w0
    warm = fork_replications(snapshot, n, cache=False)
    warm_s = time.perf_counter() - w0

    return {
        "scheme": spec["scheme"],
        "duration": spec["duration"],
        "warmup": spec["warmup"],
        "replications": n,
        "checkpoint_at": round(snapshot.time, 3),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "checkpoint_s": round(checkpoint_s, 3),
        "speedup": round(cold_s / warm_s, 2) if warm_s else 0.0,
        "rows_identical": _parity_row(warm[0]) == _parity_row(cold[0]),
    }


def bench_fastlane(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Exact kernel vs hybrid fluid fast lane on the low-load profile.

    Both runs are the same scenario; only ``fastlane`` differs.  The
    lane-off run's event count is recorded so the committed baseline
    pins it: lane-off behavior must stay bit-identical across commits
    (``check_fastlane`` compares exactly, not within a tolerance).
    The divergence block quantifies how far the fluid model drifted
    from the discrete dynamics it replaced — the same numbers the run
    report's fast-lane section shows.
    """
    base = Scenario(
        scheme=spec["scheme"],
        rows=spec["rows"],
        cols=spec["cols"],
        offered_load=spec["offered_load"],
        duration=spec["duration"],
        warmup=spec["warmup"],
        seed=spec["seed"],
        wrap=False,
    )

    def timed(scenario):
        c0 = time.process_time()
        w0 = time.perf_counter()
        sim = build_simulation(scenario)
        report = sim.run()
        cpu = time.process_time() - c0
        wall = time.perf_counter() - w0
        events = sim.env._eid - len(sim.env._queue)
        return report, cpu, wall, events

    off, off_cpu, off_wall, off_events = timed(base)
    on, on_cpu, on_wall, on_events = timed(base.with_(fastlane=True))
    lane = on.fastlane or {}
    return {
        "grid": f"{spec['rows']}x{spec['cols']}",
        "scheme": spec["scheme"],
        "offered_load": spec["offered_load"],
        "duration": spec["duration"],
        "off": {
            "cpu_s": round(off_cpu, 3),
            "wall_s": round(off_wall, 3),
            "events": off_events,
            "drop_rate": round(off.drop_rate, 6),
            "violations": off.violations,
        },
        "on": {
            "cpu_s": round(on_cpu, 3),
            "wall_s": round(on_wall, 3),
            "events": on_events,
            "drop_rate": round(on.drop_rate, 6),
            "violations": on.violations,
        },
        "speedup_cpu": round(off_cpu / on_cpu, 2) if on_cpu else 0.0,
        "speedup_wall": round(off_wall / on_wall, 2) if on_wall else 0.0,
        "divergence": {
            "drop_rate_abs": round(abs(on.drop_rate - off.drop_rate), 6),
            "block_rate_abs_err": round(
                lane.get("block_rate_abs_err", 0.0), 6
            ),
            "occupancy_abs_err": round(lane.get("occupancy_abs_err", 0.0), 4),
            "fluid_fraction": round(lane.get("fluid_fraction", 0.0), 4),
        },
    }


def bench_policies(spec: Dict[str, Any], workers: int) -> Dict[str, Any]:
    """Every registered mode policy (plus the oracle) on one workload.

    Runs ``repro.policies.compare_policies`` — per seed, a linear run
    is traced, the clairvoyant oracle replays the trace, and every
    (policy, seed) cell runs through the parallel engine.  The
    recorded numbers are the per-policy mean drop rate and mean
    regret-vs-oracle; ``check_policies`` gates the structural
    invariants (oracle regret exactly 0, zero violations).
    """
    from repro.policies import compare_policies

    base = Scenario(
        scheme="adaptive",
        offered_load=spec["offered_load"],
        duration=spec["duration"],
        warmup=spec["warmup"],
    )
    w0 = time.perf_counter()
    comparison = compare_policies(
        base, seeds=spec["seeds"], workers=workers, cache=False
    )
    wall = time.perf_counter() - w0
    policies = {}
    for name in sorted(comparison.policies):
        rows = [r for r in comparison.rows if r["policy"] == name]
        policies[name] = {
            "drop_rate": round(
                sum(r["drop_rate"] for r in rows) / len(rows), 6
            ),
            "regret_vs_oracle": round(comparison.regret(name), 6),
            "violations": sum(r["violations"] for r in rows),
        }
    return {
        "offered_load": spec["offered_load"],
        "duration": spec["duration"],
        "seeds": list(spec["seeds"]),
        "wall_s": round(wall, 3),
        "policies": policies,
    }


def check_policies(result: Dict[str, Any]) -> List[str]:
    """Gate: the oracle's regret must be exactly 0 (it is the regret
    yardstick) and no policy run may violate channel interference."""
    problems = []
    oracle = result["policies"].get("oracle")
    if oracle is None:
        problems.append("policies: oracle row missing from comparison")
    elif oracle["regret_vs_oracle"] != 0.0:
        problems.append(
            f"policies: oracle regret {oracle['regret_vs_oracle']} != 0 — "
            "the yardstick itself is broken"
        )
    for name, entry in result["policies"].items():
        if entry["violations"]:
            problems.append(
                f"policies: {entry['violations']} interference "
                f"violation(s) under policy {name!r}"
            )
    return problems


def check_fastlane(
    result: Dict[str, Any],
    spec: Dict[str, Any],
    committed: Dict[str, Any],
) -> List[str]:
    """Gate: wall speedup floor, divergence tolerances, sanitizer
    silence, and lane-off event-count identity vs the committed
    baseline."""
    problems = []
    if result["speedup_wall"] < spec["min_speedup"]:
        problems.append(
            f"fastlane: wall speedup {result['speedup_wall']}x is below "
            f"the {spec['min_speedup']}x floor for this profile"
        )
    divergence = result["divergence"]
    for key, bound in (
        ("drop_rate_abs", spec["max_drop_divergence"]),
        ("block_rate_abs_err", spec["max_block_divergence"]),
        ("occupancy_abs_err", spec["max_occupancy_divergence"]),
    ):
        if divergence[key] > bound:
            problems.append(
                f"fastlane: divergence {key}={divergence[key]} exceeds "
                f"the {bound} tolerance"
            )
    if result["on"]["violations"] or result["off"]["violations"]:
        problems.append("fastlane: interference violations in a bench run")
    baseline_events = (
        committed.get("off", {}).get("events") if committed else None
    )
    if baseline_events is not None and baseline_events != result["off"]["events"]:
        problems.append(
            f"fastlane: lane-off event count {result['off']['events']} "
            f"differs from the committed baseline {baseline_events} — "
            "fastlane=False must stay bit-identical to a build without "
            "the lane"
        )
    return problems


def check_warmstart(
    result: Dict[str, Any], spec: Dict[str, Any]
) -> List[str]:
    """Gate: fork-seed-0 parity must hold; warm speedup must not
    regress below the profile's floor."""
    problems = []
    if not result["rows_identical"]:
        problems.append(
            "warmstart: fork-seed-0 report differs from the cold base run"
        )
    floor = spec["min_speedup"]
    if result["speedup"] < floor:
        problems.append(
            f"warmstart: speedup {result['speedup']}x is below the "
            f"{floor}x floor for this profile"
        )
    return problems


def check_regression(
    fresh: Dict[str, Any], committed: Dict[str, Any], threshold: float
) -> List[str]:
    """Compare fresh kernel events/s against the committed baseline."""
    problems = []
    for scheme, entry in committed.items():
        baseline = entry.get("events_per_s", 0)
        measured = fresh.get(scheme, {}).get("events_per_s", 0)
        if baseline and measured < (1.0 - threshold) * baseline:
            problems.append(
                f"{scheme}: {measured} events/s is more than "
                f"{threshold:.0%} below committed baseline {baseline}"
            )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools.bench", description="Simulator benchmark driver."
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small grid suitable for CI"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if kernel events/s regressed vs the committed baseline",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed fractional regression for --check (default 0.30)",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="PATH")
    parser.add_argument(
        "--divergence-out",
        default=os.path.join("benchmarks", "fastlane-divergence.json"),
        metavar="PATH",
        help="where to write the fast-lane divergence report "
        "(uploaded as a CI artifact)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="pool size for the parallel sweep leg (0 = min(4, CPUs))",
    )
    parser.add_argument(
        "--no-sweep",
        action="store_true",
        help="skip the sweep and cache legs (kernel throughput only)",
    )
    args = parser.parse_args(argv)

    profile = "smoke" if args.smoke else "full"
    spec = PROFILES[profile]
    workers = args.workers or min(4, os.cpu_count() or 1)

    committed: Dict[str, Any] = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            committed = json.load(fh)

    print(f"profile={profile}  workers={workers}")
    print("kernel throughput (B0 step loop, CPU time, best of "
          f"{spec['kernel_repeats']}):")
    kernel = bench_kernel(spec["kernel"], spec["kernel_repeats"])
    for scheme, entry in kernel.items():
        print(
            f"  {scheme:16s} {entry['events']:>8d} events  "
            f"{entry['cpu_s']:>7.3f}s cpu  {entry['events_per_s']:>8d} ev/s"
        )

    section: Dict[str, Any] = {"kernel": kernel}
    if profile == "full":
        section["kernel_before"] = {
            scheme: {"events_per_s": value} for scheme, value in BEFORE_FULL.items()
        }

    if not args.no_sweep:
        sweep_result = bench_sweep(spec["sweep"], workers)
        print(
            f"sweep: {sweep_result['cells']} cells  "
            f"serial {sweep_result['serial_s']}s  "
            f"parallel(x{workers}) {sweep_result['parallel_s']}s  "
            f"speedup {sweep_result['speedup']}x  "
            f"rows identical: {sweep_result['rows_identical']}"
        )
        cache_result = bench_cache(spec["sweep"])
        print(
            f"cache: cold {cache_result['cold_s']}s  "
            f"warm {cache_result['warm_s']}s  "
            f"warm/cold {cache_result['warm_fraction']}  "
            f"hits {cache_result['warm_hits']}"
        )
        section["sweep"] = sweep_result
        section["cache"] = cache_result
        if not sweep_result["rows_identical"]:
            print("error: parallel sweep rows differ from serial", file=sys.stderr)
            return 1
        if not cache_result["rows_identical"]:
            print("error: warm cache rows differ from cold run", file=sys.stderr)
            return 1

        warmstart_result = bench_warmstart(spec["warmstart"])
        print(
            f"warmstart: {warmstart_result['scheme']} "
            f"x{warmstart_result['replications']} seeds  "
            f"cold {warmstart_result['cold_s']}s  "
            f"warm {warmstart_result['warm_s']}s "
            f"(checkpoint {warmstart_result['checkpoint_s']}s)  "
            f"speedup {warmstart_result['speedup']}x  "
            f"fork-seed-0 row-identical: "
            f"{warmstart_result['rows_identical']}"
        )
        section["warmstart"] = warmstart_result
        if not warmstart_result["rows_identical"]:
            print(
                "error: warm-forked rows differ from the cold base run",
                file=sys.stderr,
            )
            return 1

        fastlane_result = bench_fastlane(spec["fastlane"])
        divergence = fastlane_result["divergence"]
        print(
            f"fastlane: {fastlane_result['grid']} "
            f"{fastlane_result['scheme']} "
            f"load {fastlane_result['offered_load']}  "
            f"off {fastlane_result['off']['wall_s']}s / "
            f"{fastlane_result['off']['events']} events  "
            f"on {fastlane_result['on']['wall_s']}s / "
            f"{fastlane_result['on']['events']} events  "
            f"speedup {fastlane_result['speedup_wall']}x wall "
            f"({fastlane_result['speedup_cpu']}x cpu)"
        )
        print(
            f"  divergence: drop |d| {divergence['drop_rate_abs']}  "
            f"block |d| {divergence['block_rate_abs_err']}  "
            f"occupancy |d| {divergence['occupancy_abs_err']}  "
            f"fluid fraction {divergence['fluid_fraction']}"
        )
        section["fastlane"] = fastlane_result
        with open(args.divergence_out, "w") as fh:
            json.dump(
                {"profile": profile, "fastlane": fastlane_result},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        print(f"wrote {args.divergence_out}")
        if fastlane_result["on"]["violations"] or fastlane_result["off"][
            "violations"
        ]:
            print(
                "error: interference violations in a fastlane bench run",
                file=sys.stderr,
            )
            return 1

        policies_result = bench_policies(spec["policies"], workers)
        print(
            f"policies: load {policies_result['offered_load']} x"
            f"{len(policies_result['seeds'])} seeds  "
            f"{policies_result['wall_s']}s"
        )
        for name, entry in policies_result["policies"].items():
            print(
                f"  {name:10s} drop {entry['drop_rate']:.4f}  "
                f"regret {entry['regret_vs_oracle']:+.4f}  "
                f"violations {entry['violations']}"
            )
        section["policies"] = policies_result

    failures: List[str] = []
    if args.check:
        baseline = committed.get("profiles", {}).get(profile, {}).get("kernel", {})
        if not baseline:
            print(
                f"--check: no committed {profile!r} baseline in {args.out}; "
                "recording fresh numbers instead",
                file=sys.stderr,
            )
        failures = check_regression(kernel, baseline, args.threshold)
        if not args.no_sweep:
            failures += check_warmstart(warmstart_result, spec["warmstart"])
            failures += check_fastlane(
                fastlane_result,
                spec["fastlane"],
                committed.get("profiles", {})
                .get(profile, {})
                .get("fastlane", {}),
            )
            failures += check_policies(policies_result)
        for failure in failures:
            print(f"REGRESSION  {failure}", file=sys.stderr)

    document = committed if committed.get("schema") == SCHEMA else {"schema": SCHEMA}
    document.setdefault("profiles", {})[profile] = section
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
