"""Chaos smoke test: short lossy-network sweep with sanitizers raising.

Runs every registered scheme on a hot-spot workload over an unreliable
network (uniform message loss, default 5%) with the full sanitizer
suite in ``raise`` mode, and fails if

* any sanitizer trips (deadlock, causality, quiescence), or
* any mutual-exclusion (co-channel interference) violation is recorded, or
* the hardened stack never actually recovers a lost message
  (``faults_recovered == 0`` would mean the ARQ layer is dead code).

This is deliberately small — a CI smoke, not a study.  The full loss
sweep lives in ``benchmarks/test_fault_sweep.py``.

Usage::

    python -m tools.chaos_smoke [--loss 0.05] [--duration 200] [--seed 7]
                                [--trace DIR]

The schemes are the cells of one ``run_cells`` grid (one worker per
core; a crashed cell is a failure row, the others still finish).
``--trace DIR`` additionally runs every scheme with the observability
layer on, so the grid writes ``DIR/cell-<i>-<scheme>-seed<s>/`` and a
manifest (see docs/OBSERVABILITY.md) — in CI these are uploaded so a
chaos failure comes with its trace attached.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.faults import FaultPlan
from repro.harness import SCHEMES, ExperimentError, Scenario, render_table, run_cells
from repro.obs import SAMPLE_INTERVAL
from repro.traffic import HotspotLoad
from repro.verify import set_default_policy


def build_scenario(
    scheme: str, loss: float, duration: float, seed: int, trace: bool = False
) -> Scenario:
    holding = 60.0
    return Scenario(
        scheme=scheme,
        faults=FaultPlan.uniform_loss(loss),
        pattern=HotspotLoad(4.0 / holding, [24], 16.0 / holding),
        offered_load=4.0,
        mean_holding=holding,
        duration=duration,
        warmup=min(50.0, duration / 4),
        seed=seed,
        obs=SAMPLE_INTERVAL if trace else None,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(prog="python -m tools.chaos_smoke")
    p.add_argument("--loss", type=float, default=0.05,
                   help="uniform message-loss probability (default 0.05)")
    p.add_argument("--duration", type=float, default=200.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trace", metavar="DIR", default=None,
                   help="write per-scheme run artifacts (trace, series, "
                        "report) under DIR")
    args = p.parse_args(argv)

    # Sanitizers in raise mode: the run aborts on the first deadlock /
    # causality / quiescence violation instead of recording it.
    set_default_policy("raise")

    cells = [
        build_scenario(scheme, args.loss, args.duration, args.seed, trace=bool(args.trace))
        for scheme in sorted(SCHEMES)
    ]
    failures = []
    try:
        reports = run_cells(cells, workers=None, cache=False, trace_dir=args.trace)
    except ExperimentError as exc:  # sanitizer raise = smoke failure
        reports = exc.reports
        failures += [f.summary() for f in exc.failures]

    rows = []
    for cell, report in zip(cells, reports):
        scheme = cell.scheme
        if report is None:
            rows.append([scheme, "-", "-", "-", "-", "CRASHED"])
            continue
        injected = sum(report.faults_injected.values())
        recovered = sum(report.faults_recovered.values())
        rows.append(
            [
                scheme,
                round(report.drop_rate, 4),
                round(report.mean_acquisition_time, 3),
                injected,
                recovered,
                report.violations,
            ]
        )
        if report.violations:
            failures.append(
                f"{scheme}: {report.violations} mutual-exclusion violations "
                f"at {args.loss:.0%} loss"
            )
        # fixed sends no protocol messages, so there is nothing to
        # drop and nothing to recover — only the violation gate applies.
        if scheme != "fixed":
            if injected == 0:
                failures.append(f"{scheme}: fault injector injected nothing")
            if recovered == 0:
                failures.append(f"{scheme}: no recovered retransmissions")

    print(
        render_table(
            ["scheme", "drop", "acq time (T)", "injected", "recovered", "violations"],
            rows,
            title=f"chaos smoke: {args.loss:.0%} loss, "
            f"duration={args.duration}, seed={args.seed}",
        )
    )
    if args.trace:
        print(f"\nrun artifacts written to {args.trace}/", file=sys.stderr)
    if failures:
        print("\nFAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nOK: zero violations under loss, recovery machinery active")
    return 0


if __name__ == "__main__":
    sys.exit(main())
