"""Command-line interface: run one scenario and print the report.

Examples
--------
Run the adaptive scheme at 7 Erlangs per cell::

    python -m repro --scheme adaptive --load 7

Compare every scheme on a hot-spot workload::

    python -m repro --all-schemes --hotspot 24 --hot-load 20 --load 2

Any scenario knob is exposed; ``--json`` emits machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .faults import FaultPlan
from .harness import (
    SCHEMES,
    CompatibilityError,
    ExperimentError,
    Scenario,
    check_compatible,
    render_table,
    run_cells,
)
from .harness.capability import rejected_with
from .policies.base import policy_names
from .traffic import HotspotLoad


def _worker_count(text: str) -> int:
    """``--workers``: 0 (one per CPU) or a positive process count."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"must be 0 (one per CPU) or a positive count, got {count}"
        )
    return count


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Simulate distributed dynamic channel allocation "
        "(reproduction of Kahol et al., 1998).",
    )
    p.add_argument("--scheme", default="adaptive", choices=sorted(SCHEMES))
    p.add_argument(
        "--all-schemes", action="store_true",
        help="run every scheme on the same workload and print a comparison",
    )
    p.add_argument("--rows", type=int, default=7)
    p.add_argument("--cols", type=int, default=7)
    p.add_argument("--channels", type=int, default=70)
    p.add_argument("--cluster", type=int, default=7, help="reuse cluster size k")
    p.add_argument("--no-wrap", action="store_true", help="planar grid")
    p.add_argument("--load", type=float, default=5.0, help="Erlangs per cell")
    p.add_argument("--holding", type=float, default=180.0)
    p.add_argument("--dwell", type=float, default=None,
                   help="mean cell-dwell time (enables mobility)")
    p.add_argument("--hotspot", type=int, nargs="*", default=None,
                   metavar="CELL", help="hot cell ids")
    p.add_argument("--hot-load", type=float, default=20.0,
                   help="Erlangs per hot cell")
    p.add_argument("--duration", type=float, default=3000.0)
    p.add_argument("--warmup", type=float, default=400.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--latency", type=float, default=1.0, help="one-way T")
    p.add_argument("--alpha", type=int, default=2)
    p.add_argument("--theta-low", type=float, default=1.0)
    p.add_argument("--theta-high", type=float, default=3.0)
    p.add_argument("--window", type=float, default=30.0)
    p.add_argument(
        "--policy", default=None, choices=policy_names(),
        help="mode policy for the adaptive scheme (LOCAL <-> BORROWING "
        "decision rule); 'linear' is the paper's sliding-window "
        "predictor — see docs/POLICIES.md",
    )
    p.add_argument(
        "--faults", type=float, default=None, metavar="P",
        help="inject uniform message loss with probability P (enables "
        "the hardened protocol stack: ack/retry/dedup); fine-grained "
        "fault plans go in a --config file's \"faults\" section",
    )
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument(
        "--trace", type=str, default=None, metavar="DIR",
        help="enable the observability layer and write run artifacts "
        "(Chrome trace for Perfetto, time-series CSV/JSON, markdown "
        "report) into DIR; see docs/OBSERVABILITY.md",
    )
    p.add_argument(
        "--workers", type=_worker_count, default=1, metavar="N",
        help="run scenarios in parallel over N worker processes "
        "(0 = one per CPU); results are identical to serial",
    )
    p.add_argument(
        "--fastlane", action="store_true",
        help="advance quiescent local-mode cells analytically "
        "(Erlang-loss fluid model) instead of event-by-event, "
        "materializing them back on demand; a low-load accelerator; "
        "not with: " + rejected_with("fastlane") + " — see docs/CAPABILITIES.md",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="ignore the persistent result cache (.repro-cache/) and "
        "always simulate",
    )
    p.add_argument(
        "--checkpoint-at", type=float, default=None, metavar="T",
        help="run the scenario to sim-time T, capture a snapshot at "
        "the first safe point, write it to --checkpoint-out, and exit "
        "(T=0 captures a cold t0 snapshot; see docs/TUTORIAL.md)",
    )
    p.add_argument(
        "--checkpoint-out", type=str, default="checkpoint.snap",
        metavar="PATH", help="snapshot output path for --checkpoint-at",
    )
    p.add_argument(
        "--from-checkpoint", type=str, default=None, metavar="PATH",
        help="resume from a snapshot file instead of building the "
        "scenario from flags: restore, run to the horizon, report; "
        "combine with --fork-seed to fork a fresh replication",
    )
    p.add_argument(
        "--fork-seed", type=int, default=None, metavar="K",
        help="with --from-checkpoint: fork the snapshot under seed K "
        "(reseeds every post-fork random stream) instead of exactly "
        "continuing the recorded run",
    )
    p.add_argument(
        "--config", type=str, default=None, metavar="FILE",
        help="load the scenario from a JSON file (other scenario flags "
        "are ignored; --scheme/--all-schemes still apply)",
    )
    p.add_argument(
        "--preset", type=str, default=None,
        help="use a named preset workload (see --list-presets)",
    )
    p.add_argument(
        "--list-presets", action="store_true",
        help="list available preset workloads and exit",
    )
    p.add_argument(
        "--dump-config", action="store_true",
        help="print the scenario as JSON instead of running it",
    )
    return p


def scenario_from_args(args, scheme: str) -> Scenario:
    pattern = None
    if args.hotspot:
        pattern = HotspotLoad(
            base_rate=args.load / args.holding,
            hot_cells=args.hotspot,
            hot_rate=args.hot_load / args.holding,
        )
    faults = (
        FaultPlan.uniform_loss(args.faults) if args.faults is not None else None
    )
    return Scenario(
        scheme=scheme,
        faults=faults,
        rows=args.rows,
        cols=args.cols,
        num_channels=args.channels,
        cluster_size=args.cluster,
        wrap=not args.no_wrap,
        offered_load=args.load,
        pattern=pattern,
        mean_holding=args.holding,
        mean_dwell=args.dwell,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        latency_T=args.latency,
        alpha=args.alpha,
        theta_low=args.theta_low,
        theta_high=args.theta_high,
        window=args.window,
        policy=args.policy or "linear",
        fastlane=args.fastlane,
    )


def report_dict(report) -> dict:
    return {
        "scheme": report.scenario.scheme,
        "offered": report.offered,
        "drop_rate": report.drop_rate,
        "new_call_block_rate": report.new_call_block_rate,
        "handoff_failure_rate": report.handoff_failure_rate,
        "mean_acquisition_time": report.mean_acquisition_time,
        "p95_acquisition_time": report.p95_acquisition_time,
        "messages_total": report.messages_total,
        "messages_per_acquisition": report.messages_per_acquisition,
        "xi": report.xi,
        "fairness_index": report.fairness_index,
        "violations": report.violations,
        "faults_injected": sum(report.faults_injected.values()),
        "faults_recovered": sum(report.faults_recovered.values()),
        "retries": report.retries,
        "retry_exhausted": report.retry_exhausted,
        **({"fastlane": report.fastlane} if report.fastlane else {}),
    }


def snapshot_main(argv) -> int:
    """``python -m repro snapshot inspect FILE [...]`` subcommand."""
    p = argparse.ArgumentParser(
        prog="python -m repro snapshot",
        description="Inspect snapshot files (see repro.snap).",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    inspect = sub.add_parser(
        "inspect", help="print a snapshot's identity and contents summary"
    )
    inspect.add_argument("files", nargs="+", metavar="FILE")
    inspect.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = p.parse_args(argv)

    out = []
    for path in args.files:
        snap = _load_snapshot(p, path)
        scenario = snap.scenario()
        queue = snap.state.get("queue")
        kinds: dict = {}
        for entry in queue or ():
            kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + 1
        out.append({
            "file": path,
            "version": snap.version,
            "content_hash": snap.content_hash(),
            "time": snap.time,
            "started": snap.started,
            "scheme": scenario.scheme,
            "seed": scenario.seed,
            "grid": f"{scenario.rows}x{scenario.cols}",
            "duration": scenario.duration,
            "warmup": scenario.warmup,
            "rng_streams": len(snap.state.get("streams", {})),
            "queue_entries": None if queue is None else len(queue),
            "queue_kinds": kinds,
        })
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        for info in out:
            print(f"{info['file']}:")
            print(f"  format v{info['version']}  hash {info['content_hash'][:16]}…")
            print(
                f"  scheme={info['scheme']}  seed={info['seed']}  "
                f"grid={info['grid']}  duration={info['duration']:g} "
                f"(warmup {info['warmup']:g})"
            )
            state = "cold (t0, not started)" if not info["started"] else "warm"
            print(f"  captured at t={info['time']:g}  [{state}]")
            print(f"  rng streams: {info['rng_streams']}")
            if info["queue_entries"] is not None:
                by_kind = ", ".join(
                    f"{k}={v}" for k, v in sorted(info["queue_kinds"].items())
                )
                print(f"  event queue: {info['queue_entries']} entries ({by_kind})")
    return 0


def _load_snapshot(parser: argparse.ArgumentParser, path: str):
    """The snapshot at ``path``, or a usage error naming the file."""
    from .snap import SnapshotError, load_snapshot

    try:
        return load_snapshot(path)
    except (OSError, SnapshotError) as exc:
        parser.error(f"cannot load snapshot {path}: {exc}")


def _scenarios(args, schemes) -> list:
    """The scenario of every requested scheme, from --config / --preset / flags."""
    if args.config:
        with open(args.config) as fh:
            base = Scenario.from_json(fh.read())
        scenarios = [base.with_(scheme=s) for s in schemes]
    elif args.preset:
        from .harness import preset

        base = preset(args.preset)
        scenarios = [base.with_(scheme=s, seed=args.seed) for s in schemes]
    else:
        return [scenario_from_args(args, s) for s in schemes]

    overrides: dict = {}
    if args.faults is not None:
        overrides["faults"] = FaultPlan.uniform_loss(args.faults)
    if args.policy is not None:
        overrides["policy"] = args.policy
    return [s.with_(**overrides) for s in scenarios]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "snapshot":
        return snapshot_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, parser)
    except CompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentError as exc:
        # One line per failed cell; the tracebacks are for library callers.
        print(f"error: {len(exc.failures)} of {len(exc.reports)} runs failed:",
              file=sys.stderr)
        for failure in exc.failures:
            print(f"  - {failure.summary()}", file=sys.stderr)
        return 1


def _run(args, parser: argparse.ArgumentParser) -> int:
    schemes = sorted(SCHEMES) if args.all_schemes else [args.scheme]

    if args.list_presets:
        from .harness import preset_names

        for name in preset_names():
            print(name)
        return 0

    # What the flags ask for, in the capability table's vocabulary; the
    # scenario's own features are derived by the validator.
    resume = args.from_checkpoint is not None
    lanes = {
        "fastlane": args.fastlane,
        "checkpoint": args.checkpoint_at is not None,
        "resume": resume,
        "fresh run": not resume,
        "fork seed": args.fork_seed is not None,
        "workers": args.workers != 1,
        "all schemes": args.all_schemes,
        "trace dir": args.trace is not None,
    }
    try:
        scenarios = [] if resume else _scenarios(args, schemes)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    check_compatible(
        scenarios[0] if scenarios else None,
        lanes=[name for name, on in lanes.items() if on],
    )

    if resume:
        from .snap import run_from_snapshot

        snap = _load_snapshot(parser, args.from_checkpoint)
        return _print_reports(args, [run_from_snapshot(snap, seed=args.fork_seed)])

    if args.trace is not None:
        from .obs import SAMPLE_INTERVAL

        # Scenarios that already carry a sample interval (e.g. from a
        # --config file) keep it; the flag only switches tracing on.
        scenarios = [
            s if s.obs is not None else s.with_(obs=SAMPLE_INTERVAL)
            for s in scenarios
        ]

    if args.dump_config:
        print(scenarios[0].to_json())
        return 0

    if args.checkpoint_at is not None:
        from .snap import run_to_checkpoint, save_snapshot

        snap = run_to_checkpoint(scenarios[0], args.checkpoint_at)
        save_snapshot(snap, args.checkpoint_out)
        kind = "warm" if snap.started else "cold (t0)"
        print(
            f"{kind} snapshot of scheme={scenarios[0].scheme} at "
            f"t={snap.time:g} -> {args.checkpoint_out}"
        )
        print(f"content hash: {snap.content_hash()}")
        return 0

    reports = run_cells(
        scenarios,
        workers=args.workers if args.workers > 0 else None,
        cache=False if args.no_cache else None,
        trace_dir=args.trace,
    )
    if args.trace is not None:
        print(f"run artifacts written to {args.trace}/", file=sys.stderr)
    return _print_reports(args, reports)


def _print_reports(args, reports) -> int:
    if args.json:
        print(json.dumps([report_dict(r) for r in reports], indent=2))
        return 0

    if len(reports) == 1:
        print(reports[0].summary())
    else:
        rows = [
            [
                r.scenario.scheme,
                round(r.drop_rate, 4),
                round(r.mean_acquisition_time, 3),
                round(r.messages_per_acquisition, 1),
                round(r.fairness_index, 4),
                r.violations,
            ]
            for r in reports
        ]
        print(
            render_table(
                ["scheme", "drop", "acq time (T)", "msgs/req", "fairness", "violations"],
                rows,
                title=f"load={args.load} Erlang/cell, seed={args.seed}",
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
