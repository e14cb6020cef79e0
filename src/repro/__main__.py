"""Command-line interface: run one scenario and print the report.

Examples
--------
Run the adaptive scheme at 7 Erlangs per cell::

    python -m repro --scheme adaptive --load 7

Compare every scheme on a hot-spot workload::

    python -m repro --all-schemes --hotspot 24 --hot-load 20 --load 2

Each scenario flag sets the :class:`~repro.harness.Scenario` field it
names on the scenario source: the ``--config`` file, the ``--preset`` or
``Scenario(duration=3000.0, warmup=400.0)``.  The fields without a flag
(``fifo``, ``latency_model``, ``latency_spread``, ``max_attempts``,
``channels_per_color``, ``extra_params``) are set in a ``--config``
file; ``obs`` is ``--trace``.  ``--json`` emits machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .harness import (
    SCHEMES,
    CompatibilityError,
    ExperimentError,
    Scenario,
    run_cells,
)
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


def _scenario_flags() -> argparse.ArgumentParser:
    """The flags that say which scenario to run, shared as a parent by
    the main command and ``snapshot take``.  A scenario flag's ``dest``
    is the :class:`Scenario` field it sets and it has no default, so the
    parsed namespace holds exactly the fields the command line gave."""
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)

    def renamed(option: str, dest: str, **kwargs) -> None:
        """A flag that sets a field of another name; ``--help`` names the flag."""
        p.add_argument(option, dest=dest, metavar=option[2:].upper(), **kwargs)

    p.add_argument("--scheme", choices=sorted(SCHEMES))
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    renamed("--channels", "num_channels", type=int)
    renamed("--cluster", "cluster_size", type=int, help="reuse cluster size k")
    p.add_argument("--no-wrap", dest="wrap", action="store_false", help="planar grid")
    renamed("--load", "offered_load", type=float, help="Erlangs per cell")
    renamed("--holding", "mean_holding", type=float)
    renamed("--dwell", "mean_dwell", type=float, help="mean cell-dwell time (enables mobility)")
    p.add_argument("--hotspot", dest="pattern", type=int, nargs="+", metavar="CELL",
                   help="hot cell ids")
    p.add_argument("--hot-load", type=float, default=None,
                   help="Erlangs per hot cell (default 20; needs --hotspot)")
    p.add_argument("--duration", type=float)
    p.add_argument("--warmup", type=float)
    p.add_argument("--seed", type=int)
    renamed("--latency", "latency_T", type=float, help="one-way T")
    p.add_argument("--alpha", type=int)
    p.add_argument("--theta-low", type=float)
    p.add_argument("--theta-high", type=float)
    p.add_argument("--window", type=float)
    p.add_argument(
        "--policy",
        help="mode policy for the adaptive scheme (LOCAL <-> BORROWING "
        "decision rule), by registry name; 'linear' (the default) is "
        "the paper's sliding-window predictor — see docs/POLICIES.md",
    )
    p.add_argument(
        "--faults", type=float, metavar="P",
        help="inject uniform message loss with probability P (enables "
        "the hardened protocol stack: ack/retry/dedup); fine-grained "
        "fault plans go in a --config file's \"faults\" section",
    )
    source = p.add_mutually_exclusive_group()
    source.add_argument(
        "--config", type=str, default=None, metavar="FILE",
        help="load the scenario from a JSON file; scenario flags override its fields",
    )
    source.add_argument(
        "--preset", type=str, default=None,
        help="use a named preset workload (see --list-presets); scenario "
        "flags override its fields",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Simulate distributed dynamic channel allocation "
        "(reproduction of Kahol et al., 1998).  Snapshots: "
        "python -m repro snapshot {take,run,inspect} --help.",
        parents=[_scenario_flags()],
    )
    p.add_argument(
        "--all-schemes", action="store_true",
        help="run every scheme on the same workload and print a comparison",
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
        "--no-cache", action="store_true",
        help="ignore the persistent result cache (.repro-cache/) and "
        "always simulate",
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
    }


def _snapshot_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro snapshot",
        description="Take, run and inspect snapshot files (see repro.snap).",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    take = sub.add_parser(
        "take", parents=[_scenario_flags()],
        help="run the scenario to sim-time T and write a snapshot taken "
        "at the first safe point (T=0 takes a cold t0 snapshot; see "
        "docs/TUTORIAL.md)",
    )
    take.add_argument(
        "--at", type=float, required=True, metavar="T",
        help="capture instant, 0 <= T < duration",
    )
    take.add_argument(
        "--out", type=str, default="checkpoint.snap", metavar="PATH",
        help="snapshot output path",
    )
    run = sub.add_parser(
        "run", help="restore a snapshot, run it to its horizon and report",
    )
    run.add_argument("file", metavar="PATH")
    run.add_argument(
        "--fork-seed", type=int, default=None, metavar="K",
        help="fork the snapshot under seed K (reseeds every post-fork "
        "random stream) instead of exactly continuing the recorded run",
    )
    inspect = sub.add_parser("inspect", help="print a snapshot's identity and contents summary")
    inspect.add_argument("files", nargs="+", metavar="FILE")
    for command in (run, inspect):
        command.add_argument("--json", action="store_true", help="JSON output")
    return p


def snapshot_main(argv) -> int:
    """``python -m repro snapshot {take,run,inspect}``."""
    p = _snapshot_parser()
    args = p.parse_args(argv)
    if args.cmd == "take":
        from .snap import run_to_checkpoint, save_snapshot

        scenario = _scenarios(args, p)[0]
        try:
            snap = run_to_checkpoint(scenario, args.at)
        except CompatibilityError:
            raise
        except ValueError as exc:
            p.error(str(exc))
        save_snapshot(snap, args.out)
        kind = "warm" if snap.started else "cold (t0)"
        print(f"{kind} snapshot of scheme={scenario.scheme} at t={snap.time:g} -> {args.out}")
        print(f"content hash: {snap.content_hash()}")
        return 0
    if args.cmd == "run":
        from .snap import run_from_snapshot

        snap = _load_snapshot(p, args.file)
        return _print_reports(args, [run_from_snapshot(snap, seed=args.fork_seed)])

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


def _scenarios(args, parser: argparse.ArgumentParser, every_scheme=False) -> list:
    """The scenario of the requested scheme (of every scheme with
    ``every_scheme``): the source with every scenario flag given set on
    it; a usage error if a flag cannot apply or they make no scenario."""
    given = {f.name: getattr(args, f.name) for f in fields(Scenario) if hasattr(args, f.name)}
    if every_scheme and "scheme" in given:
        parser.error("argument --scheme: not allowed with argument --all-schemes")
    if args.hot_load is not None and "pattern" not in given:
        parser.error("argument --hot-load: not allowed without argument --hotspot")
    if "policy" in given:
        from .policies import policy_names

        if given["policy"] not in policy_names():
            choices = ", ".join(map(repr, policy_names()))
            parser.error(f"argument --policy: invalid choice: {given['policy']!r} "
                         f"(choose from {choices})")
    try:
        if args.config:
            with open(args.config) as fh:
                source = Scenario.from_json(fh.read())
        elif args.preset:
            from .harness import preset

            source = preset(args.preset)
        else:
            # Scenario's defaults, but a shorter run.
            source = Scenario(duration=3000.0, warmup=400.0)
        if "faults" in given:
            from .faults import FaultPlan

            given["faults"] = FaultPlan.uniform_loss(given["faults"])
        hot_cells = given.pop("pattern", None)
        scenario = source.with_(**given)
        if hot_cells is not None:
            hot_load = 20.0 if args.hot_load is None else args.hot_load
            scenario = scenario.with_(pattern=HotspotLoad(
                base_rate=scenario.arrival_rate,
                hot_cells=hot_cells,
                hot_rate=hot_load / scenario.mean_holding,
            ))
        schemes = sorted(SCHEMES) if every_scheme else [scenario.scheme]
        return [scenario.with_(scheme=s) for s in schemes]
    except (OSError, ValueError) as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "snapshot":
            return snapshot_main(argv[1:])
        parser = build_parser()
        return _run(parser.parse_args(argv), parser)
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
    if args.list_presets:
        from .harness import preset_names

        for name in preset_names():
            print(name)
        return 0

    scenarios = _scenarios(args, parser, every_scheme=args.all_schemes)
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

    # run_cells validates every cell before it looks anything up or runs it.
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
        from .harness import render_table

        scenario = reports[0].scenario
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
                title=f"load={scenario.offered_load} Erlang/cell, seed={scenario.seed}",
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
