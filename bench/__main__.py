"""``python -m bench``: run the benchmark, compare two results, regenerate goldens.

Three forms:

``python -m bench [--seed 101] [--out DIR] [--quick]``
    Every workload: warm-up child, timed children, traced child; prints
    every metric by name with its unit and writes ``DIR/results.json``
    plus one Chrome trace per workload.

``python -m bench --workload NAME --seed N --seconds S --trace 0|1``
    One workload, for a driver: the last line of stdout is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
    A run is a fixed number of children (``spec.REPEATS``), sized to take
    ``run_seconds``; ``--seconds`` is accepted and does not change it, so
    that any two results hold the same number of samples.

``python -m bench compare A.json B.json`` / ``python -m bench golden --seed S``
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List

from . import ROOT, SRC
from . import compare, runner, spec


def print_record(record: Dict[str, Any], contract: Dict[str, Any]) -> None:
    """Every metric of one workload by name with unit, then the ledger."""
    print(
        f"  ops {record['attempted']}  ops_failed {record['failed']}  "
        f"golden: {record['golden']}"
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure.splitlines()[0]}")
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    for name, metric in record["metrics"].items():
        line = f"  {name:<34}{metric['value']:>16.6g} {metric['unit']}"
        stats = record["stats"].get(name)
        if name in bounds and stats:
            line += (
                f"   n={stats['n']} min {stats['min']:.4g} q1 {stats['q1']:.4g} "
                f"q3 {stats['q3']:.4g} max {stats['max']:.4g} spread {stats['spread']:.1%}"
                f"  (bound {bounds[name]:.0%})"
            )
        print(line)
    if "ledger" in record:
        print(f"  ledger of the traced run ({record['traced_run_wall_s']:.3f} s wall):")
        for layer, entry in record["ledger"].items():
            print(f"    {layer:<14}{entry['self_s']:>10.4f} s {entry['share']:>7.1%}")


def run_all(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    repeats = spec.QUICK_REPEATS if args.quick else spec.REPEATS
    results = {
        "schema": 1,
        "provenance": runner.provenance(args.seed, repeats, args.quick),
        "quick": args.quick,
        "workloads": {},
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    started = time.monotonic()
    for name in spec.workload_names(contract):
        print(f"{name}")
        record = runner.run_workload(
            contract, name, args.seed, quick=args.quick, out_dir=args.out,
        )
        print_record(record, contract)
        results["workloads"][name] = record
    results["provenance"]["total_wall_s"] = time.monotonic() - started
    if args.out:
        path = os.path.join(args.out, "results.json")
        with open(path, "w") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
        print(f"results written to {path}")
    failed = sum(r["failed"] for r in results["workloads"].values())
    print(f"total {results['provenance']['total_wall_s']:.1f} s, {failed} failed operations")
    return 1 if failed else 0


def run_one(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """The driver's form: one workload, one JSON object on the last line."""
    traced = bool(args.trace)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    record = runner.run_workload(
        contract, args.workload, args.seed,
        quick=args.quick, timed=not traced, traced=traced,
    )
    print_record(record, contract)
    wanted = contract["per_layer"] if traced else contract["end_to_end"]
    metrics = {
        m["name"]: record["metrics"][m["name"]]
        for m in wanted if m["name"] in record["metrics"]
    }
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


def golden(argv: List[str], contract: Dict[str, Any]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench golden")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(f"regenerating goldens of seed {args.seed} (benchmark issues only)")
    goldens = runner.load_golden()
    goldens[str(args.seed)] = runner.make_golden(contract, args.seed)
    with open(runner.GOLDEN_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: List[str]) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    contract = spec.load_contract()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m bench compare A.json B.json", file=sys.stderr)
            return 2
        return compare.main(argv[1], argv[2], contract)
    if argv[:1] == ["golden"]:
        return golden(argv[1:], contract)

    names = spec.workload_names(contract)
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--out", metavar="DIR", help="write results.json and traces here")
    parser.add_argument("--quick", action="store_true",
                        help="short horizons, 2 repeats; a smoke run, never comparable")
    parser.add_argument("--workload", choices=names, help="driver form: run one workload")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="driver form: accepted; a run is a fixed number of children")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
