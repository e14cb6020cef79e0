"""CLI entry point: ``python -m tools.analyze [paths...]``.

Runs all four passes (message-flow, shard-safety, snapshot-escape,
determinism lint) over the given paths (default ``src/repro``) and
exits 1 on any finding.  ``--format json`` emits the shared finding
schema (code, path, line, col, message, rule-doc URL) also used by
``python -m tools.check --format json``, plus the two safety verdicts.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Sequence

from tools.check.engine import Finding, check_paths, iter_python_files

from .determinism import DETERMINISM_RULES
from .flow import render_dot, run_flow_pass
from .model import build_model
from .shard import run_shard_pass
from .snapshot import run_snapshot_pass

_PASSES = (
    ("flow", "message-flow conformance (ANA101-ANA104)"),
    ("shard", "shard-safety escape analysis (ANA201-ANA204)"),
    ("snapshot", "snapshot-escape analysis (ANA301-ANA303)"),
    ("determinism", "determinism lint family (SIM006-SIM009)"),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools.analyze",
        description="Whole-program protocol conformance analyzer.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--dot",
        metavar="FILE",
        default=None,
        help="write the message-flow graph (GraphViz DOT) to FILE",
    )
    parser.add_argument(
        "--shard-report",
        metavar="FILE",
        default=None,
        help="write the machine-readable shard-safety report to FILE",
    )
    parser.add_argument(
        "--snapshot-report",
        metavar="FILE",
        default=None,
        help="write the machine-readable snapshot-safety report to FILE",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="print the pass registry and exit",
    )
    args = parser.parse_args(argv)

    if args.list_passes:
        for name, description in _PASSES:
            print(f"{name:13s} {description}")
        for rule in DETERMINISM_RULES:
            print(f"{rule.code:13s} {rule.description}")
        return 0

    missing = [p for p in args.paths if not pathlib.Path(p).exists()]
    if missing:
        for p in missing:
            print(f"error: no such file or directory: {p}", file=sys.stderr)
        return 2

    files = list(iter_python_files(args.paths))
    model = build_model(files)
    findings: List[Finding] = []
    findings.extend(run_flow_pass(model))
    shard_findings, shard_report = run_shard_pass(files)
    findings.extend(shard_findings)
    snapshot_findings, snapshot_report = run_snapshot_pass(files)
    findings.extend(snapshot_findings)
    findings.extend(check_paths(args.paths, rules=DETERMINISM_RULES))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))

    if args.dot:
        pathlib.Path(args.dot).write_text(render_dot(model))
    if args.shard_report:
        pathlib.Path(args.shard_report).write_text(
            json.dumps(shard_report, indent=2) + "\n"
        )
    if args.snapshot_report:
        pathlib.Path(args.snapshot_report).write_text(
            json.dumps(snapshot_report, indent=2) + "\n"
        )

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in findings],
                    "shard_verdict": shard_report["verdict"],
                    "snapshot_verdict": snapshot_report["verdict"],
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
