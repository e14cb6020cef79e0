"""CLI entry point: ``python -m tools.check [paths...]``.

Exits 1 if any finding is reported, 0 on a clean tree, 2 on a path
that does not exist.  ``--format json`` prints the findings as a list
of :meth:`Finding.to_dict` rows (code, path, line, col, message,
rule-doc URL); ``--dot FILE`` writes the message-flow graph of the
checked files.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional, Sequence

from .engine import check_files, iter_python_files
from .flow import render_dot
from .rules import RULES


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools.check",
        description="The repository's static checks (SIM001-SIM012, "
        "ANA101-ANA401, SIM100).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tools", "benchmarks", "examples", "bench"],
        help="files or directories to check "
        "(default: src tools benchmarks examples bench)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--dot",
        metavar="FILE",
        default=None,
        help="write the message-flow graph (GraphViz DOT) to FILE",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.description}")
        return 0

    missing = [p for p in args.paths if not pathlib.Path(p).exists()]
    if missing:
        for p in missing:
            print(f"error: no such file or directory: {p}", file=sys.stderr)
        return 2

    findings, files = check_files(iter_python_files(args.paths))
    if args.dot:
        pathlib.Path(args.dot).write_text(render_dot(files))
    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
