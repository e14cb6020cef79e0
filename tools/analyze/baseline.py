"""Committed-baseline workflow for accepted analyzer findings.

The analyzer fails only on findings *not* in the committed baseline
(``tools/analyze/baseline.json``), so a pre-existing accepted finding —
e.g. a dict-iteration fan-out that is deterministic within a run and
queued for sorting — does not block CI while still being on the record.

Baseline entries are keyed ``(code, path, message)`` — deliberately
*line-insensitive*, so unrelated edits shifting a finding up or down a
few lines do not invalidate the acceptance.  Changing the finding's
file, rule, or message (which embeds the offending construct) does.

Workflow:

* ``python -m tools.analyze`` — fails (exit 1) on unbaselined findings;
  also lists stale baseline entries (accepted findings that no longer
  fire) as warnings, so the file shrinks over time.
* ``python -m tools.analyze --write-baseline`` — regenerate the file
  from the current findings (review the diff like any other code).
"""

from __future__ import annotations

import json
from pathlib import Path, PurePath
from typing import Any, Dict, List, Sequence, Set, Tuple

from tools.check.engine import Finding

__all__ = [
    "DEFAULT_BASELINE",
    "baseline_key",
    "load_baseline",
    "write_baseline",
    "partition",
]

DEFAULT_BASELINE = "tools/analyze/baseline.json"

Key = Tuple[str, str, str]


def _normalize(path: str) -> str:
    """Repo-relative POSIX form, robust to absolute invocation paths."""
    posix = PurePath(path).as_posix()
    for anchor in ("src/", "tools/", "tests/"):
        idx = posix.find(anchor)
        if idx >= 0:
            return posix[idx:]
    return posix


def baseline_key(finding: Finding) -> Key:
    return (finding.code, _normalize(finding.path), finding.message)


def load_baseline(path: str) -> Set[Key]:
    """Accepted-finding keys from ``path``; empty set if absent."""
    file = Path(path)
    if not file.exists():
        return set()
    data = json.loads(file.read_text())
    return {
        (entry["code"], entry["path"], entry["message"])
        for entry in data.get("findings", [])
    }


def write_baseline(findings: Sequence[Finding], path: str) -> None:
    """Serialize ``findings`` as the new accepted baseline."""
    entries: List[Dict[str, Any]] = [
        {"code": code, "path": rel, "message": message}
        for code, rel, message in sorted({baseline_key(f) for f in findings})
    ]
    payload = {
        "comment": (
            "Accepted tools.analyze findings. Regenerate with "
            "'python -m tools.analyze --write-baseline' and review the "
            "diff; see docs/CHECKS.md for the workflow."
        ),
        "version": 1,
        "findings": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def partition(
    findings: Sequence[Finding], baseline: Set[Key]
) -> Tuple[List[Finding], List[Finding], List[Key]]:
    """Split into (new, accepted) findings plus stale baseline keys."""
    new: List[Finding] = []
    accepted: List[Finding] = []
    seen: Set[Key] = set()
    for finding in findings:
        key = baseline_key(finding)
        seen.add(key)
        if key in baseline:
            accepted.append(finding)
        else:
            new.append(finding)
    stale = sorted(baseline - seen)
    return new, accepted, stale
