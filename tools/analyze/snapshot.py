"""Pass 4 — snapshot-escape analysis (ANA301–ANA303).

The checkpoint/restore subsystem (``repro.snap``) promises that a
restored simulation continues *bit-for-bit*: every piece of mutable
simulation state must either live on an object the state codec walks,
or draw from an RNG registered in the
:class:`~repro.sim.rng.StreamRegistry` (whose substream states are
captured wholesale).  State that escapes both silently makes snapshots
lie — the restored run diverges with no error anywhere.  This pass
flags the escape hatches statically:

* **ANA301** — unregistered randomness in simulation scope: calls to
  the stdlib ``random`` module, to legacy ``np.random.*`` module-level
  functions (global hidden state), or to ``default_rng(...)`` outside
  the stream registry.  A generator the registry never handed out has
  state no snapshot captures.  Allowlisted: ``sim/rng.py`` (the
  registry itself) and the adaptive scheme's tie-breaking ``_best_rng``
  in ``core/adaptive.py`` — that one generator is *explicitly*
  captured and restored by the station's own snapshot hook (see
  DESIGN.md §9), which is exactly the bar a new allowlist entry must
  clear.
* **ANA302** — mutable module-level global in snapshot scope beyond
  the shard-scope dirs ANA203 already covers (faults, traffic,
  metrics, obs, verify): module globals are invisible to the state
  codec, so a mutable one is state a snapshot silently drops.
* **ANA303** — mutable class-level attribute in those same dirs
  (companion of ANA202): class attributes are process-wide, not
  per-instance, so the per-station capture walk never sees them.

Besides findings, the pass emits a machine-readable report (the
``--snapshot-report`` CI artifact) with a ``safe``/``unsafe`` verdict
for CI to gate on, exactly like the shard-safety verdict.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Any, Dict, List, Tuple

from tools.check.engine import Finding

__all__ = ["run_snapshot_pass", "SNAP_SCOPE", "SNAP_RNG_ALLOWLIST"]

#: Code whose mutable state must survive checkpoint/restore: everything
#: the state codec walks, plus the kernel it rides on.
SNAP_SCOPE = (
    "src/repro/sim",
    "src/repro/protocols",
    "src/repro/core",
    "src/repro/policies",
    "src/repro/faults",
    "src/repro/traffic",
    "src/repro/metrics",
    "src/repro/obs",
    "src/repro/verify",
    "src/repro/snap",
)

#: Dirs already swept for mutable globals/class attrs by ANA202/ANA203
#: (shard scope) — ANA302/ANA303 cover only the remainder, so one
#: defect never fires under two codes.
_SHARD_COVERED = (
    "src/repro/protocols",
    "src/repro/core",
    "src/repro/sim",
)

#: Files allowed to create generators outside the registry.  Every
#: entry must name state the snapshot codec captures explicitly.
SNAP_RNG_ALLOWLIST = (
    "src/repro/sim/rng.py",      # the StreamRegistry itself
    "src/repro/core/adaptive.py",  # _best_rng: its state_dict / load_state hook
)

#: Legacy module-level numpy RNG entry points (global hidden state).
_NP_MODULE_FNS = frozenset({
    "random", "rand", "randn", "randint", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "exponential",
    "poisson", "binomial", "seed", "get_state", "set_state",
})

#: Constructor names whose value is a shared mutable container.
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter"}
)


def _in_scope(posix: str) -> bool:
    return any(fragment in posix for fragment in SNAP_SCOPE)


def _rng_allowlisted(posix: str) -> bool:
    return any(fragment in posix for fragment in SNAP_RNG_ALLOWLIST)


def _in_global_scope_only(posix: str) -> bool:
    """True when the file is snapshot scope ANA203/ANA202 do not cover."""
    return not any(fragment in posix for fragment in _SHARD_COVERED)


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        return name in _MUTABLE_CALLS
    return False


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of an attribute chain (``np.random.rand``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _rng_findings(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    # Names bound from ``import random`` / ``from numpy import random``.
    random_aliases = {"random"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    findings.append(
                        Finding(
                            path, node.lineno, node.col_offset, "ANA301",
                            f"stdlib random.{alias.name} imported in "
                            "simulation scope — its global state escapes "
                            "snapshots; draw from a StreamRegistry "
                            "substream instead",
                        )
                    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if not dotted:
            continue
        head, _, tail = dotted.rpartition(".")
        if dotted.endswith("default_rng") and not _rng_allowlisted(path):
            findings.append(
                Finding(
                    path, node.lineno, node.col_offset, "ANA301",
                    "default_rng(...) creates a generator the "
                    "StreamRegistry never handed out — its state is "
                    "invisible to checkpoint/restore; use "
                    "streams.stream(...) (or add an explicit capture "
                    "to repro.snap.state and allowlist the file)",
                )
            )
        elif head in ("np.random", "numpy.random") and tail in _NP_MODULE_FNS:
            findings.append(
                Finding(
                    path, node.lineno, node.col_offset, "ANA301",
                    f"legacy module-level {dotted}(...) draws from "
                    "numpy's hidden global state — unseeded, "
                    "process-wide, and not captured by snapshots; use "
                    "a StreamRegistry substream",
                )
            )
        elif head in random_aliases and head == "random":
            findings.append(
                Finding(
                    path, node.lineno, node.col_offset, "ANA301",
                    f"stdlib {dotted}(...) draws from the interpreter's "
                    "global RNG — not captured by snapshots; use a "
                    "StreamRegistry substream",
                )
            )
    return findings


def _module_global_findings(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    for stmt in tree.body:  # module level only, by construction
        targets: List[ast.expr] = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("_"):
                findings.append(
                    Finding(
                        path, stmt.lineno, stmt.col_offset, "ANA302",
                        f"mutable module-level global {target.id!r} in "
                        "snapshot scope — the state codec never walks "
                        "module globals, so this state silently escapes "
                        "checkpoints; thread it through constructors",
                    )
                )
    return findings


def _class_attr_findings(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            targets: List[ast.expr] = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    findings.append(
                        Finding(
                            path, stmt.lineno, stmt.col_offset, "ANA303",
                            f"mutable class attribute {node.name}."
                            f"{target.id} is process-wide, not "
                            "per-instance — the per-object capture walk "
                            "never sees it; move it into __init__",
                        )
                    )
    return findings


def run_snapshot_pass(
    files: List[str],
) -> Tuple[List[Finding], Dict[str, Any]]:
    """(findings, machine-readable snapshot-safety report) for ``files``."""
    findings: List[Finding] = []
    scanned: List[str] = []
    skipped: List[str] = []
    for path in files:
        posix = PurePath(path).as_posix()
        if not _in_scope(posix):
            skipped.append(posix)
            continue
        scanned.append(posix)
        try:
            tree = ast.parse(
                open(path, encoding="utf-8").read(), filename=path
            )
        except SyntaxError as exc:  # pragma: no cover - repo parses
            findings.append(
                Finding(path, exc.lineno or 1, 0, "ANA301", f"syntax error: {exc}")
            )
            continue
        findings.extend(_rng_findings(posix, tree))
        if _in_global_scope_only(posix):
            findings.extend(_module_global_findings(posix, tree))
            findings.extend(_class_attr_findings(posix, tree))
    report = {
        "pass": "snapshot-escape",
        "rules": ["ANA301", "ANA302", "ANA303"],
        "scope": list(SNAP_SCOPE),
        "rng_allowlist": list(SNAP_RNG_ALLOWLIST),
        "files_scanned": len(scanned),
        "findings": [f.to_dict() for f in findings],
        "verdict": "safe" if not findings else "unsafe",
    }
    return findings, report
