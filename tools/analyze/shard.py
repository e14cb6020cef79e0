"""Pass 2 — shard-safety escape analysis (ANA201–ANA204).

Guards what the paper's system model assumes — mobile service stations
interact *only* by messages — and what snapshots, warm forks and the
fast lane depend on: a cell's state is the station's own, so capturing,
forking or parking one cell cannot miss state hidden somewhere else.
Any read or write of *another cell's* mutable state that does not
travel through ``Network.send`` or the probe bus breaks both.
"Shard-safe" names the property: cut the grid anywhere and nothing
but messages crosses the cut.  This pass flags the cross-cell
shortcuts statically:

* **ANA201** — protocol/kernel code dereferencing another node's
  object: attribute access on a ``.node(...)`` / ``.nodes[...]`` call
  result or any use of the fabric's ``._nodes`` registry outside the
  fabric itself.  The network (``sim/network.py``) is the fabric, and
  the interference monitor plus tracing/obs readers are allowlisted
  observers (probe-bus consumers that never write protocol state).
* **ANA202** — mutable class-level attribute (``list``/``dict``/``set``
  literal or constructor) on a class in protocol/core scope: class
  attributes are process-global, i.e. silently shared across every
  cell in the process — state must live per instance.
* **ANA203** — mutable module-level global in simulation scope:
  module globals are shared by every cell of a run and by successive
  runs in one process (a pool worker, a fork loop), and no snapshot
  sees them, so any mutable one is a hidden cross-cell channel.
  Dunder names (``__all__``) are exempt.
* **ANA204** — fluid-state access from a protocol message handler:
  ``self.fastlane`` touched inside an ``_on_*`` / ``_handle_*``
  method.  By the time a handler runs, ``MSS.on_message`` has already
  materialized the cell (the lane's one sanctioned dispatch hook);
  a handler reaching into the lane again either re-promotes a cell
  mid-settlement or reads fluid occupancy that the handler's own
  delivery just invalidated.  Protocol code interacts with the lane
  only via the ``fastlane_eligible`` / ``fastlane_reconcile`` hooks
  and the ``on_message`` / ``_enter_borrowing`` notify sites.

Besides findings, the pass produces a machine-readable report (the
``--shard-report`` CI artifact) stating the files scanned, the
allowlist applied, and a ``safe``/``unsafe`` verdict that CI gates
on.
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePath
from typing import Any, Dict, List, Tuple

from tools.check.engine import Finding

__all__ = ["run_shard_pass", "SHARD_SCOPE", "SHARD_ALLOWLIST"]

#: Code that runs *as* a cell or underneath one: protocols, core, kernel.
SHARD_SCOPE = (
    "src/repro/protocols",
    "src/repro/core",
    "src/repro/policies",
    "src/repro/sim",
)

#: Files allowed to touch other nodes' state: the fabric itself plus
#: sanctioned observation-only readers.
SHARD_ALLOWLIST = (
    "src/repro/sim/network.py",  # the fabric owns the node registry
    "src/repro/protocols/monitor.py",  # global safety oracle (observer)
    "src/repro/protocols/tracing.py",  # trace decoration (observer)
    # Import-time decorator registry: append-only, populated before any
    # kernel starts, byte-identical in every worker process.
    "src/repro/policies/base.py",
)

#: Constructor names whose value is a shared mutable container.
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter"}
)


def _in_scope(posix: str) -> bool:
    if any(fragment in posix for fragment in SHARD_ALLOWLIST):
        return False
    return any(fragment in posix for fragment in SHARD_SCOPE)


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        return name in _MUTABLE_CALLS
    return False


def _peer_access_findings(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    covered: set = set()  # inner ``._nodes`` nodes already reported
    for node in ast.walk(tree):
        # another_node = <x>.node(j)... then .attr — flag the direct
        # dereference form <x>.node(j).attr / <x>.nodes[j].attr.
        if isinstance(node, ast.Attribute):
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "node"
            ):
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        node.col_offset,
                        "ANA201",
                        f"cross-cell state access: .node(...).{node.attr} "
                        "dereferences another cell's object — stations "
                        "interact only by messages; communicate via "
                        "Network.send or the probe bus",
                    )
                )
            elif (
                isinstance(value, ast.Subscript)
                and isinstance(value.value, ast.Attribute)
                and value.value.attr in ("_nodes", "nodes")
            ):
                covered.add(id(value.value))  # one finding per dereference
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        node.col_offset,
                        "ANA201",
                        f"cross-cell state access: nodes[...].{node.attr} "
                        "reaches into the fabric's registry — stations "
                        "interact only by messages",
                    )
                )
            elif node.attr == "_nodes" and id(node) not in covered:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        node.col_offset,
                        "ANA201",
                        "use of the fabric's private node registry "
                        "(._nodes) outside sim/network.py — shard-unsafe",
                    )
                )
    return findings


def _class_attr_findings(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    if "src/repro/sim" in path:
        return findings  # kernel classes are per-run singletons
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
                            path,
                            stmt.lineno,
                            stmt.col_offset,
                            "ANA202",
                            f"mutable class attribute {node.name}."
                            f"{target.id} is shared by every cell in the "
                            "process — move it into __init__ so each "
                            "instance owns its state",
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
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                findings.append(
                    Finding(
                        path,
                        stmt.lineno,
                        stmt.col_offset,
                        "ANA203",
                        f"mutable module-level global {target.id!r} in "
                        "simulation scope — shared by every cell and "
                        "every run in the process, unseen by snapshots; "
                        "thread it through constructors instead",
                    )
                )
    return findings


def _fluid_access_findings(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    if "src/repro/sim" in path:
        return findings  # the kernel has no protocol handlers
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for func in cls.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not func.name.startswith(("_on_", "_handle_")):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "fastlane"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    findings.append(
                        Finding(
                            path,
                            node.lineno,
                            node.col_offset,
                            "ANA204",
                            f"fluid-state access: {cls.name}.{func.name} "
                            "touches self.fastlane inside a message "
                            "handler — on_message already materialized "
                            "this cell before dispatch; interact with "
                            "the lane only via the fastlane_eligible/"
                            "fastlane_reconcile hooks",
                        )
                    )
    return findings


def run_shard_pass(
    files: List[str],
) -> Tuple[List[Finding], Dict[str, Any]]:
    """(findings, machine-readable shard-safety report) for ``files``."""
    findings: List[Finding] = []
    scanned: List[str] = []
    skipped: List[str] = []
    for path in files:
        posix = PurePath(path).as_posix()
        if any(fragment in posix for fragment in SHARD_ALLOWLIST):
            skipped.append(posix)
            continue
        if not any(fragment in posix for fragment in SHARD_SCOPE):
            continue
        try:
            tree = ast.parse(Path(path).read_text(), filename=path)
        except SyntaxError:
            continue  # the line lint reports SIM000 for this file
        scanned.append(posix)
        findings.extend(_peer_access_findings(posix, tree))
        findings.extend(_class_attr_findings(posix, tree))
        findings.extend(_module_global_findings(posix, tree))
        findings.extend(_fluid_access_findings(posix, tree))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    report: Dict[str, Any] = {
        "pass": "shard-safety",
        "scope": list(SHARD_SCOPE),
        "allowlist": list(SHARD_ALLOWLIST),
        "files_scanned": len(scanned),
        "files_allowlisted": skipped,
        "escapes": [f.to_dict() for f in findings],
        "verdict": "safe" if not findings else "unsafe",
    }
    return findings, report
