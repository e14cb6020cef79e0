"""State-isolation rules (ANA201–ANA203, ANA301).

The paper's system model is that mobile service stations share nothing
and interact *only* by messages; the reproduction adds that a run's
whole mutable state is reachable from its simulation objects, so a
snapshot captures it and a restore, a fork or a pool worker continues
bit for bit.  These rules flag the shortcuts around both:

* **ANA201** — cross-cell access: code dereferencing another node's
  object instead of sending it a message.
* **ANA202** / **ANA203** — process-shared mutable state: a mutable
  class attribute or module global is shared by every cell of a run
  and every run of the process, and no snapshot sees it.
* **ANA301** — a random generator constructed outside the stream
  registry: state no snapshot captures.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from .engine import AnyRule, CheckContext, Match, Rule

__all__ = ["ISOLATION_RULES"]

#: Constructor names whose value is a shared mutable container.
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter"}
)


def _called_name(func: ast.expr) -> Optional[str]:
    """The last name of a call target (``a.b.c(...)`` -> ``c``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _mutable_bindings(body: List[ast.stmt]) -> Iterator[Tuple[ast.stmt, str]]:
    """(statement, name) per non-dunder name bound to a mutable container."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not (
            isinstance(
                value,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            )
            or isinstance(value, ast.Call)
            and _called_name(value.func) in _MUTABLE_CALLS
        ):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield stmt, target.id


class CellRule(Rule):
    """Scope of rules about code that runs as a cell: schemes and policies."""

    paths = ("src/repro/protocols", "src/repro/core", "src/repro/policies")


class StatefulRule(Rule):
    """Scope of rules about state a snapshot must capture: everything the
    state codec walks, plus the kernel it rides on."""

    paths = CellRule.paths + (
        "src/repro/sim",
        "src/repro/faults",
        "src/repro/traffic",
        "src/repro/metrics",
        "src/repro/obs",
        "src/repro/verify",
        "src/repro/snap",
    )


class NoCrossCellAccess(Rule):
    """ANA201: stations interact only by messages.

    Flags attribute access on a ``.node(...)`` / ``.nodes[...]`` result
    and any use of the fabric's ``._nodes`` registry.  Excluded:
    ``sim/network.py`` — it *is* the fabric and owns the registry.
    """

    code = "ANA201"
    description = "no cross-cell state access (communicate via Network.send or probes)"
    paths = CellRule.paths + ("src/repro/sim",)
    excludes = ("src/repro/sim/network.py",)

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        covered = set()  # inner ``._nodes`` nodes already reported
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "node"
            ):
                yield node, (
                    f"cross-cell state access: .node(...).{node.attr} "
                    "dereferences another cell's object — stations "
                    "interact only by messages; communicate via "
                    "Network.send or the probe bus"
                )
            elif (
                isinstance(value, ast.Subscript)
                and isinstance(value.value, ast.Attribute)
                and value.value.attr in ("_nodes", "nodes")
            ):
                covered.add(id(value.value))  # one finding per dereference
                yield node, (
                    f"cross-cell state access: nodes[...].{node.attr} "
                    "reaches into the fabric's registry — stations "
                    "interact only by messages"
                )
            elif node.attr == "_nodes" and id(node) not in covered:
                yield node, (
                    "use of the fabric's private node registry "
                    "(._nodes) outside sim/network.py — stations interact only by messages"
                )


class NoMutableClassAttribute(StatefulRule):
    """ANA202: state lives per instance, never on the class.

    Excluded: ``src/repro/sim`` — kernel classes are per-run singletons,
    so a class attribute there is not shared between cells.
    """

    code = "ANA202"
    description = "no mutable class-level attributes in simulation state (shared by every cell)"
    excludes = ("src/repro/sim",)

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt, name in _mutable_bindings(node.body):
                    yield stmt, (
                        f"mutable class attribute {node.name}.{name} is "
                        "shared by every cell in the process — move it "
                        "into __init__ so each instance owns its state"
                    )


class NoMutableModuleGlobal(StatefulRule):
    """ANA203: no mutable module-level global (dunders like ``__all__`` aside)."""

    code = "ANA203"
    description = "no mutable module-level globals in simulation state (hidden shared channel)"

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for stmt, name in _mutable_bindings(tree.body):
            yield stmt, (
                f"mutable module-level global {name!r} in "
                "simulation scope — shared by every cell and "
                "every run in the process, unseen by snapshots; "
                "thread it through constructors instead"
            )


class NoUnregisteredGenerator(StatefulRule):
    """ANA301: every generator comes from the stream registry.

    What SIM002 allows — constructing a seeded generator — is still an
    escape when the :class:`~repro.sim.rng.StreamRegistry` never handed
    it out: no snapshot captures its state.  Matched: the four numpy
    constructors a stream is made of, dotted or imported bare.
    Excluded: ``sim/rng.py`` (the registry itself) and
    ``core/adaptive.py``, whose tie-breaking ``_best_rng`` the station's
    own snapshot hook captures and restores (DESIGN.md §9) — the bar a
    new entry must clear.
    """

    code = "ANA301"
    description = (
        "no default_rng / Generator / PCG64 / SeedSequence outside the stream "
        "registry (state escapes snapshots)"
    )
    excludes = ("src/repro/sim/rng.py", "src/repro/core/adaptive.py")

    CONSTRUCTORS = frozenset({"default_rng", "Generator", "PCG64", "SeedSequence"})

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.dotted_name(node.func) or _called_name(node.func) or ""
            last = name.rsplit(".", 1)[-1]
            if last in self.CONSTRUCTORS:
                yield node, (
                    f"{last}(...) makes random state the "
                    "StreamRegistry never handed out — it is invisible "
                    "to checkpoint/restore; use streams.stream(...) or "
                    "streams.uniforms(...) (or capture it in its owner's "
                    "state_dict / load_state and allowlist the file)"
                )


ISOLATION_RULES: List[AnyRule] = [
    NoCrossCellAccess(),
    NoMutableClassAttribute(),
    NoMutableModuleGlobal(),
    NoUnregisteredGenerator(),
]
