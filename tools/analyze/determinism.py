"""Pass 3 — determinism lint family (SIM006–SIM009).

Rules over the same engine as ``tools.check`` (path scoping, alias
resolution, ``# repro: noqa`` pragmas all apply), but owned by the
whole-program analyzer because their findings gate row identity
across lanes (``workers=N``, restore, fork) rather than day-to-day
edits:

* **SIM006** — iteration over a ``set``/``dict`` view that *feeds
  event scheduling or message fan-out*.  Set order is hash-dependent
  across processes; dict order is insertion order, which differs
  between a fresh stack and an equivalent restored one.  Either way
  the event/message order stops being a pure function of the scenario.
* **SIM007** — ordering by object identity or hash (``sorted(...,
  key=id)``, ``min(..., key=hash)`` and friends): differs run to run.
* **SIM008** — ``dict.popitem()``: LIFO of insertion order, an easy
  accidental dependency on construction history.
* **SIM009** — environment-variable-dependent control flow inside
  simulation code (``os.environ`` / ``os.getenv``): host state leaking
  into simulated behavior.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from tools.check.engine import CheckContext
from tools.check.rules import Rule

__all__ = ["DETERMINISM_RULES"]

Match = Tuple[ast.AST, str]

#: Simulation code: everything that runs inside the event loop.
_SIM_SCOPE = ("src/repro/sim", "src/repro/protocols", "src/repro/core")

#: Call names that schedule events or fan out messages.
_EFFECT_CALLS = frozenset(
    {"send", "multicast", "_send", "_broadcast", "timeout", "schedule", "process"}
)


def _is_unordered_iterable(node: ast.expr) -> bool:
    """Set-typed expressions and dict views, judged syntactically."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "keys",
            "values",
            "items",
        ):
            return True
    return False


def _has_effect_call(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _EFFECT_CALLS
            ):
                return True
    return False


class NoUnorderedFanout(Rule):
    """SIM006: sort before iterating a set/dict into sends or events."""

    code = "SIM006"
    description = (
        "no set/dict iteration feeding event scheduling or message fan-out "
        "(sort first for a deterministic order)"
    )
    paths = _SIM_SCOPE

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not _is_unordered_iterable(node.iter):
                continue
            if _has_effect_call(node.body):
                yield node, (
                    "iterating an unordered set/dict view into message "
                    "sends or event scheduling; wrap the iterable in "
                    "sorted(...) so the fan-out order is deterministic "
                    "across processes and restores"
                )


class NoIdentityOrdering(Rule):
    """SIM007: never order by ``id()`` or ``hash()``."""

    code = "SIM007"
    description = "no ordering by id()/hash() (differs across runs)"
    paths = _SIM_SCOPE

    _ORDERING = frozenset({"sorted", "min", "max"})

    @staticmethod
    def _is_identity_key(node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id in ("id", "hash"):
            return True
        if isinstance(node, ast.Lambda):
            body = node.body
            return (
                isinstance(body, ast.Call)
                and isinstance(body.func, ast.Name)
                and body.func.id in ("id", "hash")
            )
        return False

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_sort_method = isinstance(func, ast.Attribute) and func.attr == "sort"
            is_ordering_fn = isinstance(func, ast.Name) and func.id in self._ORDERING
            if not (is_sort_method or is_ordering_fn):
                continue
            for kw in node.keywords:
                if kw.arg == "key" and self._is_identity_key(kw.value):
                    yield node, (
                        "ordering by object identity/hash; id() and "
                        "hash() vary across interpreter runs — order by "
                        "a stable domain key (cell id, channel, seq)"
                    )


class NoPopitem(Rule):
    """SIM008: ``dict.popitem()`` depends on construction history."""

    code = "SIM008"
    description = "no dict.popitem() in simulation code (order-of-insertion trap)"
    paths = _SIM_SCOPE

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "popitem"
            ):
                yield node, (
                    "dict.popitem() pops in insertion order — an implicit "
                    "dependency on construction history; pop an explicit "
                    "key (e.g. min(d)) instead"
                )


class NoEnvVarControlFlow(Rule):
    """SIM009: host environment variables must not steer the simulation."""

    code = "SIM009"
    description = "no env-var reads in simulation code (host state leak)"
    paths = _SIM_SCOPE

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = ctx.dotted_name(node.func)
                if name == "os.getenv":
                    yield node, (
                        "os.getenv() in simulation code; behavior must be "
                        "a pure function of the scenario — pass the value "
                        "in through the config instead"
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "environ":
                name = ctx.dotted_name(node)
                if name == "os.environ":
                    yield node, (
                        "os.environ access in simulation code; behavior "
                        "must be a pure function of the scenario — pass "
                        "the value in through the config instead"
                    )


#: The analyzer-owned rule registry, in code order.
DETERMINISM_RULES: List[Rule] = [
    NoUnorderedFanout(),
    NoIdentityOrdering(),
    NoPopitem(),
    NoEnvVarControlFlow(),
]
