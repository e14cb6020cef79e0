"""The SIM rule family and the registry of every rule.

Each rule is a :class:`~tools.check.engine.Rule` subclass: a code, a
one-line description, the path fragments it applies to, optional
``excludes``, and a ``run(tree, ctx)`` generator yielding ``(node,
message)`` pairs.  The state-isolation family (ANA2xx, ANA301) lives
in ``isolation.py`` and the whole-program message-flow family
(ANA101–ANA104) in ``flow.py``; :data:`RULES` lists them all.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from .engine import AnyRule, CheckContext, Match, Rule
from .flow import FLOW_RULES
from .isolation import ISOLATION_RULES
from .surface import SURFACE_RULES

__all__ = ["Rule", "RULES"]


class SimulationRule(Rule):
    """Scope of rules about code that runs inside the event loop."""

    paths = ("src/repro/sim", "src/repro/protocols", "src/repro/core")


class NoWallClock(SimulationRule):
    """SIM001: simulated time comes from ``env.now``, never the host."""

    code = "SIM001"
    description = "no wall-clock reads in simulation code (use env.now)"

    #: Canonical callables that read the host clock.
    BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.dotted_name(node.func)
            if name in self.BANNED:
                yield node, (
                    f"wall-clock call {name}() in simulation code; "
                    "simulated time must come from env.now"
                )


class NoGlobalRandom(Rule):
    """SIM002: all randomness flows through seeded ``sim/rng`` streams."""

    code = "SIM002"
    description = "no module-global RNG calls (use repro.sim.rng streams)"
    paths = ("src/repro",)
    excludes = ("src/repro/sim/rng.py",)

    #: numpy.random names that *construct* seeded generators — the
    #: sanctioned building blocks rng.py itself is made of.
    NUMPY_ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    yield node, (
                        f"stdlib random.{alias.name} imported; its global "
                        "state is unseeded and escapes snapshots — draw "
                        "from a seeded stream (repro.sim.rng) instead"
                    )
            if not isinstance(node, ast.Call):
                continue
            name = ctx.dotted_name(node.func)
            if name is None:
                continue
            if name.startswith("random.") or name == "random":
                yield node, (
                    f"global stdlib RNG call {name}(); draw from a "
                    "seeded stream (repro.sim.rng) instead"
                )
            elif name.startswith("numpy.random."):
                tail = name[len("numpy.random."):]
                if tail.split(".")[0] not in self.NUMPY_ALLOWED:
                    yield node, (
                        f"global numpy RNG call {name}(); use a "
                        "Generator from repro.sim.rng instead"
                    )


class NoDirectUseMutation(Rule):
    """SIM003: channel-use transitions go through the base-class API."""

    code = "SIM003"
    description = "no direct self.use mutation outside protocols/base.py"
    paths = ("src/repro/protocols", "src/repro/core")
    excludes = ("src/repro/protocols/base.py",)

    MUTATORS = frozenset(
        {
            "add",
            "discard",
            "remove",
            "clear",
            "pop",
            "update",
            "difference_update",
            "intersection_update",
            "symmetric_difference_update",
        }
    )

    @staticmethod
    def _is_self_use(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "use"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.MUTATORS
                and self._is_self_use(node.func.value)
            ):
                yield node, (
                    f"direct self.use.{node.func.attr}(); acquire and "
                    "release channels through the base MSS API "
                    "(_grab/_drop_from_use) so the monitor sees it"
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if self._is_self_use(target):
                        yield node, (
                            "rebinding self.use; channel state is owned "
                            "by the base MSS class"
                        )


class NoDirectHandlerCall(Rule):
    """SIM004: only the network fabric may invoke message handlers."""

    code = "SIM004"
    description = "no direct handler invocation (messages go via Network)"
    paths = ("src/repro/protocols", "src/repro/core")

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "on_message" or func.attr.startswith("_on_"):
                yield node, (
                    f"direct call to handler .{func.attr}(); deliver "
                    "messages through Network.send so latency, ordering "
                    "and sanitizers apply"
                )


class NoBareExceptInHandlers(Rule):
    """SIM005: protocol message handlers never swallow errors blindly."""

    code = "SIM005"
    description = "no bare except (or except Exception: pass) in message handlers"
    paths = ("src/repro/protocols", "src/repro/core")

    #: Function names treated as message-handling code: the dispatch
    #: entry point plus every ``_on_<MessageType>`` handler.
    @staticmethod
    def _is_handler(func: ast.AST) -> bool:
        return isinstance(
            func, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and (func.name == "on_message" or func.name.startswith("_on_"))

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for func in ast.walk(tree):
            if not self._is_handler(func):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    yield node, (
                        f"bare except: in handler {func.name}(); a "
                        "swallowed protocol error silently corrupts "
                        "distributed state — catch the specific "
                        "exception (and re-raise what you can't handle)"
                    )
                    continue
                # `except Exception: pass` is the same trap with extra
                # keystrokes: every protocol bug becomes a dropped
                # message.
                name = ctx.dotted_name(node.type)
                only_pass = all(isinstance(s, ast.Pass) for s in node.body)
                if only_pass and name in ("Exception", "BaseException"):
                    yield node, (
                        f"except {name}: pass in handler {func.name}(); "
                        "protocol errors must not be silently dropped"
                    )


# -- determinism: a run is a pure function of its scenario --------------------
# SIM006–SIM009 gate row identity across lanes (``workers=N``, restore,
# fork): set order is hash-dependent across processes, dict order is
# insertion order and differs between a fresh stack and a restored one,
# ``id()`` / ``hash()`` differ run to run, and the host environment is
# not part of the scenario.

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


class NoUnorderedFanout(SimulationRule):
    """SIM006: sort before iterating a set/dict into sends or events."""

    code = "SIM006"
    description = (
        "no set/dict iteration feeding event scheduling or message fan-out "
        "(sort first for a deterministic order)"
    )

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


class NoIdentityOrdering(SimulationRule):
    """SIM007: never order by ``id()`` or ``hash()``."""

    code = "SIM007"
    description = "no ordering by id()/hash() (differs across runs)"

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


class NoPopitem(SimulationRule):
    """SIM008: ``dict.popitem()`` depends on construction history."""

    code = "SIM008"
    description = "no dict.popitem() in simulation code (order-of-insertion trap)"

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


class NoEnvVarControlFlow(SimulationRule):
    """SIM009: host environment variables must not steer the simulation."""

    code = "SIM009"
    description = "no env-var reads in simulation code (host state leak)"

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


class GuardedEmit(Rule):
    """SIM010: every probe emit sits under its own ``in _probes`` guard."""

    code = "SIM010"
    description = "unguarded or mismatched emit (guard: if kind in self._probes)"
    paths = SimulationRule.paths + ("src/repro/faults", "src/repro/harness")

    @staticmethod
    def _emit_kind(stmt: ast.stmt) -> Optional[ast.expr]:
        """The kind argument if ``stmt`` is a bare ``<obj>.emit(kind, ...)``."""
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "emit"
            and call.args
        ):
            return call.args[0]
        return None

    @staticmethod
    def _guard_kind(test: ast.expr) -> Optional[ast.expr]:
        """The kind expression if ``test`` is ``kind in <obj>._probes``."""
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.In)
            and isinstance(test.comparators[0], ast.Attribute)
            and test.comparators[0].attr == "_probes"
        ):
            return test.left
        return None

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        guarded = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.If):
                continue
            kind = self._guard_kind(node.test)
            if kind is None:
                continue
            for stmt in node.body:
                emitted = self._emit_kind(stmt)
                if emitted is None:
                    continue
                guarded.add(id(stmt))
                # Same literal, or the same name/expression for a
                # computed kind.
                if ast.dump(emitted) != ast.dump(kind):
                    yield stmt, (
                        f"emit of {ast.unparse(emitted)} under a guard on "
                        f"{ast.unparse(kind)}: the guard mutes this probe "
                        "unless the other kind has a subscriber"
                    )
        for node in ast.walk(tree):
            if isinstance(node, ast.stmt) and id(node) not in guarded:
                emitted = self._emit_kind(node)
                if emitted is not None:
                    yield node, (
                        f"unguarded emit of {ast.unparse(emitted)}; write "
                        f"`if {ast.unparse(emitted)} in self._probes:` directly "
                        "above it so an unsubscribed kind costs no call"
                    )


class SendAndWaitThroughBase(Rule):
    """SIM011: a scheme sends and waits through the base-class API."""

    code = "SIM011"
    description = "no direct self.network send or bare yield of .done outside protocols/base.py"
    paths = ("src/repro/protocols", "src/repro/core")
    excludes = ("src/repro/protocols/base.py",)

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("send", "multicast")
                and ast.unparse(node.func.value) == "self.network"
            ):
                yield node, (
                    f"direct self.network.{node.func.attr}(); send through "
                    "_send/_broadcast so an installed ARQ carries the message"
                )
            elif (
                isinstance(node, ast.Yield)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "done"
            ):
                yield node, (
                    f"bare yield of {ast.unparse(node.value)}; wait through "
                    "_await_round so a hardened round has its deadline"
                )


class NoBitCount(Rule):
    """SIM012: popcount without ``int.bit_count`` (Python 3.10+)."""

    code = "SIM012"
    description = "no .bit_count() call (Python 3.10+; the package supports 3.9)"
    paths = ("src/repro",)

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "bit_count"
            ):
                yield node, (
                    "int.bit_count() needs Python 3.10 and the package "
                    "supports 3.9; count a channel mask's bits with "
                    'bin(m).count("1")'
                )


#: The one registry: every rule of every family, in code order.
RULES: List[AnyRule] = [
    *FLOW_RULES,
    *ISOLATION_RULES,
    *SURFACE_RULES,
    NoWallClock(),
    NoGlobalRandom(),
    NoDirectUseMutation(),
    NoDirectHandlerCall(),
    NoBareExceptInHandlers(),
    NoUnorderedFanout(),
    NoIdentityOrdering(),
    NoPopitem(),
    NoEnvVarControlFlow(),
    GuardedEmit(),
    SendAndWaitThroughBase(),
    NoBitCount(),
]
