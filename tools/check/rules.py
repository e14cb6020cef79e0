"""The SIM rule set.

Each rule declares a code, a one-line description, the path fragments
it applies to (matched against the file's POSIX path), optional
exclusions, and a ``run(tree, ctx)`` generator yielding
``(node, message)`` pairs.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from .engine import CheckContext

__all__ = ["Rule", "RULES"]

Match = Tuple[ast.AST, str]

#: Simulation code: everything that runs inside the event loop.
_SIM_SCOPE = ("src/repro/sim", "src/repro/protocols", "src/repro/core")


class Rule:
    """Base class: subclasses set the class attributes and ``run``."""

    code: str = ""
    description: str = ""
    paths: Tuple[str, ...] = ()
    excludes: Tuple[str, ...] = ()

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        raise NotImplementedError


class NoWallClock(Rule):
    """SIM001: simulated time comes from ``env.now``, never the host."""

    code = "SIM001"
    description = "no wall-clock reads in simulation code (use env.now)"
    paths = _SIM_SCOPE

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


class GuardedEmit(Rule):
    """SIM010: every probe emit sits under its own ``in _probes`` guard."""

    code = "SIM010"
    description = "unguarded or mismatched emit (guard: if kind in self._probes)"
    paths = _SIM_SCOPE + ("src/repro/faults", "src/repro/harness")

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


#: The active rule registry, in code order.
RULES: List[Rule] = [
    NoWallClock(),
    NoGlobalRandom(),
    NoDirectUseMutation(),
    NoDirectHandlerCall(),
    NoBareExceptInHandlers(),
    GuardedEmit(),
    SendAndWaitThroughBase(),
]
