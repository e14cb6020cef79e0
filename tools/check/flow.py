"""Message-flow conformance, the whole-program rules (ANA101–ANA104).

Checks the whole send/handler matrix that ``base.py``'s dynamic
dispatch leaves unchecked until runtime:

* **ANA101** — a scheme sends a message kind it has no ``_on_<Kind>``
  handler for.  At runtime this is a ``NotImplementedError`` the first
  time such a message is *delivered* — which under rare interleavings
  may be never in tests and always in production.  Reported at the
  send site.  ``Ack`` is link-layer traffic peeled off by
  ``MSS.on_message`` before dispatch and is allowlisted.
* **ANA102** — a scheme defines ``_on_<Kind>`` but neither it nor any
  ancestor ever sends ``<Kind>``: dead dispatch-table weight, or a
  send that was refactored away while its handler lingered.
* **ANA103** — a handler (or a helper whose parameter is annotated
  with a message class) reads ``msg.<attr>`` where ``<attr>`` is not a
  field of the message dataclass — the silent ``AttributeError`` class
  of bug.  Dataclass niceties (``replace``, dunders) are tolerated.
* **ANA104** — a message constructor call at a send site does not
  match the dataclass signature: unknown keyword, too many
  positionals, or a missing required field.  ``*args``/``**kwargs``
  escapes the check.

Each is a :class:`~tools.check.engine.ProgramRule` over the
:class:`ProtocolModel` of every file under ``src/repro``.  The module
also renders the flow graph as GraphViz DOT (scheme → message kind for
sends, message kind → scheme for handlers) for ``--dot``.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, List, Sequence, Set, Tuple

from .engine import AnyRule, CheckContext, ProgramMatch, ProgramRule, in_scope
from .model import MessageClass, ProtocolModel, build_model

__all__ = ["FLOW_RULES", "render_dot"]

#: Kinds handled below protocol dispatch (see ``MSS.on_message``).
LINK_LAYER_KINDS = frozenset({"Ack"})

#: Attributes legal on any (frozen) dataclass instance.
_DATACLASS_ATTRS = frozenset({"replace"})


def _sent_unhandled(model: ProtocolModel) -> Iterator[ProgramMatch]:
    for scheme in model.scheme_names():
        handled = model.handled_kinds(scheme) | LINK_LAYER_KINDS
        for site in model.sends_of(scheme):
            if site.kind is None or site.kind in handled:
                continue
            yield site.path, site.node, (
                f"{scheme} sends {site.kind} (in {site.method}) but "
                f"defines no _on_{site.kind} handler — delivery would "
                "raise NotImplementedError"
            )


def _handler_never_sent(model: ProtocolModel) -> Iterator[ProgramMatch]:
    for scheme in model.scheme_names():
        sent = model.sent_kinds(scheme)
        for handler in model.handlers_of(scheme):
            if not handler.method.startswith("_on_"):
                continue  # helpers are reached via a real handler
            if handler.kind in sent:
                continue
            yield handler.path, handler.node, (
                f"{scheme} registers handler {handler.method} but "
                f"{handler.kind} is never sent by the scheme (dead "
                "dispatch entry, or a send refactored away)"
            )


def _misfielded_access(model: ProtocolModel) -> Iterator[ProgramMatch]:
    for cls in model.classes.values():
        for handler in cls.handlers:
            message = model.messages.get(handler.kind)
            if message is None:
                continue
            legal = message.field_names | message.methods | _DATACLASS_ATTRS
            for access in handler.accesses:
                if access.attr in legal or access.attr.startswith("__"):
                    continue
                yield handler.path, access, (
                    f"{cls.name}.{handler.method} reads "
                    f"msg.{access.attr}, but {handler.kind} has no "
                    f"field {access.attr!r} (fields: "
                    f"{', '.join(sorted(message.field_names))}) — "
                    "this is an AttributeError at delivery time"
                )


def _constructor_mismatch(model: ProtocolModel) -> Iterator[ProgramMatch]:
    for cls in model.classes.values():
        for site in cls.sends:
            if site.kind is None or site.call is None:
                continue
            message = model.messages.get(site.kind)
            if message is None:
                continue
            for problem in _signature_problems(site.kind, site.call, message):
                yield site.path, site.node, problem


def _signature_problems(
    kind: str, call: ast.Call, message: MessageClass
) -> Iterator[str]:
    """What is wrong with ``call`` as a constructor of ``message``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        kw.arg is None for kw in call.keywords
    ):
        return  # *args / **kwargs: not statically checkable
    field_order = [f.name for f in message.fields]
    n_pos = len(call.args)
    if n_pos > len(field_order):
        yield (
            f"{kind}(...) called with {n_pos} positional "
            f"arguments but the dataclass has only "
            f"{len(field_order)} fields"
        )
        return
    covered: Set[str] = set(field_order[:n_pos])
    bad = False
    for kw in call.keywords:
        assert kw.arg is not None  # filtered above
        if kw.arg not in message.field_names:
            yield (
                f"{kind}(...) passes unknown keyword "
                f"{kw.arg!r} (fields: {', '.join(field_order)})"
            )
            bad = True
        elif kw.arg in covered:
            yield f"{kind}(...) passes {kw.arg!r} both positionally and by keyword"
            bad = True
        else:
            covered.add(kw.arg)
    if bad:
        return
    missing = [
        f.name for f in message.fields if not f.has_default and f.name not in covered
    ]
    if missing:
        yield f"{kind}(...) misses required field(s) {', '.join(missing)}"


class FlowRule(ProgramRule):
    """One check over the protocol model of everything under ``src/repro``."""

    paths = ("src/repro",)

    def __init__(
        self,
        code: str,
        description: str,
        check: Callable[[ProtocolModel], Iterator[ProgramMatch]],
    ) -> None:
        self.code = code
        self.description = description
        self._check = check

    def run(self, files: Tuple[CheckContext, ...]) -> Iterator[ProgramMatch]:
        return self._check(build_model(files))


FLOW_RULES: List[AnyRule] = [
    FlowRule(
        "ANA101",
        "every message kind a scheme sends has an _on_<Kind> handler",
        _sent_unhandled,
    ),
    FlowRule(
        "ANA102",
        "every _on_<Kind> handler's kind is sent by the scheme or an ancestor",
        _handler_never_sent,
    ),
    FlowRule(
        "ANA103",
        "every msg.<attr> read in a handler names a field of the message",
        _misfielded_access,
    ),
    FlowRule(
        "ANA104",
        "every message constructor call at a send site matches the dataclass",
        _constructor_mismatch,
    ),
]


def render_dot(files: Sequence[CheckContext]) -> str:
    """The send/handle matrix of the flow rules' files as a GraphViz digraph.

    ``files`` is what the engine parsed; the model is the one the rules
    of the same run already built.
    """
    model = build_model(tuple(f for f in files if in_scope(f.path, FLOW_RULES[0])))
    lines = [
        "digraph message_flow {",
        "  rankdir=LR;",
        '  node [fontname="Helvetica"];',
    ]
    kinds: Set[str] = set()
    edges: List[str] = []
    for scheme in model.scheme_names():
        lines.append(f'  "{scheme}" [shape=box, style=filled, fillcolor="#e8f0fe"];')
        for kind in sorted(model.sent_kinds(scheme)):
            kinds.add(kind)
            edges.append(f'  "{scheme}" -> "{kind}";')
        for kind in sorted(model.handled_kinds(scheme)):
            kinds.add(kind)
            edges.append(f'  "{kind}" -> "{scheme}" [style=dashed];')
    for kind in sorted(kinds):
        lines.append(f'  "{kind}" [shape=ellipse];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
