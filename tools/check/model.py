"""Whole-program protocol model: messages, send sites, handlers.

The flow rules (``tools/check/flow.py``) need facts that no single
file contains: which dataclasses are protocol messages, which scheme
sends which message kinds (including sends inherited from the MSS base
class), and which ``_on_<Kind>`` handlers exist with which field
accesses.  This module extracts all of it from the trees the engine
already parsed — no imports of simulation code, so the checker runs
on a broken tree too.

Extraction contract (kept deliberately syntactic):

* **Messages** — any ``@dataclass``-decorated class in the analyzed
  files; fields are the class body's annotated assignments, in order,
  with a flag for defaults.  Methods defined on the dataclass are
  recorded too, so calling them on a handler parameter is not a
  missing-field finding.
* **Send sites** — calls of the protocol/network send API with the
  payload argument at its fixed position: ``self._send(dst, payload)``,
  ``self._broadcast(payload, ...)``, ``*.send(src, dst, payload, ...)``
  and ``*.multicast(src, dsts, payload)``.  The payload is attributed
  to a message kind only when it is a direct constructor call of a
  known message class; variable payloads (e.g. the ARQ retransmitting
  ``record.payload``) are recorded as kind ``None``.
* **Handlers** — methods named ``_on_<Kind>`` (the ``base.py`` dispatch
  contract) plus any method whose message parameter is annotated with a
  known message class (covers helpers like ``_handle_update_request``).
  Field accesses are attribute reads on that parameter.
* **Schemes** — transitive subclasses of ``MSS`` by simple base name;
  per-scheme sends/handlers are the union over the class and its
  ancestors found in the analyzed files.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from .engine import CheckContext

__all__ = [
    "FieldSpec",
    "MessageClass",
    "SendSite",
    "Handler",
    "SchemeClass",
    "ProtocolModel",
    "build_model",
]

#: Root class of the protocol hierarchy (``repro.protocols.base.MSS``).
BASE_CLASS = "MSS"

#: Method-call names whose argument at the given index is a payload.
_PAYLOAD_ARG = {
    "_send": 1,  # self._send(dst, payload)
    "_broadcast": 0,  # self._broadcast(payload, dsts=...)
    "send": 2,  # network.send(src, dst, payload, ...)
    "multicast": 2,  # network.multicast(src, dsts, payload)
}


@dataclass(frozen=True)
class FieldSpec:
    """One dataclass field: name and whether it carries a default."""

    name: str
    has_default: bool


@dataclass
class MessageClass:
    """A protocol message dataclass."""

    name: str
    fields: List[FieldSpec]
    methods: Set[str] = field(default_factory=set)

    @property
    def field_names(self) -> Set[str]:
        return {f.name for f in self.fields}


@dataclass
class SendSite:
    """One payload handed to the send API inside a class method."""

    scheme: str  # enclosing class name
    method: str
    kind: Optional[str]  # message class name, None if not a constructor
    path: str
    node: ast.Call  # the send call, where findings point
    call: Optional[ast.Call]  # the constructor call, for arity checks


@dataclass
class Handler:
    """A message handler (or annotated helper) of one class."""

    scheme: str
    kind: str  # message class name it handles
    path: str
    node: ast.FunctionDef
    #: every ``msg.<attr>`` read on the message parameter
    accesses: List[ast.Attribute] = field(default_factory=list)

    @property
    def method(self) -> str:
        return self.node.name


@dataclass
class SchemeClass:
    """One class in the protocol hierarchy."""

    name: str
    bases: Tuple[str, ...]
    sends: List[SendSite] = field(default_factory=list)
    handlers: List[Handler] = field(default_factory=list)


@dataclass
class ProtocolModel:
    """Everything the flow rules need, for all files in their scope."""

    messages: Dict[str, MessageClass] = field(default_factory=dict)
    classes: Dict[str, SchemeClass] = field(default_factory=dict)

    # -- hierarchy ---------------------------------------------------------
    def ancestors(self, name: str) -> List[str]:
        """Known ancestor class names of ``name`` (nearest first)."""
        out: List[str] = []
        queue = list(self.classes[name].bases) if name in self.classes else []
        while queue:
            base = queue.pop(0)
            if base in out:
                continue
            out.append(base)
            if base in self.classes:
                queue.extend(self.classes[base].bases)
        return out

    def is_scheme(self, name: str) -> bool:
        """True for strict subclasses of the MSS base class."""
        return name in self.classes and BASE_CLASS in self.ancestors(name)

    def scheme_names(self) -> List[str]:
        return sorted(n for n in self.classes if self.is_scheme(n))

    def lineage(self, name: str) -> List[str]:
        """``name`` plus its known ancestors (self first)."""
        return [name] + [a for a in self.ancestors(name) if a in self.classes]

    # -- per-scheme aggregates --------------------------------------------
    def sends_of(self, scheme: str) -> List[SendSite]:
        out: List[SendSite] = []
        for cls in self.lineage(scheme):
            out.extend(self.classes[cls].sends)
        return out

    def handlers_of(self, scheme: str) -> List[Handler]:
        """Handlers visible on ``scheme``, nearest definition winning."""
        seen: Set[Tuple[str, str]] = set()
        out: List[Handler] = []
        for cls in self.lineage(scheme):
            for handler in self.classes[cls].handlers:
                key = (handler.kind, handler.method)
                if key in seen:
                    continue
                seen.add(key)
                out.append(handler)
        return out

    def sent_kinds(self, scheme: str) -> Set[str]:
        return {s.kind for s in self.sends_of(scheme) if s.kind is not None}

    def handled_kinds(self, scheme: str) -> Set[str]:
        return {
            h.kind for h in self.handlers_of(scheme)
            if h.method.startswith("_on_")
        }


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return True
    return False


def _message_fields(node: ast.ClassDef) -> List[FieldSpec]:
    fields: List[FieldSpec] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if isinstance(stmt.annotation, ast.Name) and stmt.annotation.id == "ClassVar":
                continue
            if (
                isinstance(stmt.annotation, ast.Subscript)
                and isinstance(stmt.annotation.value, ast.Name)
                and stmt.annotation.value.id == "ClassVar"
            ):
                continue
            fields.append(FieldSpec(stmt.target.id, stmt.value is not None))
    return fields


def _base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def _payload_kind(
    payload: ast.expr, message_names: Set[str]
) -> Tuple[Optional[str], Optional[ast.Call]]:
    """(message kind, constructor call) for a payload expression."""
    if isinstance(payload, ast.Call):
        func = payload.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name in message_names:
            return name, payload
    return None, None


def _collect_sends(
    cls: SchemeClass,
    method: ast.AST,
    method_name: str,
    path: str,
    message_names: Set[str],
) -> None:
    for node in ast.walk(method):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        arg_index = _PAYLOAD_ARG.get(func.attr)
        if arg_index is None or len(node.args) <= arg_index:
            # Too few positional args also filters non-fabric ``.send``
            # calls, e.g. the ARQ's 2-argument ``self._link.send``.
            continue
        kind, call = _payload_kind(node.args[arg_index], message_names)
        cls.sends.append(
            SendSite(
                scheme=cls.name,
                method=method_name,
                kind=kind,
                path=path,
                node=node,
                call=call,
            )
        )


def _handler_kind(
    method: ast.FunctionDef, message_names: Set[str]
) -> Optional[Tuple[str, Optional[str]]]:
    """(kind, param name) when ``method`` handles a known message.

    The message parameter is the first non-self argument.  Its
    annotation wins when it names a known message class; otherwise an
    ``_on_<Kind>`` name with known ``<Kind>`` is used.  ``param`` is
    None when the method declares no message parameter at all (a
    mis-declared handler — the flow pass still checks kind coverage).
    """
    args = method.args.args
    param = args[1].arg if len(args) > 1 else None
    if param is not None:
        annotation = args[1].annotation
        ann_name = None
        if isinstance(annotation, ast.Name):
            ann_name = annotation.id
        elif isinstance(annotation, ast.Attribute):
            ann_name = annotation.attr
        elif isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            ann_name = annotation.value.split(".")[-1].strip()
        if ann_name in message_names:
            return ann_name, param
    if method.name.startswith("_on_"):
        kind = method.name[len("_on_"):]
        if kind in message_names:
            return kind, param
    return None


def _collect_handler(
    cls: SchemeClass,
    method: ast.FunctionDef,
    path: str,
    message_names: Set[str],
) -> None:
    resolved = _handler_kind(method, message_names)
    if resolved is None:
        return
    kind, param = resolved
    handler = Handler(
        scheme=cls.name,
        kind=kind,
        path=path,
        node=method,
    )
    if param is not None:
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == param
            ):
                handler.accesses.append(node)
    cls.handlers.append(handler)


@lru_cache(maxsize=1)
def build_model(files: Tuple[CheckContext, ...]) -> ProtocolModel:
    """The whole-program protocol model of the engine's parsed ``files``.

    Remembered for the last file set only, so the four flow rules and
    ``--dot`` of one run share one extraction.
    """
    model = ProtocolModel()
    for ctx in files:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass_decorated(node):
                model.messages[node.name] = MessageClass(
                    name=node.name,
                    fields=_message_fields(node),
                    methods={
                        stmt.name
                        for stmt in node.body
                        if isinstance(
                            stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                        )
                    },
                )
    message_names = set(model.messages)
    for ctx in files:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = SchemeClass(name=node.name, bases=_base_names(node))
            # Latest definition wins on name collision (same contract
            # as Python imports; collisions don't occur in src/repro).
            model.classes[node.name] = cls
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _collect_sends(cls, stmt, stmt.name, ctx.path, message_names)
                    if isinstance(stmt, ast.FunctionDef):
                        _collect_handler(cls, stmt, ctx.path, message_names)
    return model
