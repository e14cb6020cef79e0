"""Unreferenced public surface (ANA401), a whole-program rule.

A public def or class under ``src/repro`` (module level, or a method)
that nothing in the program references is kept alive only by its own
tests.  The program is every ``.py`` file under :data:`CONSUMERS` of
the checked file's tree: the run's parse where it has one, else read
from disk, so the verdict does not depend on the paths given.  A
reference is a ``Name``, an ``Attribute``, the constant name argument
of ``getattr`` / ``setattr`` / ``hasattr`` / ``delattr``, or — under
``bench/``, whose tracer binds methods from string tuples — any
identifier-shaped string outside ``__all__``.  Any other string (an
export table, a start-method name), an import and a ``tests``
directory are not.  A tree without ``src/repro/__init__.py`` is not the
package and is not judged.
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePath
from typing import Dict, Iterator, List, Set, Tuple, Union

from .engine import AnyRule, CheckContext, ProgramMatch, ProgramRule, in_scope

__all__ = ["SURFACE_RULES"]

#: Top-level directories whose code is a consumer of the package.
CONSUMERS = ("src/repro", "benchmarks", "examples", "bench", "tools")

#: ``@name.setter`` and the like extend a property; they do not use it.
_ACCESSORS = frozenset({"setter", "getter", "deleter"})

#: Decorators that register nothing, so they exempt nothing.
_NEUTRAL = _ACCESSORS | {"property", "staticmethod", "classmethod", "dataclass", "lru_cache"}

#: The builtins whose second argument names an attribute.
_ATTRIBUTE_CALLS = frozenset({"getattr", "setattr", "hasattr", "delattr"})

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


def _decorator_name(node: ast.expr) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return str(getattr(node, "attr", getattr(node, "id", "")))


def _judged(tree: ast.Module) -> Iterator[_Def]:
    """Public defs at module level and in class bodies that no decorator registers."""
    for stmt in tree.body:
        for node in [stmt, *(stmt.body if isinstance(stmt, ast.ClassDef) else ())]:
            if (
                isinstance(node, _DEFS)
                and not node.name.startswith("_")
                and all(_decorator_name(d) in _NEUTRAL for d in node.decorator_list)
            ):
                yield node


def _lists_exports(node: ast.AST) -> bool:
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in targets
    )


def _attribute_name(node: ast.Call) -> Iterator[str]:
    """The constant name ``getattr(obj, "name")`` and its kin look up."""
    func, args = node.func, node.args
    if (
        isinstance(func, ast.Name)
        and func.id in _ATTRIBUTE_CALLS
        and len(args) >= 2
        and isinstance(args[1], ast.Constant)
        and isinstance(args[1].value, str)
    ):
        yield args[1].value


def _used_names(tree: ast.Module, strings: bool = False) -> Iterator[str]:
    """The names ``tree`` references; every identifier-shaped string
    counts as one when ``strings`` is set."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if _lists_exports(node):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Call):
            yield from _attribute_name(node)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value
        accessors = [
            d
            for d in getattr(node, "decorator_list", ())
            if isinstance(d, ast.Attribute) and d.attr in _ACCESSORS
        ]
        stack.extend(c for c in ast.iter_child_nodes(node) if c not in accessors)


def _references(root: Path, parsed: Dict[Path, ast.Module]) -> Set[str]:
    names: Set[str] = set()
    for top in CONSUMERS:
        for path in sorted((root / top).rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                tree = parsed.get(path.resolve())
                if tree is None:
                    tree = ast.parse(path.read_text(), filename=str(path))
                # The benchmark's tracer binds methods from tuples of their names.
                names.update(_used_names(tree, strings=top == "bench"))
    return names


class UnreferencedSurface(ProgramRule):
    """ANA401: every public definition under ``src/repro`` has a consumer."""

    code = "ANA401"
    description = "every public def, class and method under src/repro is referenced"
    paths = ("src/repro",)
    reads = CONSUMERS

    def run(self, files: Tuple[CheckContext, ...]) -> Iterator[ProgramMatch]:
        parsed = {Path(ctx.path).resolve(): ctx.tree for ctx in files}
        references: Dict[Path, Set[str]] = {}
        for ctx in files:
            # The tree a src/repro file belongs to: its path before src/repro.
            root = Path(PurePath(ctx.path).as_posix().rpartition("src/repro/")[0] or ".")
            if not in_scope(ctx.path, self) or not (root / "src/repro/__init__.py").is_file():
                continue
            if root not in references:
                references[root] = _references(root, parsed)
            for node in _judged(ctx.tree):
                if node.name not in references[root]:
                    yield ctx.path, node, (
                        f"public {node.name} is used by nothing outside tests/ "
                        "— delete it, or name its consumer in "
                        "'# repro: noqa(ANA401) <consumer>'"
                    )


SURFACE_RULES: List[AnyRule] = [UnreferencedSurface()]
