"""The one static-check engine: parsing, scoping, noqa, reporting.

Every file of a run is parsed once into a :class:`CheckContext` (tree,
import-alias table so rules match *canonical* dotted names — ``import
numpy as np`` makes ``np.random.seed`` resolve to
``numpy.random.seed`` — and the line's ``# repro: noqa(...)`` pragmas).
A :class:`Rule` sees one in-scope file at a time; a
:class:`ProgramRule` sees all of its in-scope files at once, for facts
no single file holds.  Both declare their scope as path fragments
(``paths`` / ``excludes``), and every finding of either kind passes
through the same pragma filter.

Suppressions are themselves checked: a pragma that silences nothing in
the current run — a bare ``# repro: noqa`` with no finding on the line,
or a named code that belongs to a rule scoped to the file but did not
fire — is reported as ``SIM100`` (stale suppression).  Codes naming
rules outside the current rule set, or scoped elsewhere, are left
alone.  ``SIM100`` itself cannot be suppressed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

__all__ = [
    "Finding",
    "CheckContext",
    "Rule",
    "ProgramRule",
    "in_scope",
    "check_files",
    "check_file",
    "check_paths",
    "iter_python_files",
    "STALE_NOQA_CODE",
]

#: ``# repro: noqa`` or ``# repro: noqa(SIM001, SIM003)``
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\s*(?:\(\s*([A-Z0-9_,\s]+?)\s*\))?", re.IGNORECASE
)

#: Sentinel meaning "every rule is suppressed on this line".
_ALL = "ALL"

#: Code reported for a ``# repro: noqa`` pragma that suppresses nothing.
STALE_NOQA_CODE = "SIM100"

#: Rule documentation lives in one catalog; each code has an anchor.
_DOC_URL_BASE = "docs/CHECKS.md#"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a precise source location (sorts by it)."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """The machine-readable schema (one ``--format json`` row)."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "url": f"{_DOC_URL_BASE}{self.code.lower()}",
        }


class CheckContext:
    """One parsed file of one run: tree, alias resolution, pragma ledger."""

    def __init__(self, path: str, tree: ast.Module, source: str) -> None:
        self.path = path
        self.tree = tree
        #: line number -> codes a pragma suppresses there (or ``{_ALL}``).
        self.noqa = _noqa_lines(source)
        #: line number -> codes whose findings a pragma actually swallowed.
        self.used: Dict[int, Set[str]] = {}
        #: codes of the rules whose scope covered this file in this run.
        self.applicable: Set[str] = set()
        #: local name -> canonical dotted prefix it stands for.
        self.aliases: Dict[str, str] = {}
        self._collect_aliases(tree)

    def _collect_aliases(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b.c`` binds ``a`` (to a); with asname
                    # it binds the full dotted path.
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: stays package-local
                    continue
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{module}.{alias.name}"

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or None.

        Chains rooted in anything but a plain name (calls, subscripts,
        ``self``) resolve to None — rules that care about object
        attributes match the raw AST instead.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _noqa_lines(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of suppressed codes (or {_ALL})."""
    suppressed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group(1)
        if codes is None:
            suppressed[lineno] = {_ALL}
        else:
            suppressed[lineno] = {
                c.strip().upper() for c in codes.split(",") if c.strip()
            }
    return suppressed


Match = Tuple[ast.AST, str]
ProgramMatch = Tuple[str, ast.AST, str]


class _Scoped:
    """What every rule declares: a code, a summary line and a scope.

    ``paths`` / ``excludes`` are fragments matched against the file's
    POSIX path.  ``excludes`` is the only file-level exemption there
    is; the rule's docstring says why each entry is exempt.
    """

    code: str = ""
    description: str = ""
    paths: Tuple[str, ...] = ()
    excludes: Tuple[str, ...] = ()


class Rule(_Scoped):
    """A per-file rule: ``run`` sees one in-scope file at a time."""

    def run(self, tree: ast.Module, ctx: CheckContext) -> Iterator[Match]:
        """Yield ``(node, message)`` for each violation in the file."""
        raise NotImplementedError


class ProgramRule(_Scoped):
    """A whole-program rule: ``run`` sees every in-scope file at once."""

    #: Fragments of further files ``run`` gets to read; it judges none of them.
    reads: Tuple[str, ...] = ()

    def run(self, files: Tuple[CheckContext, ...]) -> Iterator[ProgramMatch]:
        """Yield ``(path, node, message)``; ``path`` names one of ``files``."""
        raise NotImplementedError


#: What a ``rules=`` argument holds.
AnyRule = Union[Rule, ProgramRule]


def in_scope(path: str, rule: _Scoped) -> bool:
    """Whether ``rule``'s ``paths`` / ``excludes`` cover ``path``."""
    posix = PurePath(path).as_posix()
    if any(fragment in posix for fragment in rule.excludes):
        return False
    return any(fragment in posix for fragment in rule.paths)


def _stale_suppressions(ctx: CheckContext) -> Iterator[Finding]:
    """SIM100 findings for pragmas that silenced nothing this run.

    A named code is judged only when it belongs to a rule applicable to
    this file in this run — a pragma for a rule outside the rule set,
    or scoped elsewhere, is not ours to condemn.  SIM100 itself is
    always judged: suppressing the stale-pragma check with a pragma is
    exactly the loop it exists to close.
    """
    for line, codes in sorted(ctx.noqa.items()):
        used_here = ctx.used.get(line, set())
        if _ALL in codes:
            if not used_here:
                yield Finding(
                    ctx.path,
                    line,
                    0,
                    STALE_NOQA_CODE,
                    "stale suppression: bare '# repro: noqa' pragma "
                    "suppresses nothing on this line — remove it",
                )
            continue
        for code in sorted(codes):
            judged = code in ctx.applicable or code == STALE_NOQA_CODE
            if judged and code not in used_here:
                yield Finding(
                    ctx.path,
                    line,
                    0,
                    STALE_NOQA_CODE,
                    f"stale suppression: noqa({code}) suppresses "
                    "nothing on this line — remove it",
                )


def _parse(path: str) -> Union[CheckContext, Finding]:
    """One file's context — or the SIM000 finding that says why not."""
    source = Path(path).read_text()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            path,
            exc.lineno or 1,
            (exc.offset or 1) - 1,
            "SIM000",
            f"syntax error: {exc.msg}",
        )
    return CheckContext(path, tree, source)


def check_files(
    paths: Iterable[str], rules: Optional[Sequence[AnyRule]] = None
) -> Tuple[List[Finding], List[CheckContext]]:
    """Parse each file once and run every rule whose scope covers it.

    Returns the sorted findings — pragmas applied, stale ones reported —
    and the parsed files, for a caller that wants more than findings
    from the same parse (``--dot``).
    """
    if rules is None:
        from .rules import RULES as rules  # late import: rules use engine types
    parsed = [_parse(path) for path in paths]
    findings = [p for p in parsed if isinstance(p, Finding)]
    files = [p for p in parsed if isinstance(p, CheckContext)]
    by_path = {ctx.path: ctx for ctx in files}

    def report(ctx: CheckContext, code: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        pragma = ctx.noqa.get(line)
        if pragma is not None and (_ALL in pragma or code in pragma):
            ctx.used.setdefault(line, set()).add(code)
        else:
            findings.append(
                Finding(ctx.path, line, getattr(node, "col_offset", 0), code, message)
            )

    for rule in rules:
        scoped = tuple(ctx for ctx in files if in_scope(ctx.path, rule))
        for ctx in scoped:
            ctx.applicable.add(rule.code)
        if isinstance(rule, ProgramRule):
            read = tuple(
                ctx for ctx in files
                if ctx not in scoped and any(f in ctx.path for f in rule.reads)
            )
            for path, node, message in rule.run(scoped + read):
                report(by_path[path], rule.code, node, message)
        else:
            for ctx in scoped:
                for node, message in rule.run(ctx.tree, ctx):
                    report(ctx, rule.code, node, message)
    for ctx in files:
        if ctx.applicable:  # a file no rule covers is not ours to police
            findings.extend(_stale_suppressions(ctx))
    return sorted(findings), files


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            yield from sorted(str(f) for f in p.rglob("*.py"))
        elif p.suffix == ".py":
            yield str(p)


def check_file(path: str, rules: Optional[Sequence[AnyRule]] = None) -> List[Finding]:
    """Check one file on its own; returns its findings."""
    return check_files([path], rules)[0]


def check_paths(
    paths: Iterable[str], rules: Optional[Sequence[AnyRule]] = None
) -> List[Finding]:
    """Check every Python file under ``paths``; returns all findings."""
    return check_files(iter_python_files(paths), rules)[0]
