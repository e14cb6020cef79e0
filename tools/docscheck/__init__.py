"""Documentation cross-reference checker.

Five passes over the repo's markdown (root ``*.md`` plus
``docs/**/*.md``, minus the driver-metadata files):

1. **Relative links** — every ``[text](target)`` that is not external
   (``http(s)://``, ``mailto:``), not an in-page anchor (``#...``) and
   not absolute must resolve to an existing file or directory,
   relative to the file that contains it.
2. **Code-path references** — every backticked repo path
   (``src/...``, ``tools/...``, ``docs/...``, ``tests/...``,
   ``benchmarks/...``, ``examples/...``) must exist, so prose never
   points at moved or deleted code.  Paths carrying glob/placeholder
   characters are ignored.
3. **Rule-catalog correspondence** — the rule IDs documented as
   ``### <ID>`` headings in docs/CHECKS.md must equal the codes of the
   rule registry (``tools.check.RULES``) plus the engine's ``SIM100``,
   both ways.
4. **Generated capability matrix** — a committed
   ``docs/CAPABILITIES.md`` must equal what ``tools/gen_api_docs.py``
   renders from the capability table now.
5. **Stale calls in doc code** — a fenced ``python`` / ``pycon`` block
   may import only existing ``repro`` names, and call one only with
   keywords its signature accepts (any, given ``**kwargs``).

Run as ``python -m tools.docscheck`` (exit 1 on any problem); CI runs
it in the docs job.  ``tests/test_docscheck.py`` covers the failure
modes on a synthetic tree and pins the real repo clean.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import re
import textwrap
from typing import Any, Dict, Iterator, List, Tuple

from tools.check import RULES, STALE_NOQA_CODE

__all__ = [
    "EXCLUDED",
    "check_code_paths",
    "check_doc_calls",
    "check_generated",
    "check_links",
    "check_rule_catalog",
    "markdown_files",
    "run_all",
]

#: Root-level driver/metadata files whose links are not ours to keep.
EXCLUDED = frozenset(
    {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md", "CHANGES.md"}
)

#: ``[text](target)`` and ``![alt](target)``, target up to the first
#: whitespace (drops optional markdown link titles).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Backticked repo path: a known top-level dir, then plain path chars.
_PATH_RE = re.compile(
    r"`((?:src|tools|docs|tests|benchmarks|examples)/[A-Za-z0-9_.\-/]+)`"
)

#: ``### SIM001 — title`` headings in the CHECKS.md rule catalog.
_RULE_HEADING_RE = re.compile(r"^###\s+((?:SIM|ANA)\d{3})\b", re.M)

#: The opening fence of a ``python`` or ``pycon`` code block.
_CODE_FENCE_RE = re.compile(r"^\s*```(python|pycon)\s*$")


def markdown_files(root: pathlib.Path) -> List[pathlib.Path]:
    """The markdown files under our contract, sorted for stable output."""
    files = [
        p for p in root.glob("*.md") if p.name not in EXCLUDED
    ]
    files.extend(root.glob("docs/**/*.md"))
    return sorted(files)


def _fenced_stripped(text: str) -> str:
    """Markdown with fenced code blocks and inline code spans blanked
    (link syntax inside code is example output, not a navigable
    reference)."""
    out: List[str] = []
    fenced = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            out.append("")
            continue
        out.append("" if fenced else re.sub(r"`[^`]*`", "``", line))
    return "\n".join(out)


def check_links(root: pathlib.Path, files: List[pathlib.Path]) -> List[str]:
    """Pass 1: every relative markdown link must resolve."""
    problems: List[str] = []
    for path in files:
        text = _fenced_stripped(path.read_text(encoding="utf-8"))
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            if target.startswith("/"):
                problems.append(
                    f"{path.relative_to(root)}: absolute link {target!r} "
                    "will not survive a checkout elsewhere"
                )
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}: broken link {target!r}"
                )
    return problems


def check_code_paths(
    root: pathlib.Path, files: List[pathlib.Path]
) -> List[str]:
    """Pass 2: every backticked repo path must exist on disk."""
    problems: List[str] = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        for match in _PATH_RE.finditer(text):
            ref = match.group(1).rstrip("/").rstrip(".")
            if not (root / ref).exists():
                problems.append(
                    f"{path.relative_to(root)}: code path `{ref}` "
                    "does not exist"
                )
    return problems


def check_rule_catalog(root: pathlib.Path) -> List[str]:
    """Pass 3: CHECKS.md headings <-> the rule registry's codes, both ways."""
    problems: List[str] = []
    checks_md = root / "docs" / "CHECKS.md"
    if not checks_md.exists():
        return [f"docs/CHECKS.md missing (looked in {root})"]
    documented = set(_RULE_HEADING_RE.findall(checks_md.read_text()))
    implemented = {rule.code for rule in RULES} | {STALE_NOQA_CODE}
    for rule in sorted(documented - implemented):
        problems.append(
            f"docs/CHECKS.md documents {rule} but no rule in the "
            "registry has that code"
        )
    for rule in sorted(implemented - documented):
        problems.append(
            f"rule {rule} is implemented but has no ### heading in "
            "docs/CHECKS.md"
        )
    return problems


def check_generated(root: pathlib.Path) -> List[str]:
    """Pass 4: the committed capability matrix is what the table renders to."""
    committed = root / "docs" / "CAPABILITIES.md"
    if not committed.exists():
        return []
    from tools.gen_api_docs import generate_capabilities

    if committed.read_text(encoding="utf-8") == generate_capabilities():
        return []
    return ["docs/CAPABILITIES.md is stale: run `python -m tools.gen_api_docs`"]


def _code_blocks(text: str) -> Iterator[Tuple[int, str]]:
    """(line number of the first body line, source) of every python /
    pycon block; a pycon block keeps only its ``>>>`` / ``...`` input,
    with other lines blanked so line numbers still match the file."""
    lines = text.splitlines()
    at = 0
    while at < len(lines):
        fence = _CODE_FENCE_RE.match(lines[at])
        at += 1
        if not fence:
            continue
        first, body = at + 1, []
        while at < len(lines) and not lines[at].lstrip().startswith("```"):
            line = lines[at]
            if fence.group(1) == "pycon":
                prompt = line.lstrip()
                line = prompt[4:] if prompt[:3] in (">>>", "...") else ""
            body.append(line)
            at += 1
        yield first, textwrap.dedent("\n".join(body))


def _stale_calls(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """(node, problem) for every dead ``repro`` import in ``tree`` and
    every call of an imported name with a keyword it does not take."""
    imported: Dict[str, Any] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "repro"):
            continue
        try:
            module = importlib.import_module(node.module)
        except ImportError:
            yield node, f"no module `{node.module}`"
            continue
        for alias in node.names:
            if hasattr(module, alias.name):
                imported[alias.asname or alias.name] = getattr(module, alias.name)
            else:
                yield node, f"`{node.module}` has no `{alias.name}`"
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        try:
            params = inspect.signature(imported[node.func.id]).parameters.values()
        except (TypeError, ValueError):  # nothing to check the call against
            continue
        if any(p.kind is p.VAR_KEYWORD for p in params):
            continue
        accepted = {p.name for p in params if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg not in accepted:
                yield node, f"`{node.func.id}` takes no keyword `{keyword.arg}`"


def check_doc_calls(root: pathlib.Path, files: List[pathlib.Path]) -> List[str]:
    """Pass 5: doc code imports live ``repro`` names and calls them with
    keywords their signatures accept."""
    problems: List[str] = []
    for path in files:
        for first, source in _code_blocks(path.read_text(encoding="utf-8")):
            try:
                tree = ast.parse(source)
            except SyntaxError:  # a fragment, not a program
                continue
            for node, problem in _stale_calls(tree):
                line = first + node.lineno - 1
                problems.append(f"{path.relative_to(root)}:{line}: {problem}")
    return problems


def run_all(root: pathlib.Path) -> List[str]:
    """All five passes; the empty list means the docs are consistent."""
    files = markdown_files(root)
    return (
        check_links(root, files)
        + check_code_paths(root, files)
        + check_rule_catalog(root)
        + check_generated(root)
        + check_doc_calls(root, files)
    )
