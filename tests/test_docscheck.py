"""The docs cross-reference checker (`python -m tools.docscheck`).

Two halves: the failure modes on a synthetic tree (broken links,
absolute links, dead code paths, rule-catalog drift in both
directions, stale calls in doc code), and the pin that keeps the real repository clean — the
latter is the actual contract CI enforces, the former proves the
checker would notice if it drifted.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tools.check import RULES  # noqa: E402
from tools.docscheck import (  # noqa: E402
    EXCLUDED,
    check_class_attrs,
    check_code_paths,
    check_doc_calls,
    check_generated,
    check_links,
    check_rule_catalog,
    markdown_files,
    run_all,
)


#: One ``###`` heading per code of the real registry (plus SIM100).
CATALOG = [f"### {code} — demo\n" for code in sorted({r.code for r in RULES} | {"SIM100"})]


def make_tree(tmp_path, checks_md="".join(CATALOG)):
    """A minimal repo skeleton the three passes can run against."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "CHECKS.md").write_text(checks_md)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "real.py").write_text("x = 1\n")
    return tmp_path


# -- pass 1: links ----------------------------------------------------------


def test_broken_and_absolute_links_are_flagged(tmp_path):
    root = make_tree(tmp_path)
    (tmp_path / "README.md").write_text(
        "[ok](docs/CHECKS.md)\n"
        "[gone](docs/MISSING.md)\n"
        "[abs](/etc/passwd)\n"
        "[ext](https://example.org) [anchor](#here)\n"
    )
    problems = check_links(root, markdown_files(root))
    assert len(problems) == 2
    assert any("MISSING.md" in p and "broken link" in p for p in problems)
    assert any("/etc/passwd" in p and "absolute" in p for p in problems)


def test_links_resolve_relative_to_the_containing_file(tmp_path):
    root = make_tree(tmp_path)
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "[sibling](CHECKS.md) [up](../README.md#install)\n"
    )
    (tmp_path / "README.md").write_text("hello\n")
    assert check_links(root, markdown_files(root)) == []


def test_code_spans_and_fences_are_not_links(tmp_path):
    root = make_tree(tmp_path)
    (tmp_path / "README.md").write_text(
        "every `[text](target)` must resolve\n"
        "```\n[example](not/a/real/file.md)\n```\n"
    )
    assert check_links(root, markdown_files(root)) == []


def test_excluded_driver_files_are_skipped(tmp_path):
    root = make_tree(tmp_path)
    for name in EXCLUDED:
        (tmp_path / name).write_text("[broken](nowhere.md)\n")
    assert check_links(root, markdown_files(root)) == []


# -- pass 2: code paths -----------------------------------------------------


def test_dead_code_paths_are_flagged(tmp_path):
    root = make_tree(tmp_path)
    (tmp_path / "README.md").write_text(
        "see `src/real.py` and `src/deleted.py`\n"
    )
    problems = check_code_paths(root, markdown_files(root))
    assert len(problems) == 1
    assert "src/deleted.py" in problems[0]


# -- pass 3: rule catalog ---------------------------------------------------


def test_undocumented_rule_is_flagged(tmp_path):
    root = make_tree(tmp_path, checks_md="".join(CATALOG[1:]))
    assert check_rule_catalog(root) == [
        "rule ANA101 is implemented but has no ### heading in docs/CHECKS.md"
    ]


def test_phantom_documented_rule_is_flagged(tmp_path):
    # A code that source text merely mentions is not a rule: only the
    # registry counts.
    root = make_tree(tmp_path, checks_md="".join(CATALOG) + "### SIM777 — phantom\n")
    problems = check_rule_catalog(root)
    assert len(problems) == 1
    assert "SIM777" in problems[0]


def test_internal_sentinel_is_tolerated(tmp_path):
    # SIM000 (syntax error) is the engine's, not a rule: no section wanted.
    root = make_tree(tmp_path)
    assert "SIM000" not in "".join(CATALOG)
    assert check_rule_catalog(root) == []


# -- pass 4: generated capability table --------------------------------------


def test_stale_capability_matrix_is_flagged(tmp_path):
    root = make_tree(tmp_path)
    assert check_generated(root) == []  # no committed copy, nothing to compare
    current = (ROOT / "docs" / "CAPABILITIES.md").read_text()
    (tmp_path / "docs" / "CAPABILITIES.md").write_text(current)
    assert check_generated(root) == []
    (tmp_path / "docs" / "CAPABILITIES.md").write_text(current.replace("## Refused", "## Accepted", 1))
    problems = check_generated(root)
    assert len(problems) == 1 and "stale" in problems[0]


# -- pass 5: stale calls in doc code ------------------------------------------


def test_stale_imports_and_keywords_in_doc_code_are_flagged(tmp_path):
    root = make_tree(tmp_path)
    (tmp_path / "README.md").write_text(
        "```pycon\n"
        ">>> from repro.harness import Scenario, run_replications as reps\n"
        ">>> from repro.protocols import PrakashMSS\n"
        ">>> reps(Scenario(seed=3), n=2, warm_start=9.0)\n"
        ">>> PrakashMSS(any_keyword=1)  # it takes **kwargs\n"
        "```\n"
        "```python\n"
        "from repro.obs import Settings\n"
        "from repro.gone import x\n"
        "```\n"
    )
    assert check_doc_calls(root, markdown_files(root)) == [
        "README.md:4: `reps` takes no keyword `warm_start`",
        "README.md:8: `repro.obs` has no `Settings`",
        "README.md:9: no module `repro.gone`",
    ]


# -- pass 6: class attributes in prose -----------------------------------------


def test_missing_class_attributes_in_prose_are_flagged(tmp_path):
    root = make_tree(tmp_path)
    (tmp_path / "README.md").write_text(
        "`Environment.peek()`, `Scenario.seed`, `Envelope.callbacks`, `Network.fifo`\n"
        "`Environment.cancel(envelope)` and `Scenario.fastlane`\n"
        "`cancel` on `Environment`; `Unexported.anything`\n"
        "```python\nEnvironment.cancel\n```\n"
    )
    assert check_class_attrs(root, markdown_files(root)) == [
        "README.md:2: `Environment` has no attribute `cancel`",
        "README.md:2: `Scenario` has no attribute `fastlane`",
    ]


# -- the real repository ----------------------------------------------------


def test_repository_docs_are_clean():
    """The CI contract: zero problems on the actual tree."""
    assert run_all(ROOT) == []


def test_cli_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "tools.docscheck"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert "clean" in result.stdout

    root = make_tree(tmp_path)
    (tmp_path / "README.md").write_text("[gone](missing.md)\n")
    result = subprocess.run(
        [sys.executable, "-m", "tools.docscheck", str(root)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert result.returncode == 1
    assert "broken link" in result.stderr
