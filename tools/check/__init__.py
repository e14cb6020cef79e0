"""The repository's one static checker (``python -m tools.check``).

An AST checker for invariants generic linters cannot know about.  One
engine (``engine.py``) parses each file once, scopes every rule by
path, applies ``# repro: noqa(CODE)`` pragmas and reports stale ones;
the rules come in four families:

========  =============================================================
SIM001–   Simulation hygiene and determinism (``rules.py``): no
SIM012    wall clock, no global RNG, channel state and handlers only
          through the base-class API, no swallowed handler errors, no
          unordered fan-out, identity ordering, ``popitem`` or env-var
          reads, guarded probe emits, sends and waits through the
          hardened path, no ``int.bit_count`` (3.10+).
ANA101–   Message-flow conformance (``flow.py``), the whole-program
ANA104    rules: every kind sent is handled, every handler's kind is
          sent, every ``msg.<attr>`` is a field, every constructor
          call matches its dataclass.
ANA201–   State isolation (``isolation.py``): stations interact only
ANA203,   by messages, and no simulation state lives where a snapshot
ANA301    cannot see it — no cross-cell dereference, no mutable class
          attribute or module global, no generator outside the stream
          registry.
ANA401    Public surface (``surface.py``), whole-program: every public
          def, class and method under ``src/repro`` is referenced
          outside ``tests/``, or names its consumer in a pragma.
SIM100    No stale suppressions — a ``# repro: noqa`` pragma that
          silences nothing is itself a finding (and cannot be
          suppressed).
========  =============================================================

Suppress a finding on one line with ``# repro: noqa(SIM001)`` (comma
list allowed; bare ``# repro: noqa`` silences every rule on the line).
Every code takes the pragma; a rule's ``excludes`` is the only
file-level exemption.  ``docs/CHECKS.md`` is the catalog.
"""

from .engine import (
    STALE_NOQA_CODE,
    Finding,
    ProgramRule,
    Rule,
    check_file,
    check_files,
    check_paths,
    iter_python_files,
)
from .rules import RULES

__all__ = [
    "Finding",
    "Rule",
    "ProgramRule",
    "RULES",
    "STALE_NOQA_CODE",
    "check_file",
    "check_files",
    "check_paths",
    "iter_python_files",
]
