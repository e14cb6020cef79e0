"""Simulation-specific static checks (``python -m tools.check``).

A small AST lint that enforces repository invariants generic linters
cannot know about:

========  =============================================================
SIM001    No wall-clock reads inside simulation code — simulated time
          comes from ``env.now``, never from ``time`` / ``datetime``.
SIM002    No module-global randomness — all stochastic draws go
          through seeded generators from ``repro.sim.rng`` so runs
          stay reproducible.
SIM003    Protocol subclasses never mutate channel-use state directly;
          acquisition and release go through the ``base.py`` API so
          the interference monitor and metrics see every transition.
SIM004    Event handlers are invoked only by the network fabric —
          protocol code never calls ``on_message`` / ``_on_*`` itself,
          which would bypass latency, ordering and the sanitizers.
SIM005    No bare ``except`` (or ``except Exception: pass``) inside
          message handlers — protocol errors must never be silently
          dropped.
SIM010    Every probe emit sits directly under its own
          ``if kind in self._probes`` guard.
SIM011    Schemes send through ``_send`` / ``_broadcast`` and wait
          through ``_await_round`` — never ``self.network.send`` /
          ``multicast`` or a bare ``yield collector.done``, which skip
          the ARQ and the round deadline of a hardened run.
SIM100    No stale suppressions — a ``# repro: noqa`` pragma that
          silences nothing is itself a finding (and cannot be
          suppressed).
========  =============================================================

Suppress a finding on one line with ``# repro: noqa(SIM001)`` (comma
list allowed; bare ``# repro: noqa`` silences every rule on the line).

The determinism rule family SIM006–SIM009 shares this engine but is
run by the whole-program analyzer, ``python -m tools.analyze`` (see
``tools/analyze``), alongside the message-flow and shard-safety
passes.  Both CLIs accept ``--format json`` and emit the same finding
schema (:meth:`Finding.to_dict`).
"""

from .engine import (
    STALE_NOQA_CODE,
    Finding,
    check_file,
    check_paths,
    iter_python_files,
)
from .rules import RULES, Rule

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "STALE_NOQA_CODE",
    "check_file",
    "check_paths",
    "iter_python_files",
]
