"""Runtime sanitizers — pluggable correctness oracles for the simulator.

The paper's correctness claims are theorems; this subpackage turns them
into executable checks that observe a live simulation through the
engine's probe bus (:meth:`repro.sim.Environment.subscribe`):

* :class:`DeadlockDetector` — Theorem 2's oracle: maintains the
  wait-for graph of the mode-2/mode-3 handshake incrementally and
  flags any cycle.
* :class:`CausalityChecker` — hardens the FIFO-link assumption: per
  (src, dst) link, messages must deliver in send order, and no node
  may send a RESPONSE for a round whose REQUEST/CHANGE_MODE it has not
  yet received, nor process such a round twice; at the end of a
  drained run, every such round must have been answered.  Its FIFO check is the runtime counterpart of
  the static state-isolation rules (ANA201–ANA203, ``python -m
  tools.check``).
* :class:`QuiescenceChecker` — end-of-run hygiene: no channel left in
  the interference monitor's ledger, every channel request resolved.

All sanitizers share the :class:`InterferenceMonitor` policy API:
``policy="raise"`` fails loudly on the first violation (tests),
``policy="record"`` accumulates violations for inspection.

:class:`SanitizerSuite` bundles the three and attaches them to a
simulation in one call; its ``finalize()`` runs the end-of-run checks
(one oracle per property).  The pytest ``conftest`` enables it
globally via :func:`set_default_policy`.
"""

from typing import Optional

from .. import lazy_exports

__all__ = [
    "Sanitizer",
    "Violation",
    "DeadlockDetector",
    "DeadlockViolation",
    "CausalityChecker",
    "CausalityViolation",
    "QuiescenceChecker",
    "QuiescenceViolation",
    "SanitizerSuite",
    "set_default_policy",
    "get_default_policy",
]

#: The checkers load when a simulation is built under a default policy:
#: this package itself holds only that policy, so a run without one
#: imports none of them.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Sanitizer", "Violation"),
    ".causality": ("CausalityChecker", "CausalityViolation"),
    ".deadlock": ("DeadlockDetector", "DeadlockViolation"),
    ".quiescence": ("QuiescenceChecker", "QuiescenceViolation"),
    ".suite": ("SanitizerSuite",),
})

#: Module-level default policy: when not ``None``, the harness attaches
#: a :class:`SanitizerSuite` with this policy to every simulation it
#: builds.  The test suite sets it to ``"raise"`` in ``conftest.py``.
_DEFAULT_POLICY: Optional[str] = None


def set_default_policy(policy: Optional[str]) -> Optional[str]:
    """Set the process-wide default sanitizer policy.

    ``None`` disables automatic attachment; ``"raise"`` / ``"record"``
    make :func:`repro.harness.build_simulation` attach a
    :class:`SanitizerSuite` with that policy to every new simulation.
    Returns the previous value (for save/restore in fixtures).
    """
    global _DEFAULT_POLICY
    if policy not in (None, "raise", "record"):
        raise ValueError(f"unknown policy {policy!r}")
    previous = _DEFAULT_POLICY
    _DEFAULT_POLICY = policy
    return previous


def get_default_policy() -> Optional[str]:
    """Return the current process-wide default sanitizer policy."""
    return _DEFAULT_POLICY
