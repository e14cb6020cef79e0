"""Pluggable mode policies for the adaptive scheme.

The decision rule behind ``check_mode`` (Fig. 6) — *when should a cell
enter or leave borrowing mode?* — is a :class:`ModePolicy` selected
per scenario (``Scenario.policy``, CLI ``--policy``).  The registry
ships two entries:

* ``linear`` — the paper's NFC linear extrapolation (the default;
  bit-identical to the pre-registry simulator);
* ``quantile`` — rank statistic over the sample window.

A new controller is a one-file drop-in: subclass :class:`ModePolicy`,
decorate with :func:`register_policy`, and every harness entry point
(sweeps, cache, snapshots, CLI, bench) picks it up by name.  It stays
only if it passes the rule in docs/POLICIES.md.
"""

# A policy registers itself when its module is imported: the package
# imports every one, so `policy_names()` and `policy_spec()` see them all.
from .base import (
    ModePolicy,
    make_policy,
    policy_names,
    policy_spec,
    register_policy,
)
from .linear import LinearPolicy
from .quantile import QuantilePolicy

__all__ = [
    "ModePolicy",
    "register_policy",
    "make_policy",
    "policy_spec",
    "policy_names",
    "LinearPolicy",
    "QuantilePolicy",
]
