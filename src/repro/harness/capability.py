"""The capability table: which lane may run with which feature, decided once.

Theorems 1 and 2 hold under the paper's assumptions, and each speed
lane adds one of its own — the fast lane Erlang-loss quiescence, a
snapshot a globally quiescent instant.  :data:`CAPABILITIES` writes
down every exception to "any lane runs with any feature":

* ``rejected`` — refused with ``detail`` as the reason;
* ``tolerance`` — accepted, within ``bound`` of the classic kernel.

Every combination without a row is accepted and row-identical to the
classic kernel; the differential oracle in ``tests/test_lanes.py``
draws every such combination.
:func:`features` derives the vocabulary from one request and
:func:`check_compatible` — the only place a combination is refused, with
the only exception type — is called by every entry point before it
builds anything; it also refuses a policy name the registry does not
know.  The table names no scheme and no policy: a scheme owns its cells
through ``MSS.fluid_model``.  Nor does it name a CLI flag: the snapshot
operations are subcommands, so a flag that means nothing there is an
argparse error.  ``docs/CAPABILITIES.md`` and the ``--fastlane`` help
text are generated from it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, NamedTuple, Optional, Set, Tuple, Type

from ..core import AdaptiveMSS
from ..policies.base import policy_spec
from ..protocols import MSS, AdvancedUpdateMSS, BasicSearchMSS, BasicUpdateMSS, FixedMSS, PrakashMSS

__all__ = ["SCHEMES", "CAPABILITIES", "CompatibilityError", "Verdict", "check_compatible", "features", "rejected_with"]

#: Registry of allocation schemes by name.
SCHEMES: Dict[str, Type[MSS]] = {
    "fixed": FixedMSS,
    "basic_search": BasicSearchMSS,
    "basic_update": BasicUpdateMSS,
    "advanced_update": AdvancedUpdateMSS,
    "adaptive": AdaptiveMSS,
    "prakash": PrakashMSS,
}


class CompatibilityError(ValueError):
    """A lane × feature combination the capability table rejects."""


class Verdict(NamedTuple):
    """One row of the table: ``kind`` is ``"tolerance"`` (``detail``
    names the quantity held within ``bound``) or ``"rejected"``
    (``detail`` is the reason)."""

    kind: str
    detail: str = ""
    bound: Optional[float] = None


def _no(reason: str) -> Verdict:
    return Verdict("rejected", reason)


#: ``(lane, feature) -> Verdict``, one row a line; the pair is unordered.
#: A "classic kernel" row says how the lane's report relates to the plain run's.
CAPABILITIES: Dict[Tuple[str, str], Verdict] = {
    # fastlane: quiescent cells leave the event heap and advance as Erlang-loss fluid.
    ("fastlane", "classic kernel"): Verdict("tolerance", "drop rate (7x7 adaptive, 3 Erlang, 2000 s)", 0.02),
    ("fastlane", "scheme without fluid model"): _no("only schemes that declare MSS.fluid_model can be advanced analytically"),
    ("fastlane", "fault plan"): _no("fault-plan actions target discrete per-cell state"),
    ("fastlane", "mobility"): _no("mobility needs handoff flows, which the fluid model lacks"),
    ("fastlane", "guard channels"): _no("guard channels reserve primaries for handoffs; fluid admission is plain Erlang loss"),
    ("fastlane", "TrafficMix"): _no("the fluid model has one call class, a TrafficMix several"),
    ("fastlane", "checkpoint"): _no("a fluid cell's calls are analytic occupancy, not call records a snapshot can capture"),
    # checkpoint: capture at a globally quiescent instant.
    ("checkpoint", "TrafficMix"): _no("multi-class TrafficMix sources are not snapshotable"),
}

_REJECTED = [(a, b, v.detail) for (a, b), v in CAPABILITIES.items() if v.kind == "rejected"]


def rejected_with(lane: str) -> str:
    """What the table refuses to combine with ``lane``, for CLI help text."""
    return ", ".join(b if a == lane else a for a, b, _ in _REJECTED if lane in (a, b))


def features(scenario: Any = None, *, lanes: Iterable[str] = (), source: Any = None) -> Set[str]:
    """The table's vocabulary one request switches on.

    ``lanes`` are the features only the caller knows (``"checkpoint"``);
    ``source`` is a live traffic source, the one feature a
    :class:`Scenario` cannot carry.
    """
    on = set(lanes)
    if source is not None and source.mix is not None:
        on.add("TrafficMix")
    if scenario is None:
        return on
    scheme = SCHEMES.get(scenario.scheme, MSS)  # an unknown name is build_simulation's to refuse
    derived = (
        ("fastlane", scenario.fastlane),
        ("scheme without fluid model", not scheme.fluid_model),
        ("fault plan", scenario.faults is not None and scenario.faults.enabled),
        ("mobility", scenario.mean_dwell is not None),
        ("guard channels", scenario.extra_params.get("guard_channels")),
        ("random latency", scenario.latency_model != "deterministic"),
    )
    return on.union(name for name, holds in derived if holds)


def check_compatible(scenario: Any = None, *, lanes: Iterable[str] = (), source: Any = None) -> None:
    """Raise :class:`CompatibilityError` if the request (see
    :func:`features`) switches on both sides of a ``rejected`` row, and
    ``ValueError`` if a policy-driven scenario names an unknown policy.

    Every entry point calls this before it builds anything.
    """
    if scenario is not None and SCHEMES.get(scenario.scheme, MSS).policy_driven:
        policy_spec(scenario.policy)
    on = features(scenario, lanes=lanes, source=source)
    for a, b, reason in _REJECTED:
        if a in on and b in on:
            raise CompatibilityError(f"cannot combine {a} with {b}: {reason}")
