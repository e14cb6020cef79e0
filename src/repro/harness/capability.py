"""The capability table: which lane may run with which feature, decided once.

Theorems 1 and 2 hold under the paper's assumptions, and a lane or a
scheme may add one of its own — a snapshot needs a globally quiescent
instant, the adaptive handshakes per-link FIFO delivery.
:data:`CAPABILITIES` writes down every exception to "any lane runs with
any feature": a ``(lane, feature)`` pair refused for the reason it maps
to.  Every combination without a row is accepted and row-identical to
the classic kernel; the differential oracle in ``tests/test_lanes.py``
draws every such combination.
:func:`features` derives the vocabulary from one request and
:func:`check_compatible` — the only place a combination is refused, with
the only exception type — is called by every entry point before it
builds anything; it also refuses a policy name the registry does not
know.  The table names no scheme and no policy: a scheme owns its cells
through ``MSS.requires_fifo``.  Nor does it name a CLI flag: the
snapshot operations are subcommands, so a flag that means nothing there
is an argparse error.  ``docs/CAPABILITIES.md`` is generated from it.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, Iterator, MutableMapping, Set, Tuple, Type

from ..protocols import MSS

__all__ = ["SCHEMES", "CAPABILITIES", "CompatibilityError", "check_compatible", "features"]


class _Schemes(MutableMapping[str, Type[MSS]]):
    """Scheme name -> ``MSS`` subclass.  A stock entry is a function that
    reads the class off its package, whose lazy exports import the
    scheme's module then: a run loads only the scheme it runs.
    Assigning an entry registers a class as it is (a drop-in scheme)."""

    def __init__(self, stock: Dict[str, Callable[[], Type[MSS]]]) -> None:
        self._entries: Dict[str, Any] = dict(stock)

    def __getitem__(self, name: str) -> Type[MSS]:
        entry = self._entries[name]
        return entry if isinstance(entry, type) else entry()

    def __setitem__(self, name: str, cls: Type[MSS]) -> None:
        self._entries[name] = cls

    def __delitem__(self, name: str) -> None:
        del self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def _package(name: str) -> Any:
    return importlib.import_module(f"repro.{name}")


#: Registry of allocation schemes by name.
SCHEMES = _Schemes({
    "fixed": lambda: _package("protocols").FixedMSS,
    "basic_search": lambda: _package("protocols").BasicSearchMSS,
    "basic_update": lambda: _package("protocols").BasicUpdateMSS,
    "advanced_update": lambda: _package("protocols").AdvancedUpdateMSS,
    "adaptive": lambda: _package("core").AdaptiveMSS,
    "prakash": lambda: _package("protocols").PrakashMSS,
})


class CompatibilityError(ValueError):
    """A lane × feature combination the capability table rejects."""


#: ``(lane, feature) -> reason``, one refusal a line; the pair is unordered.
CAPABILITIES: Dict[Tuple[str, str], str] = {
    # checkpoint: capture at a globally quiescent instant.
    ("checkpoint", "TrafficMix"): "multi-class TrafficMix sources are not snapshotable",
    # The adaptive handshakes assume per-link FIFO (docs/PROTOCOL.md §7).
    ("unordered links", "scheme that requires FIFO links"): (
        "its handshakes assume per-link FIFO delivery (docs/PROTOCOL.md §7)"
    ),
}


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
    scheme = SCHEMES.get(scenario.scheme)  # an unknown name is build_simulation's to refuse
    derived = (
        ("unordered links", not scenario.fifo),
        ("scheme that requires FIFO links", scheme is not None and scheme.requires_fifo),
    )
    return on.union(name for name, holds in derived if holds)


def check_compatible(scenario: Any = None, *, lanes: Iterable[str] = (), source: Any = None) -> None:
    """Raise :class:`CompatibilityError` if the request (see
    :func:`features`) switches on both sides of a row, and
    ``ValueError`` if a policy-driven scenario names an unknown policy.

    Every entry point calls this before it builds anything.
    """
    if scenario is not None and SCHEMES.get(scenario.scheme, MSS).policy_driven:
        from ..policies import policy_spec  # a policy-driven scheme loads the registry

        policy_spec(scenario.policy)
    on = features(scenario, lanes=lanes, source=source)
    for (a, b), reason in CAPABILITIES.items():
        if a in on and b in on:
            raise CompatibilityError(f"cannot combine {a} with {b}: {reason}")
