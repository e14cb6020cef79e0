"""Bundle of all runtime sanitizers, attached in one call.

``SanitizerSuite(env, network)`` wires a :class:`DeadlockDetector`, a
:class:`CausalityChecker` and a :class:`QuiescenceChecker` to the
environment's probe bus.  The harness attaches one automatically when
:func:`repro.verify.set_default_policy` is active (the pytest suite
turns it on globally), so every scenario run is sanitized without any
per-test plumbing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..sim import Environment, Network
from .base import Sanitizer, Violation
from .causality import CausalityChecker
from .deadlock import DeadlockDetector
from .quiescence import QuiescenceChecker

__all__ = ["SanitizerSuite"]


class SanitizerSuite:
    """All three sanitizers behind one attach/detach/assert interface.

    Parameters
    ----------
    env:
        The simulation environment to observe.
    network:
        The message fabric (optional).  Only used to decide whether the
        FIFO-ordering check applies: a ``fifo=False`` network reorders
        by design, so only the causal (reply-before-request) checks
        remain active there.
    policy:
        ``"raise"`` or ``"record"``, applied to every sanitizer.
    """

    def __init__(
        self,
        env: Environment,
        network: Optional[Network] = None,
        policy: str = "raise",
    ) -> None:
        self.env = env
        self.policy = policy
        check_fifo = network.fifo if network is not None else True
        self.deadlock = DeadlockDetector(env, policy=policy)
        self.causality = CausalityChecker(env, policy=policy, check_fifo=check_fifo)
        self.quiescence = QuiescenceChecker(env, policy=policy)

    @property
    def sanitizers(self) -> List[Sanitizer]:
        return [self.deadlock, self.causality, self.quiescence]

    @property
    def violations(self) -> List[Violation]:
        """All recorded violations, in sanitizer order."""
        found: List[Violation] = []
        for sanitizer in self.sanitizers:
            found.extend(sanitizer.violations)
        return found

    def adopt(self, stations: Dict[int, Any]) -> None:
        """Take a restored world's standing facts as given.

        * Quiescence: channels already in use must count as held, or
          their eventual releases would flag as unmatched.
        * Causality: reply payloads still queued in restored ARQ links
          will be *sent* after restore, answering rounds whose requests
          were processed before the snapshot — re-open those rounds.
          In-flight reply envelopes need nothing: their round
          bookkeeping happened at the original send, and the FIFO
          check starts each link's watermark afresh.
        """
        for cell, station in sorted(stations.items()):
            if station.use:
                self.quiescence.held[cell] = set(station.use)
            if station._link is not None:
                for dst, queued in sorted(station._link._queue.items()):
                    for payload in queued:
                        if payload.is_reply:
                            self.causality._open_rounds.setdefault(
                                station.node_id, set()
                            ).add((dst, payload.round_id))

    def finalize(self) -> None:
        """Run end-of-run checks.  Call only after traffic has drained."""
        self.quiescence.finalize()

    def assert_clean(self) -> None:
        """Raise if any sanitizer recorded a violation."""
        for sanitizer in self.sanitizers:
            sanitizer.assert_clean()

    def detach(self) -> None:
        """Unsubscribe every sanitizer (the suite goes inert)."""
        for sanitizer in self.sanitizers:
            sanitizer.detach()
