"""Bundle of all runtime sanitizers, attached in one call.

``SanitizerSuite(env, network, monitor)`` wires a :class:`DeadlockDetector`, a
:class:`CausalityChecker` and a :class:`QuiescenceChecker` to the
environment's probe bus.  The harness attaches one automatically when
:func:`repro.verify.set_default_policy` is active (the pytest suite
turns it on globally), so every scenario run is sanitized without any
per-test plumbing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from ..sim import Environment, Network
from .base import Sanitizer, Violation
from .causality import CausalityChecker
from .deadlock import DeadlockDetector
from .quiescence import QuiescenceChecker

if TYPE_CHECKING:
    from ..protocols import InterferenceMonitor

__all__ = ["SanitizerSuite"]


class SanitizerSuite:
    """All three sanitizers behind one attach/detach/assert interface.

    Parameters
    ----------
    env:
        The simulation environment to observe.
    network:
        The message fabric.  A ``fifo=False`` network reorders by
        design, so only the causal (reply-before-request) checks remain
        active there; a network with a fault injector loses rounds by
        design, so :meth:`finalize` does not judge unanswered ones there.
    monitor:
        The run's :class:`~repro.protocols.InterferenceMonitor`, whose
        channel ledger the quiescence check reads.
    policy:
        ``"raise"`` or ``"record"``, applied to every sanitizer.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        monitor: InterferenceMonitor,
        policy: str = "raise",
    ) -> None:
        self.env = env
        self.network = network
        self.policy = policy
        self.deadlock = DeadlockDetector(env, policy=policy)
        self.causality = CausalityChecker(env, policy=policy, check_fifo=network.fifo)
        self.quiescence = QuiescenceChecker(env, monitor, policy=policy)

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

        Reply payloads still queued in restored ARQ links will be
        *sent* after restore, answering rounds whose requests were
        processed before the snapshot — re-open those rounds.  In-flight
        reply envelopes need nothing: their round bookkeeping happened
        at the original send, and the FIFO check starts each link's
        watermark afresh.  Held channels need nothing either: the
        monitor the quiescence check reads is restored in place.
        """
        for station in stations.values():
            if station._link is not None:
                for dst, queued in sorted(station._link._queue.items()):
                    for payload in queued:
                        if payload.is_reply:
                            self.causality._open_rounds.setdefault(
                                station.node_id, set()
                            ).add((dst, payload.round_id))

    def finalize(self) -> None:
        """Run end-of-run checks.  Call only after traffic has drained."""
        if self.network.injector is None:
            self.causality.finalize()
        self.quiescence.finalize()

    def assert_clean(self) -> None:
        """Raise if any sanitizer recorded a violation."""
        for sanitizer in self.sanitizers:
            sanitizer.assert_clean()

    def detach(self) -> None:
        """Unsubscribe every sanitizer (the suite goes inert)."""
        for sanitizer in self.sanitizers:
            sanitizer.detach()
