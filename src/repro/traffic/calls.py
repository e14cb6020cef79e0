"""Call lifecycle: acquisition, holding, mobility/handoff, release.

A *call* is one simulation process: it asks the serving MSS for a
channel, holds it for an exponentially distributed duration, optionally
hops to adjacent cells (handoff: release in the old cell, re-acquire in
the new cell — paper §2.1), and releases on completion.  A denied
acquisition ends the call immediately: a denied "new" request is a
blocked call, a denied "handoff" request is a forced termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Tuple

import numpy as np

from ..sim import Environment, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..protocols import MSS

__all__ = ["CallConfig", "call_process", "CallLog", "CALL_FRAME_LOCALS"]

#: The locals of a suspended :func:`call_process` frame a snapshot reads
#: its call descriptor from: origin cell, serving station, held channel,
#: holding time left after the wake, handoffs attempted so far.
CALL_FRAME_LOCALS = ("cell", "mss", "channel", "remaining", "handoffs")


@dataclass
class CallConfig:
    """Holding-time and mobility parameters of the call population."""

    mean_holding: float = 180.0
    #: Mean cell-dwell time of a moving host; ``None`` disables mobility.
    mean_dwell: Optional[float] = None
    #: Give up if the MSS cannot start serving the request within this
    #: long (blocked-calls-cleared at overload); ``None`` waits forever.
    setup_deadline: Optional[float] = 30.0

    def __post_init__(self) -> None:
        # ``not x > 0`` rather than ``x <= 0``: NaN must not pass (it
        # would become a NaN heap key through ``Environment.timeout``).
        if not self.mean_holding > 0:
            raise ValueError("mean_holding must be positive")
        if self.mean_dwell is not None and not self.mean_dwell > 0:
            raise ValueError("mean_dwell must be positive")
        if self.setup_deadline is not None and not self.setup_deadline > 0:
            raise ValueError("setup_deadline must be positive")


@dataclass
class CallLog:
    """Aggregate call-completion accounting (beyond per-request metrics)."""

    #: Snapshot fields (see :mod:`repro.snap.state`); not a dataclass field.
    SNAPSHOT = ("started", "blocked", "completed", "handoffs_attempted", "handoffs_failed")

    started: int = 0
    blocked: int = 0
    completed: int = 0
    handoffs_attempted: int = 0
    handoffs_failed: int = 0

    @property
    def forced_termination_rate(self) -> float:
        if not self.handoffs_attempted:
            return 0.0
        return self.handoffs_failed / self.handoffs_attempted


def call_process(
    env: Environment,
    stations: Dict[int, "MSS"],
    cell: int,
    config: CallConfig,
    rng: Optional[np.random.Generator],
    log: Optional[CallLog] = None,
    class_log: Optional[CallLog] = None,
    resume: Optional[Tuple[int, int, float, float, int]] = None,
) -> Generator[Event, Any, None]:
    """Simulation process for one call originating in ``cell``.

    ``log`` (and ``class_log``, the per-class log of a ``TrafficMix``)
    see ``started`` at arrival; everything else is counted in locals
    and folded in when the call ends, so concurrent calls never share a
    mutable counter mid-flight.  ``resume`` re-enters a call a snapshot
    caught in its hold — ``(serving cell, channel, holding time left
    after the wake, wake instant, handoffs attempted so far)`` — at the
    hold it was suspended in; its arrival was counted before capture.
    A resumed call without mobility draws nothing, so its ``rng`` may
    be None.
    """
    deadline = config.setup_deadline
    mean_dwell = config.mean_dwell
    blocked = completed = handoffs = handoffs_failed = 0
    if resume is None:
        if log is not None:
            log.started += 1
        if class_log is not None:
            class_log.started += 1
        mss = stations[cell]
        wake_at = None
        channel = yield from mss.request_channel("new", deadline)
        if channel is None:
            blocked = 1
        else:
            remaining = float(rng.exponential(config.mean_holding))
    else:
        serving, channel, remaining, wake_at, handoffs = resume
        mss = stations[serving]
    # ``remaining`` is the holding time left *after* the hold the call
    # is suspended in — what a snapshot stores for it.
    while channel is not None:
        if wake_at is None:
            if mean_dwell is None:
                step = remaining
            else:
                step = min(remaining, float(rng.exponential(mean_dwell)))
            remaining -= step
            yield env.timeout(step)
        else:
            yield env.timeout_at(wake_at)
            wake_at = None
        if remaining <= 0:
            mss.release_channel(channel)
            completed = 1
            break
        # Handoff: move to a random adjacent cell, releasing the old
        # channel and acquiring a fresh one in the new cell.
        new_cell = mss.topo.grid.random_walk_step(mss.cell, rng)
        mss.release_channel(channel)
        mss = stations[new_cell]
        handoffs += 1
        channel = yield from mss.request_channel("handoff", deadline)
        if channel is None:
            handoffs_failed = 1  # forced termination mid-call
    for sink in (log, class_log):
        if sink is not None:
            sink.blocked += blocked
            sink.completed += completed
            sink.handoffs_attempted += handoffs
            sink.handoffs_failed += handoffs_failed
