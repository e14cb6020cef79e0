"""Arrival processes: per-cell (non-homogeneous) Poisson call streams.

Each cell runs one generator process producing call arrivals by Poisson
thinning: candidate arrivals are drawn at the pattern's maximum rate
and accepted with probability ``rate(t) / max_rate``, which realizes an
exact non-homogeneous Poisson process for time-varying patterns (ramps,
temporal hot spots) at no extra machinery for constant ones.

Every cell draws from its own named random substream, so traffic in
cell 17 is identical across runs regardless of what the protocol or
other cells do — variance reduction for scheme comparisons.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Union

from ..sim import Environment, Event, Process, StreamRegistry
from .calls import CallConfig, CallLog, call_process
from .mix import TrafficMix
from .patterns import LoadPattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..harness.fastlane import FastLane
    from ..protocols import MSS

__all__ = ["TrafficSource"]


class TrafficSource:
    """Drives call arrivals for every cell of a simulation."""

    #: Snapshot fields (see :mod:`repro.snap.state`); the arrival and
    #: call processes themselves are event-queue entries.
    SNAPSHOT = (("log", "log", CallLog),)

    def __init__(
        self,
        env: Environment,
        stations: Dict[int, "MSS"],
        pattern: LoadPattern,
        config: Union[CallConfig, TrafficMix],
        streams: StreamRegistry,
        horizon: Optional[float] = None,
    ) -> None:
        self.env = env
        self.stations = stations
        self.pattern = pattern
        #: Either a single CallConfig or a multi-class TrafficMix.
        self.config = config
        self.mix = config if isinstance(config, TrafficMix) else None
        self.streams = streams
        #: Arrivals stop at this time (active calls drain naturally).
        self.horizon = horizon
        #: Aggregate accounting (all classes combined).
        self.log = CallLog()
        self._started = False
        #: Fast-lane controller (``repro.harness.fastlane``); when set,
        #: cells the lane claims at t=0 get no arrival process until
        #: the lane promotes them via :meth:`launch`.
        self.lane: Optional["FastLane"] = None
        #: Live arrival process per cell (lane demotion cancels the
        #: process's pending gap timeout through this).
        self._procs: Dict[int, Process] = {}

    def start(self) -> None:
        """Launch one arrival process per cell (their arrival and call
        streams are seeded in one batch)."""
        if self._started:
            raise RuntimeError("traffic source already started")
        self._started = True
        cells = [
            cell for cell in sorted(self.stations)
            if self.pattern.max_rate(cell) > 0
            # A cell the lane claims is fluid from t=0; the lane settles it.
            and not (self.lane is not None and self.lane.claims(cell))
        ]
        self.streams.prepare(
            ("traffic", kind, cell) for cell in cells for kind in ("arrivals", "calls")
        )
        for cell in cells:
            self.launch(cell)

    def launch(self, cell: int) -> None:
        """(Re)start the arrival process for one cell.

        Used at :meth:`start` and by the fast lane at promotion.  The
        per-cell RNG substreams are memoized in the registry, so a
        relaunched process resumes the *same* stream where the previous
        incarnation (or the lane's settlement replay) left it.
        """
        self._procs[cell] = self.env.process(
            self._arrivals(cell), name=f"arrivals[{cell}]"
        )

    def close(self) -> None:
        """Forget the arrival processes (their frames hold the source)
        and the fast lane (which holds it too)."""
        self._procs.clear()
        self.lane = None

    def halt(self, cell: int) -> None:
        """Take a cell's arrival process off the event heap (fast lane).

        The process is parked on its next-gap :class:`Timeout`;
        cancelling that timeout abandons the generator without running
        any of its code.  Exactness note: the un-elapsed exponential
        gap can be discarded because the exponential is memoryless —
        redrawing from the (memoized, position-preserved) stream at
        promotion is distributionally identical.
        """
        proc = self._procs.pop(cell, None)
        if proc is None or not proc.is_alive:
            return
        target = proc.target
        if target is not None:
            self.env.cancel(target)

    def _arrivals(
        self, cell: int, wake_at: Optional[float] = None
    ) -> Generator[Event, Any, None]:
        """One cell's arrival stream.  ``wake_at`` re-enters a stream a
        snapshot caught between two arrivals, at the arrival it was
        waiting for (its gap was drawn before capture)."""
        rng = self.streams.stream("traffic", "arrivals", cell)
        # The call stream is built at the first accepted arrival: many
        # cells of a short (forked) window never accept one.
        self.streams.reserve("traffic", "calls", cell)
        call_rng = None
        lam_max = self.pattern.max_rate(cell)
        name = f"call[{cell}]"
        if wake_at is None:
            yield self.env.timeout(float(rng.exponential(1.0 / lam_max)))
        else:
            yield self.env.timeout_at(wake_at)
        while True:
            now = self.env.now
            if self.horizon is not None and now >= self.horizon:
                return
            accept = self.pattern.rate(cell, now) / lam_max
            if accept >= 1.0 or rng.random() < accept:
                if self.mix is not None:
                    call_class = self.mix.sample(rng)
                    config = call_class.config
                    class_log = self.mix.log_for(call_class.name)
                else:
                    config = self.config
                    class_log = None
                if call_rng is None:
                    call_rng = self.streams.stream("traffic", "calls", cell)
                self.env.process(
                    call_process(
                        self.env, self.stations, cell, config, call_rng,
                        self.log, class_log,
                    ),
                    name=name,
                )
            yield self.env.timeout(float(rng.exponential(1.0 / lam_max)))
