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

from ..sim import Environment, Event, StreamRegistry
from .calls import CallConfig, CallLog, call_process
from .patterns import LoadPattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..protocols import MSS
    from .mix import TrafficMix

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
        self.mix = None if isinstance(config, CallConfig) else config
        self.streams = streams
        #: Arrivals stop at this time (active calls drain naturally).
        self.horizon = horizon
        #: Aggregate accounting (all classes combined).
        self.log = CallLog()
        self._started = False

    def start(self) -> None:
        """Launch one arrival process per cell (their arrival and call
        streams are seeded in one batch)."""
        if self._started:
            raise RuntimeError("traffic source already started")
        self._started = True
        cells = [cell for cell in sorted(self.stations) if self.pattern.max_rate(cell) > 0]
        self.streams.prepare(
            ("traffic", kind, cell) for cell in cells for kind in ("arrivals", "calls")
        )
        for cell in cells:
            self.env.process(self._arrivals(cell), name=f"arrivals[{cell}]")

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
