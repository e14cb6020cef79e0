"""Random-waypoint 2-D mobility: hosts that really cross cell borders.

The basic mobility model (``CallConfig.mean_dwell``) abstracts movement
as exponential dwell timers with random-neighbor hops.  This module
models it physically: a mobile host has a Cartesian position and speed,
walks toward uniformly random waypoints (the classic random-waypoint
model), and a handoff fires exactly when its trajectory crosses a hex
cell boundary — giving realistic dwell-time distributions (short
clipped corners, long diagonal crossings) instead of memoryless ones.

Used with a *planar* grid (torus wrap has no continuous embedding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

import numpy as np

from ..cellular.geometry import grid_bounds, nearest_cell
from ..cellular.hexgrid import HexGrid
from ..sim import Environment, Event
from .calls import CallConfig, CallLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..protocols import MSS

__all__ = ["WaypointHost", "waypoint_call_process"]


@dataclass
class WaypointHost:
    """A host performing a random-waypoint walk inside the grid box."""

    grid: HexGrid
    rng: np.random.Generator
    speed: float
    size: float = 1.0
    #: Trajectory sampling step as a fraction of the hex size (boundary
    #: crossings are detected at this resolution).
    resolution: float = 0.25

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.grid.wrap:
            raise ValueError("waypoint mobility needs a planar grid")
        self.bounds = grid_bounds(self.grid, self.size)
        xmin, ymin, xmax, ymax = self.bounds
        self.x = float(self.rng.uniform(xmin, xmax))
        self.y = float(self.rng.uniform(ymin, ymax))
        self._pick_waypoint()

    def _pick_waypoint(self) -> None:
        xmin, ymin, xmax, ymax = self.bounds
        self.wx = float(self.rng.uniform(xmin, xmax))
        self.wy = float(self.rng.uniform(ymin, ymax))

    @property
    def cell(self) -> int:
        return nearest_cell(self.grid, self.x, self.y, self.size)

    def advance(self, dt: float) -> None:
        """Move ``dt`` time units along the current leg (new waypoints
        as needed)."""
        remaining = dt * self.speed
        while remaining > 1e-12:
            dx, dy = self.wx - self.x, self.wy - self.y
            leg = (dx * dx + dy * dy) ** 0.5
            if leg <= remaining:
                self.x, self.y = self.wx, self.wy
                remaining -= leg
                self._pick_waypoint()
            else:
                frac = remaining / leg
                self.x += dx * frac
                self.y += dy * frac
                remaining = 0.0

    def time_to_next_check(self) -> float:
        """Sampling interval for boundary-crossing detection."""
        return self.resolution * self.size / self.speed


def waypoint_call_process(
    env: Environment,
    stations: Dict[int, "MSS"],
    host: WaypointHost,
    config: CallConfig,
    rng: np.random.Generator,
    log: Optional[CallLog] = None,
) -> Generator[Event, Any, None]:
    """A call carried by a physically moving host.

    Acquires in the host's current cell, re-acquires whenever the
    trajectory enters a different cell, releases at call end.  A failed
    handoff force-terminates the call.
    """
    if log is not None:
        log.started += 1
    mss = stations[host.cell]
    channel = yield from mss.request_channel("new", config.setup_deadline)
    if channel is None:
        if log is not None:
            log.blocked += 1
        return

    remaining = float(rng.exponential(config.mean_holding))
    step = host.time_to_next_check()
    while remaining > 0:
        dt = min(step, remaining)
        yield env.timeout(dt)
        host.advance(dt)
        remaining -= dt
        new_cell = host.cell
        if new_cell != mss.cell:
            mss.release_channel(channel)
            mss = stations[new_cell]
            if log is not None:
                log.handoffs_attempted += 1
            channel = yield from mss.request_channel(
                "handoff", config.setup_deadline
            )
            if channel is None:
                if log is not None:
                    log.handoffs_failed += 1
                return
    mss.release_channel(channel)
    if log is not None:
        log.completed += 1
