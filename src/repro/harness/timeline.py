"""Mode-occupancy sampling: watch cells enter and leave borrowing mode.

A :class:`ModeSampler` polls every station's ``mode`` on a fixed
interval during the run and renders per-cell ASCII timelines — the
clearest way to *see* the paper's central mechanism (cells switching
modes to track their own load) in action.

Glyphs: ``.`` local, ``b`` borrowing-idle, ``U`` update round in
flight, ``S`` search in flight, ``?`` anything else (unknown or
transient mode values sample as :data:`repro.obs.UNKNOWN_MODE` instead
of raising — the glyph map is shared with the observability layer's
run reports, see ``repro.obs.timeseries``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..obs.timeseries import MODE_GLYPHS as _GLYPHS
from ..obs.timeseries import coerce_mode
from ..sim import Environment

__all__ = ["ModeSampler"]


class ModeSampler:
    """Samples station modes on a fixed interval.

    Works with any scheme: one without modes samples as local (0, the
    ``MSS.mode`` default).  Start it before running the simulation:

    >>> sim = build_simulation(scenario)
    >>> sampler = ModeSampler(sim.env, sim.stations, interval=50.0)
    >>> sim.run()
    >>> print(sampler.timeline(cells=[24, 25]))
    """

    def __init__(
        self,
        env: Environment,
        stations: Dict[int, object],
        interval: float = 50.0,
        horizon: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.stations = stations
        self.interval = interval
        self.horizon = horizon
        self.times: List[float] = []
        self.samples: Dict[int, List[int]] = {c: [] for c in stations}
        env.process(self._sampler(), name="mode-sampler")

    def _sampler(self):
        while self.horizon is None or self.env.now < self.horizon:
            self.times.append(self.env.now)
            for cell, station in self.stations.items():
                self.samples[cell].append(coerce_mode(station.mode))
            yield self.env.timeout(self.interval)

    # -- analysis ------------------------------------------------------------
    def borrowing_fraction(self, cell: int) -> float:
        """Fraction of samples the cell spent outside local mode."""
        values = self.samples[cell]
        if not values:
            return 0.0
        # v > 0: unknown modes (coerced to -1) are not borrowing.
        return sum(1 for v in values if v > 0) / len(values)

    def system_borrowing_series(self) -> List[float]:
        """Per-sample fraction of cells in borrowing mode."""
        if not self.times:
            return []
        cells = list(self.samples)
        out = []
        for i in range(len(self.times)):
            borrowing = sum(
                1 for c in cells if self.samples[c][i] > 0
            )
            out.append(borrowing / len(cells))
        return out

    # -- rendering ---------------------------------------------------------------
    def timeline(
        self, cells: Optional[Iterable[int]] = None, width: int = 80
    ) -> str:
        """One ASCII row per cell; columns are (possibly thinned) samples."""
        chosen = sorted(cells) if cells is not None else sorted(self.samples)
        n = len(self.times)
        if n == 0:
            return "(no samples)"
        stride = max(1, n // width)
        label_w = max(len(str(c)) for c in chosen)
        lines = []
        for cell in chosen:
            row = "".join(
                _GLYPHS.get(self.samples[cell][i], "?")
                for i in range(0, n, stride)
            )
            lines.append(f"{str(cell).rjust(label_w)} {row}")
        span = f"t = {self.times[0]:g} .. {self.times[-1]:g}"
        lines.append(f"{' ' * label_w} ({span}; . local, b/U/S borrowing)")
        return "\n".join(lines)
