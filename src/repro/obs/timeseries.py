"""Per-cell time-series recorder + shared mode-glyph helpers.

The :class:`TimeSeriesRecorder` polls every station on a fixed cadence
and records, per cell:

* ``occupancy`` — channels in use (``len(Use_i)``);
* ``mode`` — the station's mode as an int (non-adaptive schemes and
  transient oddities coerce via :func:`coerce_mode`);
* ``nfc_predicted`` — the adaptive scheme's NFC prediction of the
  free-primary count one round-trip ahead (the Fig. 6 quantity that
  drives mode transitions); ``None`` per-sample for other schemes;
* ``neighborhood_load`` — mean occupancy over the interference region
  ``IN_i`` (the load the cell's borrowing machinery actually reacts to).

The glyph helpers (:data:`MODE_GLYPHS`, :func:`mode_glyph`,
:func:`coerce_mode`) and the renderer over a recorded series
(:func:`mode_timeline`, :func:`borrowing_fraction`) are the single
source of truth for mode timelines: the run report's timeline is
drawn by them, and so is anything that watches a run's modes through
``Scenario(obs=<sample interval>)`` and
``report.obs.series``.  An unknown or transient mode value renders as
``?`` everywhere instead of raising.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "MODE_GLYPHS",
    "UNKNOWN_MODE",
    "coerce_mode",
    "mode_glyph",
    "borrowing_fraction",
    "mode_timeline",
    "TimeSeriesRecorder",
]

#: One ASCII glyph per mode value: ``.`` local, ``b`` borrowing-idle,
#: ``U`` update round in flight, ``S`` search in flight.
MODE_GLYPHS: Mapping[int, str] = MappingProxyType(
    {0: ".", 1: "b", 2: "U", 3: "S"}
)

#: Sentinel stored for mode values that are not (coercible to) a known
#: mode int — e.g. the string ``"down"`` a future crash-aware station
#: might expose, or a float mid-transition.
UNKNOWN_MODE = -1


def coerce_mode(value: Any) -> int:
    """Best-effort mode int for ``value``; :data:`UNKNOWN_MODE` if odd.

    Accepts ints, IntEnums, numeric strings and floats with integral
    value.  Anything else — including unknown mode numbers — maps to
    :data:`UNKNOWN_MODE` rather than raising, so samplers survive
    stations exposing transient or scheme-specific mode values.
    """
    try:
        ivalue = int(value)
    except (TypeError, ValueError):
        return UNKNOWN_MODE
    if isinstance(value, float) and value != ivalue:
        return UNKNOWN_MODE
    return ivalue if ivalue in MODE_GLYPHS else UNKNOWN_MODE


def mode_glyph(value: Any) -> str:
    """The timeline glyph for a (possibly raw) mode value; ``?`` if odd."""
    return MODE_GLYPHS.get(coerce_mode(value), "?")


def borrowing_fraction(modes: Sequence[int]) -> float:
    """Fraction of mode samples outside local mode; 0.0 for none.

    ``v > 0``: :data:`UNKNOWN_MODE` samples are not borrowing.
    """
    return sum(1 for v in modes if v > 0) / len(modes) if modes else 0.0


def mode_timeline(
    series: Mapping[str, Any], cells: Optional[Iterable[Any]] = None
) -> List[str]:
    """ASCII mode timeline of a :meth:`TimeSeriesRecorder.to_dict` series.

    One row per cell (``cells``, default all, ascending) with the
    samples thinned to about 72 columns, then a line giving the time
    span and the glyph legend.  Cell keys may be ints or, in a series
    read back from ``timeseries.json``, their strings.
    """
    times = series.get("times") or []
    if not times:
        return ["(no time-series samples)"]
    modes = {int(c): data["mode"] for c, data in series["cells"].items()}
    chosen = sorted(int(c) for c in (modes if cells is None else cells))
    n = len(times)
    stride = max(1, n // 72)
    label_w = max(len(str(c)) for c in chosen)
    lines = [
        f"{str(c).rjust(label_w)} "
        + "".join(mode_glyph(modes[c][i]) for i in range(0, n, stride))
        for c in chosen
    ]
    lines.append(
        f"{' ' * label_w} (t = {times[0]:g} .. {times[-1]:g}; "
        ". local, b idle-borrowing, U update, S search, ? unknown)"
    )
    return lines


class TimeSeriesRecorder:
    """Samples per-cell state on a fixed simulated-time cadence.

    Parameters
    ----------
    env, stations:
        The simulation environment and its ``cell -> MSS`` map.
    interval:
        Sampling cadence in simulated time units.
    horizon:
        Stop sampling at this simulated time.  Required so drain-style
        runs (``env.run()`` until the queue empties) terminate: an
        unbounded sampler would keep the queue alive forever.
    """

    #: Snapshot fields (see :mod:`repro.snap.state`).
    SNAPSHOT = (
        "times",
        ("occupancy", "occupancy", list),
        ("mode", "mode", list),
        ("nfc_predicted", "nfc_predicted", list),
        ("neighborhood_load", "neighborhood_load", list),
    )

    def __init__(
        self,
        env: Any,
        stations: Dict[int, Any],
        interval: float,
        horizon: float,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.env = env
        self.stations = stations
        self.interval = interval
        self.horizon = horizon
        self.times: List[float] = []
        self.occupancy: Dict[int, List[int]] = {c: [] for c in stations}
        self.mode: Dict[int, List[int]] = {c: [] for c in stations}
        self.nfc_predicted: Dict[int, List[Optional[float]]] = {
            c: [] for c in stations
        }
        self.neighborhood_load: Dict[int, List[float]] = {
            c: [] for c in stations
        }
        env.process(self._sampler(), name="obs-timeseries")

    def _sampler(self, wake_at: Optional[float] = None):
        """``wake_at`` re-enters a sampler a snapshot caught asleep."""
        env = self.env
        stations = self.stations
        if wake_at is not None:
            yield env.timeout_at(wake_at)
        while env.now < self.horizon:
            now = env.now
            self.times.append(now)
            for cell, station in stations.items():
                self.occupancy[cell].append(len(station.use))
                self.mode[cell].append(coerce_mode(station.mode))
                # The column name "nfc_predicted" predates the policy
                # registry; it now carries whatever the station's mode
                # policy forecasts (None for non-predictive policies).
                policy = station.policy
                if policy is not None:
                    predicted = policy.predict_at(now)
                else:
                    predicted = None
                self.nfc_predicted[cell].append(predicted)
                neighbors = station.IN
                if neighbors:
                    load = sum(
                        len(stations[j].use) for j in neighbors
                    ) / len(neighbors)
                else:
                    load = 0.0
                self.neighborhood_load[cell].append(round(load, 4))
            yield env.timeout(self.interval)

    # -- export --------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (picklable, JSON-safe) for :class:`ObsData`."""
        return {
            "interval": self.interval,
            "times": list(self.times),
            "cells": {
                cell: {
                    "occupancy": self.occupancy[cell],
                    "mode": self.mode[cell],
                    "nfc_predicted": self.nfc_predicted[cell],
                    "neighborhood_load": self.neighborhood_load[cell],
                }
                for cell in sorted(self.stations)
            },
        }
