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
:func:`coerce_mode`) are the single source of truth for rendering mode
values as ASCII timelines; ``repro.harness.timeline.ModeSampler`` and
the run-report writer both use them, so an unknown or transient mode
value renders as ``?`` everywhere instead of raising.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "MODE_GLYPHS",
    "UNKNOWN_MODE",
    "coerce_mode",
    "mode_glyph",
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
