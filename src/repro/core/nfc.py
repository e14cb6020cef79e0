"""NFC — the free-primary-channel history window (paper §3.1, Fig. 6).

``NFC_i`` is a list of (t, s) samples meaning "at time t the number of
free primary channels changed to s".  It supports the two primitives of
the pseudocode:

* ``add_nfc(t, s)`` — record a sample and prune history older than the
  window ``W`` (we keep one boundary sample so the step function can
  still be evaluated exactly at ``t - W``);
* ``get_nfc(t)`` — evaluate the step function at time ``t``.

``check_mode`` uses these to linearly extrapolate the free-channel
count one round-trip (2T) into the future:

    next = s + 2·T·(s − get_nfc(t − W)) / W
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

__all__ = ["NFCWindow"]


class NFCWindow:
    """Sliding-window step-function history of free-channel counts."""

    def __init__(self, window: float, initial: int = 0) -> None:
        if window <= 0:
            raise ValueError("window W must be positive")
        self.window = float(window)
        # Samples in strictly increasing time order.
        self._samples: Deque[Tuple[float, int]] = deque()
        self._samples.append((float("-inf"), initial))

    def add(self, t: float, s: int) -> None:
        """Record that the free-channel count became ``s`` at time ``t``."""
        if s < 0:
            raise ValueError("free-channel count cannot be negative")
        samples = self._samples  # never empty: seeded with (-inf, initial)
        last_t = samples[-1][0]
        if t < last_t:
            raise ValueError(
                f"samples must be time-ordered (got {t} after {last_t})"
            )
        if last_t == t:
            # Same-instant update supersedes the previous sample.
            samples.pop()
        samples.append((t, s))
        # Delete samples strictly older than the horizon, but keep the
        # most recent of them as the boundary value so get(horizon) is
        # still answerable (the paper's deletion rule is looser; this is
        # the exact-semantics version).
        horizon = t - self.window
        while len(samples) >= 2 and samples[1][0] <= horizon:
            samples.popleft()
        first = samples[0]
        if first[0] < horizon:
            samples[0] = (horizon, first[1])

    def get(self, t: float) -> int:
        """Free-channel count in effect at time ``t``.

        Times before recorded history return the oldest known value.
        """
        samples = self._samples
        result = samples[0][1]
        for when, value in samples:
            if when <= t:
                result = value
            else:
                break
        return result

    def predict(self, t: float, horizon: float) -> float:
        """Fig. 6's linear extrapolation ``horizon`` time units ahead.

        ``next = s + horizon · (s − get(t − W)) / W`` where ``s`` is the
        current value.
        """
        samples = self._samples
        window = self.window
        # Right after ``add(t, ·)`` — the mode check's call shape — both
        # queries hit an end of the deque: ``t`` is the newest sample
        # and ``t - W`` the pruned boundary.  Anything else goes through
        # :meth:`get`.
        newest = samples[-1]
        s = newest[1] if newest[0] <= t else self.get(t)
        horizon_t = t - window
        if newest[0] <= horizon_t:
            last = newest[1]
        elif len(samples) > 1 and samples[1][0] > horizon_t:
            last = samples[0][1]
        else:
            last = self.get(horizon_t)
        return s + horizon * (s - last) / window

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def current(self) -> int:
        return self._samples[-1][1]
