"""Terminal visualization: a one-line sparkline.

Pure-text output so results render anywhere (CI logs, EXPERIMENTS.md);
no plotting dependencies.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["sparkline"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Compact one-line trend from minimum to maximum, e.g. ▁▂▅█▅▂▁."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo = min(vals)
    span = max(vals) - lo
    if span <= 0:
        return _SPARK_LEVELS[0] * len(vals)
    top = len(_SPARK_LEVELS) - 1
    return "".join(_SPARK_LEVELS[int((v - lo) / span * top)] for v in vals)
