"""Terminal visualization: a one-line sparkline.

Pure-text output so results render anywhere (CI logs, EXPERIMENTS.md);
no plotting dependencies.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["sparkline"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Compact one-line trend, e.g. ▁▂▅█▅▂▁."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo = min(vals) if lo is None else lo
    hi = max(vals) if hi is None else hi
    span = hi - lo
    if span <= 0:
        return _SPARK_LEVELS[0] * len(vals)
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[max(0, min(idx, len(_SPARK_LEVELS) - 1))])
    return "".join(out)
