"""Reproducible random-number streams.

Every stochastic component (traffic per cell, network latency, mobility)
draws from its own named substream derived from a single experiment
seed, so adding a new consumer never perturbs existing streams and runs
are bit-for-bit reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["StreamRegistry"]


class StreamRegistry:
    """Factory of independent, named ``numpy.random.Generator`` streams.

    >>> reg = StreamRegistry(seed=42)
    >>> arrivals = reg.stream("traffic", "cell", 7)
    >>> latency = reg.stream("network", "latency")

    The same (seed, name parts) always yields the same stream.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._cache: Dict[str, np.random.Generator] = {}

    def _key(self, parts: Tuple[Any, ...]) -> str:
        names = [str(p) for p in parts]
        for name in names:
            if "/" in name:
                # "/" is the separator: ("a/b",) and ("a", "b") would
                # silently share one substream.
                raise ValueError(
                    f"stream name part {name!r} must not contain '/'"
                )
        return "/".join(names)

    def stream(self, *parts: Any) -> np.random.Generator:
        """Return (and memoize) the generator for the given name parts.

        Parts are identified by their ``str()``: ``(1, "2")`` and
        ``("1", 2)`` name the same stream.  A part containing ``"/"``
        raises :class:`ValueError`.
        """
        key = self._key(parts)
        if key not in self._cache:
            digest = hashlib.sha256(
                f"{self.seed}:{key}".encode("utf-8")
            ).digest()
            substream_seed = int.from_bytes(digest[:8], "little")
            self._cache[key] = np.random.default_rng(substream_seed)
        return self._cache[key]

    def spawn(self, *parts: Any) -> "StreamRegistry":
        """Derive a child registry (e.g. one per replication)."""
        digest = hashlib.sha256(
            f"{self.seed}:spawn:{self._key(parts)}".encode("utf-8")
        ).digest()
        return StreamRegistry(int.from_bytes(digest[:8], "little"))
