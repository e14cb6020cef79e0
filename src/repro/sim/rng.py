"""Reproducible random-number streams.

Every stochastic component (traffic per cell, network latency, mobility)
draws from its own named substream derived from a single experiment
seed, so adding a new consumer never perturbs existing streams and runs
are bit-for-bit reproducible.

A substream is handed out in one of two forms: :meth:`StreamRegistry
.stream` gives a ``numpy.random.Generator`` (every distribution), and
:meth:`StreamRegistry.uniforms` a :class:`UniformStream` — the same
PCG64 stream held as two Python ints, for consumers that draw only
``random()`` / ``uniform()`` and come by the thousand (one per fault
link).

A consumer that may never draw names its stream with
:meth:`StreamRegistry.reserve` and builds it at the first draw: a
reserved stream is listed by :meth:`StreamRegistry.state_dict` at its
initial state, exactly as a built but undrawn one would be, so what a
snapshot holds does not depend on when a stream is built.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping, Set, Tuple

import numpy as np

__all__ = ["StreamRegistry", "UniformStream"]

#: PCG64's 128-bit LCG multiplier (numpy's ``PCG_DEFAULT_MULTIPLIER_128``).
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: ``Generator.random`` scales the top 53 bits of a draw by this (exact).
_TO_UNIT = 2.0 ** -53


class UniformStream:
    """A PCG64 stream drawing exactly what ``numpy.random.Generator``
    draws from it with ``random()`` and ``uniform(low, high)``.

    numpy's bit generator is the XSL-RR output of a 128-bit LCG; here the
    LCG's state and increment are two Python ints, about 150 bytes a
    stream against a ``Generator``'s ~820 (its ``SeedSequence``, lock and
    two extension objects).  A draw steps the LCG once and keeps the top
    53 output bits, as numpy does.  ``has_uint32`` / ``uinteger`` (numpy's
    buffered half of a 64-bit draw, used only by 32-bit draws) are
    carried, never used, so :attr:`state` round-trips numpy's dict.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, state: Mapping[str, Any]) -> None:
        self.state = state

    @property
    def bit_generator(self) -> "UniformStream":
        """The stream itself, so ``.bit_generator.state`` reads as on a
        ``Generator``."""
        return self

    @property
    def state(self) -> Dict[str, Any]:
        """numpy's ``PCG64.state`` dict."""
        return {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": self._has_uint32,
            "uinteger": self._uinteger,
        }

    @state.setter
    def state(self, value: Mapping[str, Any]) -> None:
        if value.get("bit_generator") != "PCG64":
            raise ValueError("state must be for a PCG64 bit generator")
        lcg = value["state"]
        self._state = int(lcg["state"])
        self._inc = int(lcg["inc"])
        self._has_uint32 = int(value["has_uint32"])
        self._uinteger = int(value["uinteger"])

    def random(self) -> float:
        """A double in [0, 1): ``Generator.random()``."""
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        xored = ((state >> 64) ^ state) & _MASK64
        # The output rotates ``xored`` right by the top six state bits;
        # shifting the doubled word right reads the rotation and its top
        # 53 bits at once.
        return (((xored << 64 | xored) >> ((state >> 122) + 11)) & _MASK53) * _TO_UNIT

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A double in [low, high): ``Generator.uniform(low, high)``."""
        return low + (high - low) * self.random()


class StreamRegistry:
    """Factory of independent, named random streams.

    >>> reg = StreamRegistry(seed=42)
    >>> arrivals = reg.stream("traffic", "cell", 7)
    >>> latency = reg.stream("network", "latency")
    >>> link = reg.uniforms("faults", "net", 3, 4)

    The same (seed, name parts) always yields the same stream.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        #: key -> the stream handed out for it (Generator or UniformStream).
        self._streams: Dict[str, Any] = {}
        #: key -> a loaded state whose stream nobody has asked for yet.
        self._loaded: Dict[str, Dict[str, Any]] = {}
        #: Keys named by :meth:`reserve` whose stream is not built yet.
        self._reserved: Set[str] = set()

    def _key(self, parts: Tuple[Any, ...]) -> str:
        key = "/".join(map(str, parts))
        if key.count("/") >= len(parts) > 0:
            # "/" is the separator: ("a/b",) and ("a", "b") would
            # silently share one substream.
            name = next(str(p) for p in parts if "/" in str(p))
            raise ValueError(f"stream name part {name!r} must not contain '/'")
        return key

    def _seed_of(self, key: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{key}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, *parts: Any) -> np.random.Generator:
        """Return (and memoize) the generator for the given name parts.

        Parts are identified by their ``str()``: ``(1, "2")`` and
        ``("1", 2)`` name the same stream.  A part containing ``"/"``
        raises :class:`ValueError`.
        """
        key = self._key(parts)
        gen = self._streams.get(key)
        if gen is None:
            gen = self._streams[key] = np.random.default_rng(self._seed_of(key))
            self._reserved.discard(key)
            loaded = self._loaded.pop(key, None)
            if loaded is not None:
                gen.bit_generator.state = loaded
        return gen

    def uniforms(self, *parts: Any) -> UniformStream:
        """Return (and memoize) the named stream as a :class:`UniformStream`:
        the draws ``stream(*parts)`` would give from ``random()`` and
        ``uniform()``, in about a fifth of the memory.  Name parts as in
        :meth:`stream`; one name is handed out in one form only.
        """
        key = self._key(parts)
        light = self._streams.get(key)
        if light is None:
            self._reserved.discard(key)
            loaded = self._loaded.pop(key, None)
            if loaded is None:
                loaded = np.random.PCG64(self._seed_of(key)).state
            light = self._streams[key] = UniformStream(loaded)
        return light

    def reserve(self, *parts: Any) -> None:
        """Name a stream without building it (name parts as in
        :meth:`stream`).

        Seeding a stream costs more than most of its draws, so a
        consumer that may never draw — a cell's call stream before its
        first accepted arrival — reserves it and asks for it at its
        first draw.  Until then :meth:`state_dict` lists the stream at
        the state a freshly built one would have.
        """
        key = self._key(parts)
        if key not in self._streams:
            self._reserved.add(key)

    def spawn(self, *parts: Any) -> "StreamRegistry":
        """Derive a child registry (e.g. one per replication)."""
        digest = hashlib.sha256(
            f"{self.seed}:spawn:{self._key(parts)}".encode("utf-8")
        ).digest()
        return StreamRegistry(int.from_bytes(digest[:8], "little"))

    # -- snapshot hooks (see repro.snap.state) -------------------------------
    def state_dict(self) -> Dict[str, Dict[str, Any]]:
        """Every stream's bit-generator state by key, sorted: the streams
        handed out, the loaded states not yet asked for and the reserved
        streams (at their initial state) alike."""
        states = {
            key: np.random.PCG64(self._seed_of(key)).state
            for key in self._reserved - self._loaded.keys()
        }
        for key, loaded in self._loaded.items():
            states[key] = {**loaded, "state": dict(loaded["state"])}
        for key, handed in self._streams.items():
            states[key] = handed.bit_generator.state
        return dict(sorted(states.items()))

    def load_state(self, states: Mapping[str, Dict[str, Any]]) -> None:
        """Restore stream states: a stream already handed out now, every
        other one when an accessor first asks for its key — in the form
        that accessor hands out."""
        for key, loaded in states.items():
            handed = self._streams.get(key)
            if handed is None:
                self._loaded[key] = loaded
            else:
                handed.bit_generator.state = loaded
