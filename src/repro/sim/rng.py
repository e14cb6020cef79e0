"""Reproducible random-number streams.

Every stochastic component (traffic per cell, network latency, mobility)
draws from its own named substream derived from a single experiment
seed, so adding a new consumer never perturbs existing streams and runs
are bit-for-bit reproducible.

A substream's seed is the first eight bytes of ``sha256("<seed>:<name>")``
(little-endian), and its ``PCG64`` starts from the four words numpy's
``SeedSequence`` expands that seed into.  A stream asked for alone gets
them from numpy's own ``SeedSequence``; a component that knows its
streams in advance names them with :meth:`StreamRegistry.prepare`, and
the words of the whole batch come from one vectorized pass
(:func:`seed_words`, a restatement of ``SeedSequence`` tested against
numpy).  Either way the stream, its draws and its state are the same.

A substream is handed out in one of two forms: :meth:`StreamRegistry
.stream` gives a ``numpy.random.Generator`` (every distribution), and
:meth:`StreamRegistry.uniforms` a :class:`UniformStream` — the same
PCG64 stream held as two Python ints, for consumers that draw only
``random()`` / ``uniform()`` and come by the thousand (one per fault
link).  One name is handed out in one form only: asking for it in the
other is a ``TypeError``.

A consumer that may never draw names its stream with
:meth:`StreamRegistry.reserve` and builds it at the first draw: a
reserved stream is listed by :meth:`StreamRegistry.state_dict` at its
initial state, exactly as a built but undrawn one would be, so what a
snapshot holds does not depend on when a stream is built.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = ["StreamRegistry", "UniformStream", "seed_words"]

#: PCG64's 128-bit LCG multiplier (numpy's ``PCG_DEFAULT_MULTIPLIER_128``).
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: ``Generator.random`` scales the top 53 bits of a draw by this (exact).
_TO_UNIT = 2.0 ** -53


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = (1 << 32) - 1


def _hash_constants(init: int, mult: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``n`` successive hash steps, as
    ``(n, 1)`` columns: numpy's running hash constant depends on nothing
    but the step count."""
    consts = [init]
    for _ in range(n):
        consts.append((consts[-1] * mult) & _MASK32)
    column = np.array(consts, np.uint32)[:, None]
    return column[:-1], column[1:]


#: 4 pool fills hash with the first four A constants.
_XOR_A, _MUL_A = _hash_constants(_INIT_A, _MULT_A, 16)
_FILL = (_XOR_A[:4], _MUL_A[:4])
#: Then each pool word is hashed into the three others, in numpy's
#: order: (source, destinations, their xor and multiply constants).
_MIXES = tuple(
    (
        src,
        np.array([dst for dst in range(4) if dst != src], np.intp),
        _XOR_A[4 + 3 * src:7 + 3 * src],
        _MUL_A[4 + 3 * src:7 + 3 * src],
    )
    for src in range(4)
)
#: The 8 32-bit output words hash with the B constants.
_XOR_B, _MUL_B = _hash_constants(_INIT_B, _MULT_B, 8)
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)

#: Fewer new keys than this are left to numpy's ``SeedSequence`` at
#: build time: one pass of :func:`seed_words` costs about as much as
#: seven ``SeedSequence`` constructions (≈ 70 µs against ≈ 11 µs on 2
#: vCPUs, CPython 3.11, numpy 2.4), and grows little with the batch.
_BATCH_MIN = 8


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def seed_words(seeds: Any) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for
    every 64-bit seed ``s`` of the 1-d ``seeds``, as an ``(n, 4)``
    uint64 array.

    The algorithm numpy runs, over arrays: a seed's entropy is its low
    and high 32-bit words (a seed below 2**32 has one word, and a
    missing word hashes exactly as a zero one, so the two cases share
    one formula); they fill a four-word pool, every pool word is mixed
    into every other, and the pool is hashed out to eight 32-bit words,
    read pairwise little-endian.  All arithmetic wraps at 32 bits; the
    three mixes of one source word are independent and run as one.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0] = seeds & _LOW32
    pool[1] = seeds >> _SHIFT32
    pool = _hashmix(pool, *_FILL)
    for src, dst, xor, mult in _MIXES:
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(pool[src], xor, mult)
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
    out = _hashmix(np.concatenate((pool, pool)), _XOR_B, _MUL_B)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@functools.lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """The ``ISeedSequence`` that hands ``PCG64`` a stream's four seed
    words.  Made at first use: subclassing imports ``numpy.random``,
    which building a simulation does not otherwise need."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """``PCG64`` asks its seed sequence for ``generate_state(4,
        np.uint64)`` once, and gets the words a ``SeedSequence`` of the
        stream's seed gives."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("seed words hold generate_state(4, np.uint64) only")
            return self.words

    return SeedWords


#: Seed words of a stream whose state is loaded right after (never drawn from).
_PLACEHOLDER = np.zeros(4, np.uint64)


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
        #: key -> seed words a :meth:`prepare` batch derived, until the
        #: stream is built.
        self._words: Dict[str, np.ndarray] = {}

    def _key(self, parts: Sequence[Any]) -> str:
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

    def _seed_sequence(self, key: str, words: Optional[np.ndarray]) -> Any:
        """What ``PCG64`` seeds ``key``'s stream from: the words a batch
        cached for it, or numpy's ``SeedSequence`` of its seed."""
        if words is None:
            return np.random.SeedSequence(self._seed_of(key))
        return _seed_words_type()(words)

    def _wrong_form(self, key: str, handed: Any) -> TypeError:
        if type(handed) is UniformStream:
            form = "a UniformStream by uniforms()"
        else:
            form = "a Generator by stream()"
        return TypeError(
            f"stream {key!r} was handed out as {form}; one name is handed out in one form only"
        )

    def stream(self, *parts: Any) -> np.random.Generator:
        """Return (and memoize) the generator for the given name parts.

        Parts are identified by their ``str()``: ``(1, "2")`` and
        ``("1", 2)`` name the same stream.  A part containing ``"/"``
        raises :class:`ValueError`; a name already handed out by
        :meth:`uniforms`, :class:`TypeError`.
        """
        key = self._key(parts)
        gen = self._streams.get(key)
        if gen is None:
            self._reserved.discard(key)
            words = self._words.pop(key, None)
            loaded = self._loaded.pop(key, None)
            if loaded is None:
                gen = np.random.Generator(np.random.PCG64(self._seed_sequence(key, words)))
            else:
                gen = np.random.Generator(np.random.PCG64(_seed_words_type()(_PLACEHOLDER)))
                gen.bit_generator.state = loaded
            self._streams[key] = gen
        elif type(gen) is UniformStream:
            raise self._wrong_form(key, gen)
        return gen

    def uniforms(self, *parts: Any) -> UniformStream:
        """Return (and memoize) the named stream as a :class:`UniformStream`:
        the draws ``stream(*parts)`` would give from ``random()`` and
        ``uniform()``, in about a fifth of the memory.  Name parts as in
        :meth:`stream`; a name already handed out by :meth:`stream` is a
        :class:`TypeError`.
        """
        key = self._key(parts)
        light = self._streams.get(key)
        if light is None:
            self._reserved.discard(key)
            words = self._words.pop(key, None)
            loaded = self._loaded.pop(key, None)
            if loaded is None:
                loaded = np.random.PCG64(self._seed_sequence(key, words)).state
            light = self._streams[key] = UniformStream(loaded)
        elif type(light) is not UniformStream:
            raise self._wrong_form(key, light)
        return light

    def prepare(self, names: Iterable[Sequence[Any]]) -> None:
        """Derive the seeds of many streams in one pass (each name a
        sequence of name parts, as :meth:`stream` takes them).

        Nothing is built or named: a later :meth:`stream`,
        :meth:`uniforms` or :meth:`state_dict` of one of these names
        only skips its ``SeedSequence``.  Names already handed out or
        loaded are passed over, and a batch of fewer than a handful of
        new names is left to the per-stream path, which is cheaper
        there.
        """
        self.prepare_keys(map(self._key, names))

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

    # -- snapshot hooks (see repro.snap.state) -------------------------------
    def state_dict(self) -> Dict[str, Dict[str, Any]]:
        """Every stream's bit-generator state by key, sorted: the streams
        handed out, the loaded states not yet asked for and the reserved
        streams (at their initial state) alike."""
        states = {
            key: np.random.PCG64(self._seed_sequence(key, self._words.get(key))).state
            for key in self._reserved - self._loaded.keys()
        }
        for key, loaded in self._loaded.items():
            states[key] = {**loaded, "state": dict(loaded["state"])}
        for key, handed in self._streams.items():
            states[key] = handed.bit_generator.state
        return dict(sorted(states.items()))

    def prepare_keys(self, keys: Iterable[str]) -> None:
        """:meth:`prepare` for keys as :meth:`state_dict` lists them: a
        restore under a new seed prepares every stream its snapshot
        names."""
        keys = [
            key for key in keys
            if key not in self._streams and key not in self._loaded and key not in self._words
        ]
        if len(keys) < _BATCH_MIN:
            return
        # _seed_of, for the whole batch.
        prefix = f"{self.seed}:".encode("utf-8")
        digests = b"".join(
            [hashlib.sha256(prefix + key.encode("utf-8")).digest()[:8] for key in keys]
        )
        self._words.update(zip(keys, seed_words(np.frombuffer(digests, "<u8"))))

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
