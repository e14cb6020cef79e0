"""Canonical, versioned, byte-stable snapshot encoding.

A snapshot must satisfy one unusual requirement: *byte stability under
round-trip*.  ``checkpoint(restore(checkpoint(sim)))`` has to produce the
exact same bytes, because the content hash of those bytes participates in
result-cache keys (a warm-started row must never alias a cold-run row).

Plain JSON cannot represent the state we capture — float payloads must
survive bit-exactly (``repr`` round-trips but is locale-fragile and slow;
``float.hex`` is exact and canonical), and simulation state is full of
tuples, sets, frozensets and int-keyed dicts.  So the encoder maps Python
values onto a small tagged JSON subset:

====================  =============================================
value                 encoding
====================  =============================================
None/bool/int/str     unchanged
float                 ``{"~": "f", "v": "<float.hex>"}`` (inf/nan
                      spelled ``"inf"``/``"-inf"``/``"nan"``)
tuple                 ``{"~": "t", "v": [...]}``
set/frozenset         ``{"~": "s", "v": [sorted items]}``
dict (str keys)       plain JSON object
dict (other keys)     ``{"~": "d", "v": [[k, v], ...]}`` sorted
list                  JSON array
====================  =============================================

Dict keys produced by the state codec never contain a literal ``"~"``
key, so plain objects and tagged wrappers cannot collide.  The byte form
is ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` — fully
canonical, so equal states encode to equal bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "Snapshot",
    "SnapshotError",
    "canonical_bytes",
    "decode_value",
    "encode_value",
    "load_snapshot",
    "save_snapshot",
]

#: Bumped whenever the encoded layout changes incompatibly.  ``restore``
#: refuses snapshots from other versions rather than guessing.
#: v2: adaptive stations carry opaque per-policy state (``"policy"``,
#: via ``ModePolicy.state_dict``) instead of raw ``"nfc_samples"``.
SNAPSHOT_FORMAT_VERSION = 2

_TAG = "~"


class SnapshotError(RuntimeError):
    """Raised when state cannot be captured, encoded, or restored."""


def encode_value(value: Any) -> Any:
    """Map ``value`` onto the tagged JSON-safe subset (recursively)."""
    if value is None or value is True or value is False:
        return value
    if isinstance(value, bool):  # pragma: no cover - caught above
        return bool(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            hexed = "nan"
        elif v == float("inf"):
            hexed = "inf"
        elif v == float("-inf"):
            hexed = "-inf"
        else:
            hexed = v.hex()
        return {_TAG: "f", "v": hexed}
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return {_TAG: "t", "v": [encode_value(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        encoded = [encode_value(v) for v in value]
        encoded.sort(key=_sort_key)
        return {_TAG: "s", "v": encoded}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            if _TAG in value:
                raise SnapshotError(
                    "state dicts must not use the reserved key '~'"
                )
            return {k: encode_value(v) for k, v in value.items()}
        pairs = [[encode_value(k), encode_value(v)] for k, v in value.items()]
        pairs.sort(key=lambda kv: _sort_key(kv[0]))
        return {_TAG: "d", "v": pairs}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    raise SnapshotError(
        f"cannot encode {type(value).__name__!r} into a snapshot"
    )


def _sort_key(encoded: Any) -> str:
    # Canonical order for set members / dict keys: sort by the JSON
    # rendering of the already-encoded value.  Deterministic for every
    # encodable value (hex floats included).
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag is None:
            return {k: decode_value(v) for k, v in value.items()}
        body = value["v"]
        if tag == "f":
            if body == "inf":
                return float("inf")
            if body == "-inf":
                return float("-inf")
            if body == "nan":
                return float("nan")
            return float.fromhex(body)
        if tag == "t":
            return tuple(decode_value(v) for v in body)
        if tag == "s":
            return frozenset(decode_value(v) for v in body)
        if tag == "d":
            return {decode_value(k): decode_value(v) for k, v in body}
        raise SnapshotError(f"unknown snapshot tag {tag!r}")
    return value


def canonical_bytes(container: Dict[str, Any]) -> bytes:
    """Serialize an *encoded* container to canonical UTF-8 bytes."""
    return json.dumps(
        container, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("utf-8")


@dataclass
class Snapshot:
    """A captured simulation state plus the scenario that produced it.

    ``state`` is held in *raw* (decoded) form — tuples, floats, sets —
    and only rendered through the tagged encoding by :meth:`to_bytes`.
    """

    scenario_json: str
    time: float
    started: bool
    state: Dict[str, Any]
    version: int = SNAPSHOT_FORMAT_VERSION
    #: ``scenario_json`` parsed — see :meth:`scenario`.
    _parsed: Any = field(default=None, init=False, repr=False, compare=False)

    def scenario(self, seed: Optional[int] = None) -> Any:
        """The :class:`~repro.harness.config.Scenario` this snapshot was
        taken from, under ``seed`` if given.

        ``scenario_json`` is parsed once per snapshot, not once per
        caller (a warm-start sweep asks on every fork).  Each call gets
        its own ``Scenario``, but a shallow one: nested values
        (``pattern``, ``faults``, the ``*_params`` dicts) are shared
        between them and must not be mutated.
        """
        base = self._base()
        return base.with_(seed=base.seed if seed is None else seed)

    @property
    def seed(self) -> int:
        """The seed of the run this snapshot was taken from: a restore
        under any other seed is a fork."""
        return self._base().seed

    def _base(self) -> Any:
        if self._parsed is None:
            from ..harness.config import Scenario

            self._parsed = Scenario.from_json(self.scenario_json)
        return self._parsed

    def _encoded(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "scenario": self.scenario_json,
            "time": encode_value(float(self.time)),
            "started": self.started,
            "state": encode_value(self.state),
        }

    def to_bytes(self) -> bytes:
        body = self._encoded()
        body["hash"] = self.content_hash()
        return canonical_bytes(body)

    def content_hash(self) -> str:
        """sha256 of the canonical bytes *excluding* the hash field."""
        return hashlib.sha256(canonical_bytes(self._encoded())).hexdigest()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        try:
            body = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"corrupt snapshot: {exc}") from exc
        if not isinstance(body, dict):
            raise SnapshotError("corrupt snapshot: not a JSON object")
        version = body.get("version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format version {version!r} is not supported "
                f"(this build reads version {SNAPSHOT_FORMAT_VERSION})"
            )
        # ``to_bytes`` always writes all five, the hash included: a file
        # without one was not written by this code.
        missing = [k for k in ("scenario", "time", "started", "state", "hash") if k not in body]
        if missing:
            raise SnapshotError(f"corrupt snapshot: no {', '.join(missing)} field")
        snap = cls(
            scenario_json=body["scenario"],
            time=decode_value(body["time"]),
            started=bool(body["started"]),
            state=decode_value(body["state"]),
            version=version,
        )
        if body["hash"] != snap.content_hash():
            raise SnapshotError(
                "snapshot content hash mismatch: file is corrupt or was "
                "edited by hand"
            )
        return snap


def save_snapshot(snapshot: Snapshot, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(snapshot.to_bytes())


def load_snapshot(path: str) -> Snapshot:
    with open(path, "rb") as fh:
        return Snapshot.from_bytes(fh.read())
