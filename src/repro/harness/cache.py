"""Persistent scenario→report result cache.

Every experiment cell in this repo is a pure function of its
:class:`~repro.harness.config.Scenario` (the simulator is fully
deterministic and seeded), so a finished :class:`Report` can be reused
whenever the exact same scenario is run again.  The cache maps a
canonical content hash of the scenario — its dataclass fields plus
``extra_params``, salted with a code-version stamp — to a pickled
report under ``.repro-cache/``.

Key properties:

* **Canonical keys.** The hash is computed over the scenario's
  sorted-key JSON serialization, so field order and dict insertion
  order never matter.  Scenarios that cannot be serialized (e.g. a
  custom load pattern, or non-JSON ``extra_params``) are simply not
  cacheable and always run.
* **Version salt.** The key is salted with :func:`code_stamp` — a hash
  of every ``repro`` source file plus :data:`SCHEMA_VERSION` — so any
  edit to the simulator invalidates all previous entries.  Stale
  results cannot leak across code changes.
* **Kill switch.** ``REPRO_CACHE=off`` in the environment disables the
  *default* cache (``cache=None`` callers).  An explicitly passed
  :class:`ResultCache` always wins.  ``REPRO_CACHE_DIR`` relocates the
  default directory.
* **Concurrency-safe writes.** Entries are written to a temp file and
  atomically renamed, so parallel workers and concurrent sweeps never
  observe a torn entry.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Literal, Optional, Union

from .config import Scenario

__all__ = [
    "ResultCache",
    "cache_key",
    "code_stamp",
    "resolve_cache",
    "DEFAULT_CACHE_DIR",
    "SCHEMA_VERSION",
]

#: Default on-disk location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment switch: ``off``/``0``/``false``/``no`` disables the
#: default cache; any other value (or none) leaves it on.
ENV_SWITCH = "REPRO_CACHE"

#: Environment override for the default cache directory.
ENV_DIR = "REPRO_CACHE_DIR"

#: Bump manually to invalidate every cached result on a semantic change
#: that is not visible in the source tree (e.g. a data-file format).
SCHEMA_VERSION = 1

_FALSY = frozenset({"off", "0", "false", "no"})

_code_stamp: Optional[str] = None


def code_stamp() -> str:
    """Hash of the ``repro`` package sources — the cache version salt.

    Any edit to any ``.py`` file under the installed ``repro`` package
    (or a :data:`SCHEMA_VERSION` bump) changes this stamp and thereby
    invalidates every existing cache entry.  Computed once per process.
    """
    global _code_stamp
    if _code_stamp is None:
        import repro

        digest = hashlib.sha256()
        digest.update(
            f"schema={SCHEMA_VERSION};version={repro.__version__}".encode()
        )
        root = Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_stamp = digest.hexdigest()[:16]
    return _code_stamp


def cache_key(scenario: Scenario, variant: Optional[str] = None) -> Optional[str]:
    """Canonical content hash of ``scenario``, or None if uncacheable.

    The key covers every dataclass field including ``extra_params``
    (via the scenario's sorted-key JSON form) and is salted with
    :func:`code_stamp`.

    ``variant`` distinguishes results produced by a *different
    execution recipe* for the same scenario.  The one stock producer is
    warm-start forking (``variant="warm:<snapshot content hash>"``, see
    :func:`repro.snap.fork_replications`): a replication forked from a
    warmed-up checkpoint simulates a different trajectory than a cold
    run of the same scenario, so the two must never share a cache row —
    and two forks of *different* snapshots must not share one either,
    which is why the snapshot's own content hash is part of the
    variant string.
    """
    try:
        blob = scenario.to_json()
    except (TypeError, ValueError):
        # Unserializable pattern or extra_params: not cacheable.
        return None
    digest = hashlib.sha256()
    digest.update(code_stamp().encode())
    digest.update(b"\0")
    digest.update(blob.encode())
    if variant is not None:
        digest.update(b"\0variant\0")
        digest.update(variant.encode())
    return digest.hexdigest()


class ResultCache:
    """On-disk scenario→report cache with hit/miss accounting.

    Parameters
    ----------
    root:
        Cache directory (default: ``$REPRO_CACHE_DIR`` or
        ``.repro-cache``).  Created lazily on the first store.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root or os.environ.get(ENV_DIR) or DEFAULT_CACHE_DIR)
        #: Lookup counters (since construction).
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        # Two-level fanout keeps directory listings manageable.
        return self.root / key[:2] / f"{key}.pkl"

    def get(
        self, scenario: Scenario, variant: Optional[str] = None
    ) -> Optional[Any]:
        """Return the cached report for ``scenario``, or None.

        ``variant`` must match the value the entry was stored with (see
        :func:`cache_key`); a plain run (``variant=None``) never reads a
        warm-forked row and vice versa.
        """
        key = cache_key(scenario, variant=variant)
        if key is None:
            self.misses += 1
            return None
        try:
            with open(self._path(key), "rb") as fh:
                entry: Dict[str, Any] = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            return None
        # Guard against key collisions / foreign files: the stored
        # scenario and variant must match exactly.
        if (
            entry.get("key") != key
            or entry.get("scenario") != scenario.to_dict()
            or entry.get("variant") != variant
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry["report"]

    def put(
        self, scenario: Scenario, report: Any, variant: Optional[str] = None
    ) -> bool:
        """Store ``report`` under ``scenario``'s key; False if uncacheable."""
        key = cache_key(scenario, variant=variant)
        if key is None:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "scenario": scenario.to_dict(),
            "variant": variant,
            "report": report,
        }
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)  # atomic: concurrent readers never see a torn file
        except (OSError, pickle.PicklingError):
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.stores += 1
        return True


def default_enabled() -> bool:
    """Whether ambient (``cache=None``) caching is currently on: unless
    ``REPRO_CACHE`` is off/0/false/no (the version salt keeps it safe)."""
    return os.environ.get(ENV_SWITCH, "").strip().lower() not in _FALSY


def resolve_cache(cache: Union[None, Literal[False], ResultCache]) -> Optional[ResultCache]:
    """Normalize a user-facing ``cache`` knob to a cache instance.

    * ``None`` — the ambient default: a :class:`ResultCache` in the
      default directory, unless ``REPRO_CACHE=off``.
    * ``False`` — off.
    * a :class:`ResultCache` — used as-is, whatever ``REPRO_CACHE`` says.

    Anything else is a ``TypeError``.
    """
    if cache is None:
        return ResultCache() if default_enabled() else None
    if cache is False:
        return None
    if isinstance(cache, ResultCache):
        return cache
    raise TypeError(f"cache must be None, False or a ResultCache, got {cache!r}")
