"""Checkpoint/restore of full simulation state, with warm-start forking.

The snapshot subsystem makes a running simulation a *value*: a
versioned, byte-stable :class:`Snapshot` covering the kernel event heap
and clock, every RNG substream, in-flight network envelopes, per-MSS
protocol state for all six allocation schemes, ARQ windows and dedup
filters, fault-plan cursors, and the metrics/observability collectors.

Core API
--------
* :func:`checkpoint` / :func:`restore` — capture a live simulation,
  rebuild a runnable one.
* :func:`run_to_checkpoint` — run a scenario to an instant and capture
  at the first safe point.
* :func:`run_from_snapshot` — resume (or fork to a new seed) and run to
  the horizon.
* :func:`fork_replications` — warm-start a replication sweep: pay the
  warmup transient once, fork N seeds from the snapshot.
* :func:`save_snapshot` / :func:`load_snapshot` — file round-trip of
  the canonical byte form.

Guarantees
----------
* **Exact continuation**: restoring a snapshot under its own seed and
  running to the horizon is row-identical to never having snapshotted.
* **Byte stability**: re-checkpointing a restored simulation yields the
  exact bytes of the original snapshot — which is why the snapshot
  content hash may participate in result-cache keys.
* **Honest failure**: state that cannot be captured raises rather than
  being silently dropped (see :class:`SnapshotError` and the safe-point
  rules in :mod:`repro.snap.state`).

See DESIGN.md section 9 for the format specification.
"""

from .format import (
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    SnapshotError,
    load_snapshot,
    save_snapshot,
)
from .fork import (
    DRAIN_WINDOW,
    MAX_DRAIN_STEPS,
    checkpoint,
    fork_replications,
    restore,
    run_from_snapshot,
    run_to_checkpoint,
)
from .state import UnsafeState, apply_state, capture_state

__all__ = [
    "DRAIN_WINDOW",
    "MAX_DRAIN_STEPS",
    "SNAPSHOT_FORMAT_VERSION",
    "Snapshot",
    "SnapshotError",
    "UnsafeState",
    "apply_state",
    "capture_state",
    "checkpoint",
    "fork_replications",
    "load_snapshot",
    "restore",
    "run_from_snapshot",
    "run_to_checkpoint",
    "save_snapshot",
]
