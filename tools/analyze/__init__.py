"""Whole-program protocol conformance analyzer (``python -m tools.analyze``).

Complements the line-level lint (``tools.check``) with passes that
need facts spanning files:

========  =============================================================
Pass 1    Message-flow conformance (ANA101–ANA104): every message kind
          a scheme sends has a ``_on_<Kind>`` handler, every handler's
          kind is actually sent, every ``msg.<attr>`` access names a
          real dataclass field, every constructor call matches the
          dataclass signature.  (``tools/analyze/flow.py``)
Pass 2    Shard-safety escape analysis (ANA201–ANA203): no read/write
          of another cell's mutable state outside ``Network.send`` and
          the probe bus; no process-shared mutable class attributes or
          module globals in simulation scope.  Guards the paper's
          message-only coupling between stations, which snapshots,
          forks and the fast lane rely on.  (``tools/analyze/shard.py``)
Pass 3    Snapshot-escape analysis (ANA301–ANA303): no unregistered
          randomness and no mutable module/class-level state anywhere
          the checkpoint state codec must cover.  Precondition gate
          for bit-exact checkpoint/restore (``repro.snap``).
          (``tools/analyze/snapshot.py``)
Pass 4    Determinism lint family (SIM006–SIM009), run over the
          ``tools.check`` engine: unordered fan-out, identity
          ordering, ``popitem``, env-var control flow.
          (``tools/analyze/determinism.py``)
========  =============================================================

The CLI exits 1 on any finding; a finding is accepted inline
(``# repro: noqa(CODE)``) or by a pass's own allowlist.  See
``docs/CHECKS.md`` for the full catalog.
"""

from .determinism import DETERMINISM_RULES
from .flow import render_dot, run_flow_pass
from .model import ProtocolModel, build_model
from .shard import run_shard_pass
from .snapshot import run_snapshot_pass

__all__ = [
    "DETERMINISM_RULES",
    "ProtocolModel",
    "build_model",
    "render_dot",
    "run_flow_pass",
    "run_shard_pass",
    "run_snapshot_pass",
]
