"""Vector-clock happens-before checker (the dynamic race oracle).

Complements the static cross-cell access rule (ANA201, docs/CHECKS.md):
the static rule proves no cross-cell state is touched *except* through
``Network.send`` and the probe bus; this sanitizer checks that what
does travel through the fabric respects causality, and that the
mirrored per-neighbor state (``U[j]`` / ``granted_out[j]`` in the
adaptive scheme) is only ever overwritten by causally *newer*
information.

Mechanics — classic sparse vector clocks over the probe bus:

* ``net.send`` — tick the sender's own component and stamp the
  envelope (keyed by its send sequence number; fault-tagged copies —
  retransmissions, duplicates, injected reorders — are link-layer
  artifacts and are not stamped).
* ``net.deliver`` — pop the stamp, check it *dominates* the last stamp
  delivered on the same ``(src, dst)`` link (causal delivery; implied
  by per-link FIFO, so this is only checked when the network is
  configured FIFO), then merge it into the receiver's clock and tick.
* ``mirror.update`` — emitted by protocol code next to each write of a
  neighbor-state mirror.  Because the kernel delivers synchronously,
  a mirror write performed inside a handler is attributed to the stamp
  of the envelope being handled.  If a write to ``U[j]`` carries a
  stamp that does not dominate the stamp of the previous write to the
  same entry, the two writes are causally unordered (or the newer one
  lost the race): last-writer-wins nondeterminism, flagged as
  ``mirror_race``.

Attribution is deliberately conservative: a mirror write is attributed
only when the most recent delivery went to the writing cell from the
mirrored owner; any other write (local wipes in the crash hook,
drain-time grants) resets the entry's tracking instead of guessing.
Stamps from one sender are monotone in its send order, so on a FIFO
fabric every attributed stamp sequence is totally ordered *and*
increasing — the checker is provably silent on any run the
:class:`CausalityChecker` accepts, and a reordered delivery that
rewinds a mirror is exactly what it flags.  Both checks are gated on
the network's ``fifo`` flag: a deliberately reordering network
overtakes by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..sim import Envelope, Environment
from .base import Sanitizer, Violation

__all__ = ["VectorClockViolation", "VectorClockChecker"]

#: A sparse vector clock: node id -> logical time (missing = 0).
Clock = Dict[int, int]

#: A mirror entry: (observing cell, mirrored owner, mirror name).
MirrorKey = Tuple[int, int, str]


def _dominates(a: Clock, b: Clock) -> bool:
    """True when ``a`` happened-after-or-equals ``b`` (a >= b pointwise)."""
    return all(a.get(node, 0) >= ticks for node, ticks in b.items())


def _fmt(clock: Clock) -> str:
    inner = ", ".join(f"{n}:{t}" for n, t in sorted(clock.items()))
    return "{" + inner + "}"


@dataclass(frozen=True)
class VectorClockViolation(Violation):
    """One happens-before breach observed on the fabric or a mirror."""

    kind: str  # "causal_delivery" | "mirror_race"
    src: int
    dst: int
    detail: str

    def __str__(self) -> str:
        return (
            f"t={self.time}: {self.kind} violation on {self.src}->{self.dst}: "
            f"{self.detail}"
        )


class VectorClockChecker(Sanitizer):
    """Happens-before oracle for message delivery and mirror writes.

    Parameters
    ----------
    env:
        Environment to observe.
    policy:
        ``"raise"`` or ``"record"`` (see :class:`Sanitizer`).
    check_order:
        Enable the per-link causal-delivery and mirror-race checks.
        Pass the network's ``fifo`` flag — a deliberately reordering
        network overtakes and rewinds mirrors by design (that is the
        experiment, see ``tests/test_fifo_assumption.py``), and there
        the protocol's own runtime assertions are the oracle.
    """

    name = "vectorclock"

    def __init__(
        self, env: Environment, policy: str = "raise", check_order: bool = True
    ) -> None:
        self.check_order = check_order
        #: node -> its current vector clock.
        self._clocks: Dict[int, Clock] = {}
        #: envelope send-seq -> stamp taken at send time.
        self._stamps: Dict[int, Clock] = {}
        #: (src, dst) -> stamp of the last untagged delivery on the link.
        self._link_last: Dict[Tuple[int, int], Clock] = {}
        #: (cell, owner, mirror) -> stamp of the last attributed write
        #: (None: last write was unattributed — tracking resets).
        self._mirror_last: Dict[MirrorKey, Optional[Clock]] = {}
        #: (src, dst, stamp) of the delivery currently being handled.
        self._delivery_ctx: Optional[Tuple[int, int, Clock]] = None
        self.messages_stamped = 0
        super().__init__(env, policy)

    def _attach(self) -> None:
        self._listen("net.send", self._on_send)
        self._listen("net.deliver", self._on_deliver)
        self._listen("mirror.update", self._on_mirror_update)

    def _clock(self, node: int) -> Clock:
        clock = self._clocks.get(node)
        if clock is None:
            clock = self._clocks[node] = {}
        return clock

    # -- probe handlers ----------------------------------------------------
    def _on_send(self, now: float, envelope: Envelope) -> None:
        if envelope.fault_tag is not None:
            # Retransmissions/duplicates/injected reorders are re-sends
            # of an already-stamped logical message, not new events.
            return
        clock = self._clock(envelope.src)
        clock[envelope.src] = clock.get(envelope.src, 0) + 1
        self._stamps[envelope.seq] = dict(clock)
        self.messages_stamped += 1

    def _on_deliver(self, now: float, envelope: Envelope) -> None:
        if envelope.fault_tag is not None:
            return
        stamp = self._stamps.pop(envelope.seq, None)
        if stamp is None:
            # Sent before this checker attached, or a synthetic
            # white-box injection: nothing to verify, and any
            # following mirror write must not be misattributed.
            self._delivery_ctx = None
            return
        link = (envelope.src, envelope.dst)
        if self.check_order:
            last = self._link_last.get(link)
            if last is not None and not _dominates(stamp, last):
                self._report(
                    VectorClockViolation(
                        now,
                        "causal_delivery",
                        envelope.src,
                        envelope.dst,
                        f"{envelope.kind} #{envelope.seq} delivered with "
                        f"stamp {_fmt(stamp)}, which does not dominate the "
                        f"link's previous delivery {_fmt(last)}",
                    )
                )
            self._link_last[link] = stamp
        clock = self._clock(envelope.dst)
        for node, ticks in stamp.items():
            if ticks > clock.get(node, 0):
                clock[node] = ticks
        clock[envelope.dst] = clock.get(envelope.dst, 0) + 1
        # The kernel calls the handler synchronously after this probe:
        # mirror writes until the next delivery belong to this envelope.
        self._delivery_ctx = (envelope.src, envelope.dst, stamp)

    def _on_mirror_update(self, now: float, payload: Any) -> None:
        if not isinstance(payload, tuple) or len(payload) != 5:
            return  # foreign/synthetic payload shape
        if not self.check_order:
            return  # reordering fabric: stale mirror writes are expected
        cell, owner, mirror, _op, _channel = payload
        key: MirrorKey = (cell, owner, mirror)
        ctx = self._delivery_ctx
        if ctx is None or ctx[1] != cell or ctx[0] != owner:
            # Local write (crash wipe, deferred grant) or a write from
            # some other delivery: attribution unknown — reset rather
            # than guess, so the race check never false-fires.
            self._mirror_last[key] = None
            return
        stamp = ctx[2]
        last = self._mirror_last.get(key)
        if last is not None and not _dominates(stamp, last):
            self._report(
                VectorClockViolation(
                    now,
                    "mirror_race",
                    owner,
                    cell,
                    f"write to {mirror}[{owner}] at cell {cell} carries "
                    f"stamp {_fmt(stamp)}, causally unordered with (or "
                    f"older than) the previous write's {_fmt(last)} — "
                    "last-writer-wins nondeterminism",
                )
            )
        self._mirror_last[key] = stamp
