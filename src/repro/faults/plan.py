"""Declarative fault plans.

A :class:`FaultPlan` describes *what* to inject; the
:class:`~repro.faults.injector.FaultInjector` decides *when*, drawing
from a dedicated seeded stream so that the same (seed, plan) pair
always produces the same fault schedule — byte-identical metrics
across runs and across worker counts.

Plans are plain frozen dataclasses with a JSON-safe ``to_dict`` /
``from_dict`` pair so they ride inside
:class:`~repro.harness.config.Scenario` (and therefore inside the
persistent result cache's content-hash keys).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Any, Dict, Mapping, Tuple

from ..harness.config import drop_retired
from .arq import BACKOFF, MAX_RETRIES

__all__ = ["LinkPartition", "CrashWindow", "FaultPlan"]

#: Hardening keys retired from the v2 fault-plan JSON, as the scenario's
#: are (``repro.harness.config.RETIRED``): key -> (constant, why).
RETIRED: Mapping[str, Tuple[Any, str]] = MappingProxyType({
    "max_retries": (MAX_RETRIES, f"the ARQ retransmits at most {MAX_RETRIES} times"),
    "backoff": (BACKOFF, f"the ARQ timer grows by {BACKOFF:g}x per retransmission"),
    "rto": (None, "the retransmission timer is derived from the latency model"),
    "round_deadline": (None, "the round deadline is derived from the latency model"),
    "ack_timeout": (None, "the owed-ack backstop is derived from the latency model"),
})


@dataclass(frozen=True)
class LinkPartition:
    """A scheduled partition between two cells.

    While ``start <= now < end`` every message between ``a`` and ``b``
    (both directions) is dropped at send time.  Messages already in
    flight when the partition begins are delivered — the partition
    models a severed link, not retroactive loss.
    """

    a: int
    b: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("partition needs start < end")

    def severs(self, src: int, dst: int, now: float) -> bool:
        if not (self.start <= now < self.end):
            return False
        return (src == self.a and dst == self.b) or (
            src == self.b and dst == self.a
        )


@dataclass(frozen=True)
class CrashWindow:
    """One MSS crash–restart cycle.

    The station at ``cell`` fails at time ``at`` (all its calls drop,
    messages to and from it are lost) and restarts ``downtime`` later.
    ``lose_state=True`` (the default) models a cold restart: every
    volatile protocol structure — mirrored neighbor state, deferred
    queues, owed acknowledgements — is wiped and rebuilt through the
    neighborhood re-sync round; ``False`` models a fail-stop blip that
    keeps memory contents.
    """

    cell: int
    at: float
    downtime: float
    lose_state: bool = True

    def __post_init__(self) -> None:
        if self.at < 0 or self.downtime <= 0:
            raise ValueError("crash needs at >= 0 and downtime > 0")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the faults to inject into one run.

    Message-level probabilities apply independently per sent message:

    drop_prob:
        The message is lost (never delivered).
    dup_prob:
        A second copy is delivered one fresh latency sample later.
    delay_prob / extra_delay:
        The message (and, on a FIFO network, everything queued behind
        it on the same link) is delayed by an extra Uniform(0,
        ``extra_delay``] — head-of-line blocking, order preserved.
    reorder_prob / reorder_delay:
        The message is held back by Uniform(0, ``reorder_delay``]
        *bypassing* the per-link FIFO floor, so later sends overtake
        it.  The delivered envelope is flagged so the causality
        sanitizer knows the overtake was injected, not a kernel bug.

    ``partitions`` and ``crashes`` schedule deterministic topology
    faults; see :class:`LinkPartition` and :class:`CrashWindow`.

    The protocol-side recovery machinery takes nothing from the plan
    but its worst injected delay: every timer is derived from it and
    the latency model (see :class:`repro.faults.arq.Hardening`).
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    extra_delay: float = 0.0
    reorder_prob: float = 0.0
    reorder_delay: float = 0.0
    partitions: Tuple[LinkPartition, ...] = ()
    crashes: Tuple[CrashWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "delay_prob", "reorder_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.delay_prob > 0 and self.extra_delay <= 0:
            raise ValueError("delay_prob > 0 needs extra_delay > 0")
        if self.reorder_prob > 0 and self.reorder_delay <= 0:
            raise ValueError("reorder_prob > 0 needs reorder_delay > 0")
        # Normalize list inputs (e.g. from JSON) to tuples.
        if not isinstance(self.partitions, tuple):
            object.__setattr__(self, "partitions", tuple(self.partitions))
        if not isinstance(self.crashes, tuple):
            object.__setattr__(self, "crashes", tuple(self.crashes))

    # -- derived -----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True if this plan injects anything at all.  A plan with every
        probability zero and no scheduled faults is equivalent to no
        plan: neither the injector nor the hardening layer is wired in,
        preserving exact fault-free parity."""
        return bool(
            self.drop_prob
            or self.dup_prob
            or self.delay_prob
            or self.reorder_prob
            or self.partitions
            or self.crashes
        )

    def max_extra_delay(self) -> float:
        """Worst-case injected one-way delay (for timeout sizing)."""
        return max(self.extra_delay, self.reorder_delay, 0.0)

    @classmethod
    def uniform_loss(cls, p: float, **overrides: Any) -> "FaultPlan":
        """Convenience: uniform i.i.d. message loss with probability p."""
        return cls(drop_prob=p, **overrides)

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "partitions":
                value = [vars(p).copy() for p in value]
            elif f.name == "crashes":
                value = [vars(c).copy() for c in value]
            data[f.name] = value
        data.update((key, constant) for key, (constant, _why) in RETIRED.items())
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        data = dict(data)
        drop_retired(data, RETIRED)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        if data.get("partitions"):
            data["partitions"] = tuple(
                LinkPartition(**p) for p in data["partitions"]
            )
        if data.get("crashes"):
            data["crashes"] = tuple(CrashWindow(**c) for c in data["crashes"])
        return cls(**data)
