"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`
to the live message stream.

The injector plugs into the network through a two-method interface
(``network.injector``):

* :meth:`filter_send` — consulted once per ``Network.send`` call,
  before FIFO bookkeeping; returns the list of delivery actions
  (possibly empty = dropped, possibly two = duplicated) for the
  message.
* :meth:`deliverable` — consulted at delivery time; vetoes delivery to
  a crashed destination.

Every per-message decision draws from a dedicated seeded *per-link*
stream (``("faults", "net", src, dst)``), so a given (seed, plan) pair
always yields the same fault schedule per link regardless of worker
count: a link's draw sequence depends only on that link's own send
history, never on the global interleaving of sends across links.
Every injected fault is announced on the probe bus
(``fault.drop``, ``fault.duplicate``, ``fault.delay``,
``fault.reorder``, ``fault.partition``, ``fault.crash``,
``fault.crash_drop``, ``fault.restart``) and counted by the metrics
collector.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from .plan import FaultPlan

__all__ = ["FaultInjector", "FAULT_KINDS"]

#: Every fault kind :meth:`FaultInjector._record` can announce on the
#: probe bus (as ``fault.<kind>``).  The emit site is an f-string, so
#: this tuple is the machine-readable catalog entry for it — the
#: probe-bus contract test (tests/test_probe_catalog.py) expands it
#: against docs/OBSERVABILITY.md.
FAULT_KINDS = (
    "drop",
    "duplicate",
    "delay",
    "reorder",
    "partition",
    "crash",
    "crash_drop",
    "restart",
)

#: A delivery action: (one-way delay, fault tag, respect-FIFO-clamp).
Action = Tuple[float, Optional[str], bool]


class FaultInjector:
    """Applies a fault plan to every message crossing the network.

    Parameters
    ----------
    env:
        Simulation environment (probe bus + crash process host).
    plan:
        The :class:`FaultPlan` to execute.
    streams:
        The run's :class:`~repro.sim.rng.StreamRegistry`; the injector
        draws each link's decisions from its own named substream
        (``("faults", "net", src, dst)``) — never shared with traffic
        or latency streams, so enabling faults cannot perturb their
        draws, and never shared across links, so one link's schedule
        does not depend on how sends on other links interleave.
    latency:
        The network's latency model; duplicate copies are delivered one
        fresh latency sample after the original.
    metrics:
        Optional :class:`repro.metrics.MetricsCollector` for the
        injected/recovered counters.
    """

    #: Snapshot fields (see :mod:`repro.snap.state`); the link streams
    #: live in the registry and the crash processes on the event queue.
    SNAPSHOT = ("down", "injected")

    def __init__(
        self,
        env: Any,
        plan: FaultPlan,
        streams: Any,
        latency: Any,
        metrics: Any = None,
    ) -> None:
        self.env = env
        self._probes = env._probes
        self.plan = plan
        self.streams = streams
        self.latency = latency
        self.metrics = metrics
        #: (src, dst) -> that link's decision stream: a ``UniformStream``
        #: (two ints, not a numpy ``Generator`` — a 14×14 run has ~3 300
        #: links), memoized here so a send does not rebuild the
        #: registry's string key; the registry owns it for snapshots.
        self._link_rngs: Dict[Tuple[int, int], Any] = {}
        #: Cells currently crashed (no sends, no deliveries).
        self.down: Set[int] = set()
        #: Injected-fault counts by kind (injector-local diagnostics;
        #: the metrics collector keeps the authoritative per-run copy).
        self.injected: Dict[str, int] = {}

    def _link_rng(self, src: int, dst: int) -> Any:
        link = (src, dst)
        rng = self._link_rngs.get(link)
        if rng is None:
            rng = self._link_rngs[link] = self.streams.uniforms(
                "faults", "net", src, dst
            )
        return rng

    # -- bookkeeping -------------------------------------------------------
    def _record(self, kind: str, detail: Any) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.record_fault(kind)
        if f"fault.{kind}" in self._probes:
            self.env.emit(f"fault.{kind}", detail)

    # -- network interface -------------------------------------------------
    def filter_send(
        self,
        src: int,
        dst: int,
        payload: Any,
        delay: float,
        tag: Optional[str],
    ) -> Tuple[Action, ...]:
        """Decide the delivery action(s) for one sent message.

        Returns a tuple of ``(delay, fault_tag, clamp)`` actions —
        empty when the message is lost.  ``clamp=False`` bypasses the
        per-link FIFO floor (injected reordering); everything else
        stays FIFO: an extra delay raises the floor (head-of-line
        blocking) and a duplicate is a later, ordered copy.
        """
        now = self.env._now
        if src in self.down or dst in self.down:
            self._record("crash_drop", (src, dst, type(payload).__name__))
            return ()
        for partition in self.plan.partitions:
            if partition.severs(src, dst, now):
                self._record("partition", (src, dst, type(payload).__name__))
                return ()
        plan = self.plan
        rng = self._link_rng(src, dst)
        if plan.drop_prob and rng.random() < plan.drop_prob:
            self._record("drop", (src, dst, type(payload).__name__))
            return ()
        clamp = True
        if plan.delay_prob and rng.random() < plan.delay_prob:
            extra = float(rng.uniform(0.0, plan.extra_delay))
            delay += extra
            self._record("delay", (src, dst, extra))
        if plan.reorder_prob and rng.random() < plan.reorder_prob:
            extra = float(rng.uniform(0.0, plan.reorder_delay))
            delay += extra
            clamp = False
            # Keep "retrans" provenance if the ARQ tagged this copy; the
            # sanitizers relax their checks for any non-None tag.
            tag = tag or "reorder"
            self._record("reorder", (src, dst, extra))
        actions: List[Action] = [(delay, tag, clamp)]
        if plan.dup_prob and rng.random() < plan.dup_prob:
            dup_delay = delay + float(self.latency.sample(src, dst))
            actions.append((dup_delay, "dup", True))
            self._record("duplicate", (src, dst, type(payload).__name__))
        return tuple(actions)

    def deliverable(self, envelope: Any) -> bool:
        """Veto delivery to a crashed destination (in-flight loss)."""
        if envelope.dst in self.down:
            self._record(
                "crash_drop", (envelope.src, envelope.dst, envelope.kind)
            )
            return False
        return True

    # -- crash schedule ----------------------------------------------------
    def install(self, stations: Dict[int, Any]) -> None:
        """Spawn one crash–restart process per scheduled window."""
        for window in self.plan.crashes:
            if window.cell not in stations:
                raise ValueError(
                    f"crash window targets unknown cell {window.cell}"
                )
            self.env.process(self._crash_process(stations[window.cell], window))

    def _crash_process(
        self, station: Any, window: Any, wake_at: Optional[float] = None, phase: str = "pre"
    ):
        """One crash window.  ``wake_at`` re-enters a window a snapshot
        caught waiting: for the crash (``phase="pre"``) or, with the
        cell already down, for the restart (``"post"``)."""
        env = self.env
        if phase == "pre":
            yield env.timeout(window.at) if wake_at is None else env.timeout_at(wake_at)
            self.down.add(window.cell)
            self._record("crash", (window.cell, window.lose_state))
            station._crash(window.lose_state)
            yield env.timeout(window.downtime)
        else:
            yield env.timeout_at(wake_at)
        self.down.discard(window.cell)
        self._record("restart", (window.cell,))
        station._restart()
