"""Protocol framework: the mobile service station (MSS) base class.

Every allocation scheme is an :class:`MSS` subclass attached to one
cell.  The base class provides:

* the public call-level API used by the traffic layer —
  :meth:`request_channel` (a generator to ``yield from``) and
  :meth:`release_channel`;
* per-MSS serialization of channel acquisitions (the paper's pseudocode
  processes one ``Request_Channel`` at a time per node; concurrent call
  arrivals queue);
* message dispatch from the network to ``_on_<MessageType>`` handlers;
* the response round a message-passing scheme runs — open, match a
  reply, wait with the hardened deadline (``_open_round`` /
  ``_awaited`` / ``_await_round``);
* timestamp generation (``(time, node_id)`` pairs — the paper's
  "timestamp of the node at the time of generating the request");
* bookkeeping hooks into the metrics collector and the global
  interference monitor.

Subclasses implement ``_request(ts) -> channel | None`` (plain function
or generator) and ``_release(channel)``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Generator, Iterable, Optional, Set, Tuple

from ..cellular import CellularTopology
from ..sim import Collector, Environment, Envelope, Event, Network, Resource
from ..sim.events import PENDING
from .monitor import InterferenceMonitor

if TYPE_CHECKING:
    from ..faults.arq import DedupFilter, Hardening, ReliableLink
    from .messages import Timestamp

__all__ = ["MSS"]


@lru_cache(maxsize=None)
def _waits(cls: type) -> Tuple[str, ...]:
    """Every ``WAITS`` entry of ``cls`` and its bases, resolved once."""
    return tuple(
        name for klass in reversed(cls.__mro__) for name in vars(klass).get("WAITS", ())
    )


class MSS:
    """Base mobile service station (one per cell).

    Parameters
    ----------
    env, network, topo:
        Simulation environment, message fabric, cellular topology.
    cell:
        This station's cell id; doubles as the network node id.
    metrics:
        Optional :class:`repro.metrics.MetricsCollector`.
    monitor:
        Optional :class:`InterferenceMonitor` for safety checking.
    """

    #: Human-readable scheme name (subclasses override).
    scheme = "abstract"
    #: Capability cells a scheme owns (see ``repro.harness.capability``):
    #: do its handshakes need per-link FIFO delivery (docs/PROTOCOL.md
    #: §7), and does a ``ModePolicy`` drive it.  Set the attribute; the
    #: table and the lane oracle pick it up.  Unordered links need
    #: evidence: a scheme declares ``requires_fifo = False`` only with a
    #: stress over them that passes (``tests/test_fifo_assumption.py``).
    requires_fifo = True
    policy_driven = False
    #: ``Scenario`` fields the constructor takes, each as the keyword of
    #: the same name (``build_simulation`` passes them).
    SCENARIO_FIELDS: Tuple[str, ...] = ()
    #: What the samplers read and the report sums; a scheme that has a
    #: mode, a ``ModePolicy`` or these counters sets them per station.
    mode = 0
    policy = None
    mode_changes = 0
    local_acquires = 0
    local_notify_sum = 0
    #: Snapshot fields (see :mod:`repro.snap.state`); a subclass lists
    #: only what it adds.  The link and the duplicate filter are
    #: :mod:`repro.faults.arq` objects, loaded with the hardening.
    SNAPSHOT = (
        ("scheme", "__class__", type),
        "use",
        "down",
        ("crash_released", "_crash_released"),
        ("round_counter", "_round_counter"),
        ("req_seq", "_req_seq"),
        ("req_kind", "_req_kind"),
        ("alias", "_alias", deque),
        ("grant_mode", "_grant_mode"),
        ("link", "_link", object),
        ("dedup", "_dedup", object),
    )
    #: ``_attempts`` is scratch of the request being served: zeroed when
    #: serving starts, and no request is open at a safe point.
    SNAPSHOT_TRANSIENT = ("_attempts",)
    #: The attributes that hold this station's wait primitives — a
    #: ``Collector``, ``Gate`` or ``Resource``, None, or a dict of them —
    #: which :meth:`close` abandons; a subclass lists only what it adds.
    WAITS: Tuple[str, ...] = ("_lock", "_collector")

    def __init__(
        self,
        env: Environment,
        network: Network,
        topo: CellularTopology,
        cell: int,
        metrics: Any = None,
        monitor: Optional[InterferenceMonitor] = None,
        hardening: Optional[Hardening] = None,
    ) -> None:
        self.env = env
        #: The environment's live probe-subscriber table (shared by
        #: reference): every emit site guards on ``kind in self._probes``.
        self._probes = env._probes
        self.network = network
        self.topo = topo
        self.cell = cell
        self.node_id = cell  # network address
        self.metrics = metrics
        self.monitor = monitor
        #: Unreliable-network hardening (see :mod:`repro.faults`): when
        #: set, every outgoing protocol message goes through a per-MSS
        #: ARQ (ack + bounded retransmission) and incoming messages are
        #: acknowledged and de-duplicated by ``Envelope.msg_id``.  None
        #: (the default, and always the case without an active fault
        #: plan) leaves the original reliable-network fast paths fully
        #: intact.
        self.hardening = hardening
        self._link: Optional[ReliableLink] = None
        self._dedup: Optional[DedupFilter] = None
        if hardening is not None:
            from ..faults.arq import Ack, DedupFilter, ReliableLink

            self._link = ReliableLink(env, network, cell, hardening, metrics)
            self._dedup = DedupFilter()
            #: The link layer's acknowledgement, told apart in dispatch.
            self._ack = Ack
        #: True while this station is crashed (fault injection).
        self.down = False
        #: Credits for channels force-released by a crash: the calls
        #: that held them are gone, but their handles will still call
        #: :meth:`release_channel` later; each credit silently absorbs
        #: one such stale release so accounting stays balanced.
        self._crash_released = 0

        #: Channels currently in use by this cell (paper's ``Use_i``).
        self.use: Set[int] = set()
        #: Interference region ids (paper's ``IN_i``), sorted for
        #: deterministic iteration.
        self.IN = topo.sorted_IN(cell)
        #: Primary set (paper's ``PR_i``).
        self.PR: FrozenSet[int] = topo.PR(cell)
        self.spectrum: FrozenSet[int] = topo.spectrum.all_channels

        self._lock = Resource(env, capacity=1)
        self._round_counter = 0
        #: The open response round (see :meth:`_open_round`) and its id.
        self._collector: Optional[Collector] = None
        self._collector_round = -1
        self._req_seq = 0  # per-MSS request id (probe-bus span pairing)
        self._req_kind = "new"
        #: Acquisition path of the last served request ("local" /
        #: "update" / "search" / ...), set by the protocol.
        self._grant_mode: Optional[str] = None
        #: Channel-reassignment aliases: when an MSS internally moves a
        #: call from channel b to channel r (repacking), the holder of b
        #: still releases "b" — the alias redirects that to r.  A
        #: retired id can be re-borrowed by a *new* call while the old
        #: alias is outstanding, so each id maps to a FIFO of targets
        #: (the calls are physically interchangeable, any pairing works).
        self._alias: Dict[int, "deque[int]"] = {}
        #: Dispatch cache: payload type -> bound ``_on_<Type>`` handler
        #: (filled lazily; saves a name format + getattr per message).
        self._handlers: Dict[type, Any] = {}
        network.attach(self)

    def close(self) -> None:
        """Let go of every request in flight (see ``Simulation.close``).

        Every wait primitive the class declares in ``WAITS`` — its
        lock, an open round, a scheme's own gate or round table —
        abandons its waiters: the parked request is dropped and its
        generator closed while the station is still whole.  The handler
        cache (bound methods of the station itself) goes too.
        """
        self._handlers.clear()
        for name in _waits(type(self)):
            held = getattr(self, name)
            for wait in held.values() if type(held) is dict else (held,):
                if wait is not None:
                    wait.abandon()

    # ------------------------------------------------------------------
    # Public call-level API (used by the traffic layer)
    # ------------------------------------------------------------------
    def request_channel(
        self, kind: str = "new", setup_deadline: Optional[float] = None
    ) -> Generator[Event, Any, Optional[int]]:
        """Acquire a channel; generator returning the channel id or None.

        ``kind`` labels the request for metrics ("new" or "handoff").
        Acquisitions are serialized per MSS; the queueing delay behind
        earlier requests of the same cell is recorded separately from
        the protocol's own acquisition time.  If the protocol cannot
        even *start* within ``setup_deadline`` (the MSS is busy with
        earlier requests), the call abandons — blocked-calls-cleared
        semantics, which keeps offered load well defined at overload.
        """
        env = self.env
        metrics = self.metrics
        self._req_seq = req_id = self._req_seq + 1
        if "request.begin" in self._probes:
            env.emit("request.begin", (self.cell, req_id, kind))
        channel = None
        try:
            t_arrival = env._now
            if self.down:
                # Crashed station: no service (blocked-calls-cleared).
                if metrics is not None:
                    metrics.record_acquisition(
                        self.cell, kind, False, 0.0, 0.0, 0, "down", t_arrival
                    )
                return None
            #: Kind of the request being served ("new"/"handoff"), readable
            #: by protocols implementing admission policies (guard channels).
            self._req_kind = kind
            lock_req = self._lock.request()
            if setup_deadline is not None and lock_req._value is PENDING:
                yield env.any_of([lock_req, env.timeout(setup_deadline)])
                if lock_req._value is PENDING:
                    self._lock.cancel(lock_req)
                    if metrics is not None:
                        metrics.record_acquisition(
                            self.cell, kind, False, setup_deadline, 0.0, 0,
                            "queue_timeout", env._now,
                        )
                    return None
            else:
                yield lock_req
            t_start = env._now
            # Serving starts now: the queue wait behind earlier requests
            # of this cell is over (down-station and queue-timeout
            # requests never reach this point and never serve).
            if "request.serve" in self._probes:
                env.emit("request.serve", (self.cell, req_id))
            self._attempts = 0  # protocols update this as they retry
            try:
                outcome = self._request((t_start, self.cell))
                if type(outcome) is GeneratorType:
                    outcome = yield from outcome
            finally:
                self._lock.release()
            t_done = env._now

            if outcome is not None:
                if self.down:
                    # The station crashed while this acquisition was in
                    # flight: the grant is void.  If the grab happened
                    # before the crash, the crash already force-released
                    # it; if after (a round deadline resumed the generator
                    # while down), undo it here.
                    if outcome in self.use:
                        self._drop_from_use(outcome)
                    else:
                        self._crash_released -= 1  # crash released it; no stale handle
                    outcome = None
                elif outcome not in self.use:
                    raise AssertionError(
                        f"protocol bug: granted channel {outcome} not in Use_{self.cell}"
                    )
            if metrics is not None:
                metrics.record_acquisition(
                    self.cell, kind, outcome is not None, t_start - t_arrival,
                    t_done - t_start, self._attempts, self._grant_mode, t_done,
                )
            channel = outcome  # what ``request.end`` reports
            return channel
        finally:
            # Fires on normal return AND on generator abandonment (the
            # traffic layer closing a half-driven request, a crashed
            # process): every opened acquisition span closes exactly once.
            if "request.end" in self._probes:
                env.emit("request.end", (self.cell, req_id, channel))

    def release_channel(self, channel: int) -> None:
        """Relinquish a channel this cell holds.

        The id is resolved through the reassignment alias map first
        (repacking may have moved the call to a different physical
        channel), and the protocol may substitute another channel to
        retire instead (e.g. free a borrowed channel and keep the
        primary for the remaining call).
        """
        aliases = self._alias.get(channel)
        if aliases:
            resolved = aliases.popleft()
            if not aliases:
                del self._alias[channel]
            channel = resolved
        if channel not in self.use:
            if self._crash_released > 0:
                # Stale handle of a call whose channel a crash already
                # force-released; consume one credit and do nothing.
                self._crash_released -= 1
                return
            raise ValueError(
                f"cell {self.cell} does not hold channel {channel}"
            )
        channel = self._repack_substitute(channel)
        self._release(channel)
        if channel in self.use:
            raise AssertionError(
                f"protocol bug: _release left channel {channel} in Use_{self.cell}"
            )
        if self.metrics is not None:
            self.metrics.record_release(self.cell, channel, self.env.now)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Called once after all stations are attached (optional)."""

    def _request(self, ts: Timestamp):
        raise NotImplementedError

    def _release(self, channel: int) -> None:
        raise NotImplementedError

    def _repack_substitute(self, channel: int) -> int:
        """Optionally retire a different channel than the one released
        (channel reassignment).  Default: no reassignment."""
        return channel

    def snapshot_obstacle(self) -> Optional[str]:
        """Why this station cannot be snapshotted right now (None: it can).

        Generator frames cannot be captured, so a station is safe only
        while no request of its own is in progress.  A scheme that parks
        requests on events of its own (a second collector, a gate)
        reports them here before deferring to this check.
        """
        if self._collector is not None:
            return "response round in flight"
        if self._lock._in_use or self._lock._queue:
            return "channel request holds the acquisition lock"
        return None

    # -- shared helpers -----------------------------------------------------
    def _checked_guard(self, guard_channels: int) -> int:
        """``guard_channels`` if it leaves new calls a primary, else ValueError."""
        primaries = len(self.PR)
        if not 0 <= guard_channels < primaries:
            hint = "" if primaries else " (fewer channels than reuse colours)"
            raise ValueError(
                f"cell {self.cell} has {primaries} primary channels{hint}, so "
                f"guard_channels={guard_channels} must be in [0, {primaries})"
            )
        return guard_channels

    def _grab(self, channel: int) -> None:
        """Add a channel to Use and notify the interference monitor."""
        self.use.add(channel)
        if "channel.acquired" in self._probes:
            self.env.emit("channel.acquired", (self.cell, channel))
        if self.monitor is not None:
            self.monitor.acquired(self.cell, channel, self.env.now)

    def _drop_from_use(self, channel: int) -> None:
        """Remove a channel from Use and notify the monitor."""
        self.use.discard(channel)
        if "channel.released" in self._probes:
            self.env.emit("channel.released", (self.cell, channel))
        if self.monitor is not None:
            self.monitor.released(self.cell, channel, self.env.now)

    def _next_round(self) -> int:
        self._round_counter += 1
        return self._round_counter

    def _send(self, dst: int, payload: Any) -> None:
        if self._link is not None:
            self._link.send(dst, payload)
        else:
            self.network.send(self.cell, dst, payload)

    def _broadcast(self, payload: Any, dsts=None) -> int:
        """Send ``payload`` to every cell in ``dsts`` (default: IN_i)."""
        targets = self.IN if dsts is None else dsts
        if self._link is not None:
            count = 0
            for dst in targets:
                self._link.send(dst, payload)
                count += 1
            return count
        return self.network.multicast(self.cell, targets, payload)

    def _open_round(self, expected: Iterable[int]) -> Collector:
        """Open this station's response round over the cells in
        ``expected``; requests carry ``self._collector_round`` and the
        caller waits through :meth:`_await_round`, which closes it."""
        self._round_counter = self._collector_round = self._round_counter + 1
        collector = self._collector = Collector(self.env, expected)
        return collector

    def _awaited(self, msg: Any, collector: Optional[Collector], round_id: int) -> bool:
        """Is reply ``msg`` for the round ``(collector, round_id)`` —
        ``self._collector, self._collector_round`` unless the scheme
        keeps a second pair — and its sender still outstanding?"""
        return (
            collector is not None
            and msg.round_id == round_id
            and msg.sender in collector._expected
            and msg.sender not in collector._responses
        )

    def _await_round(self, collector):
        """Wait for a response round; returns ``(responses, complete)``.

        The only wait on a collector, and where the open round closes.
        Without hardening this is exactly ``yield collector.done`` (the
        reliable network guarantees completion — event-for-event
        identical to the historical inline wait).  With hardening the
        wait is bounded by the round deadline; on expiry the collector
        is cancelled and the partial responses are returned with
        ``complete=False`` so the protocol can resolve the round
        conservatively.
        """
        if "round.begin" in self._probes:
            self.env.emit("round.begin", (self.cell, len(collector.outstanding)))
        if self.hardening is None:
            yield collector.done
            complete = True
        else:
            deadline = self.env.timeout(self.hardening.round_deadline)
            yield self.env.any_of([collector.done, deadline])
            complete = collector.done.triggered
            if not complete:
                collector.cancel()
                if "fault.round_timeout" in self._probes:
                    self.env.emit(
                        "fault.round_timeout", (self.cell, sorted(collector.outstanding))
                    )
        if "round.end" in self._probes:
            self.env.emit("round.end", (self.cell, complete))
        self._collector = None
        return collector.responses, complete

    # ------------------------------------------------------------------
    # Crash / restart (driven by the fault injector)
    # ------------------------------------------------------------------
    def _crash(self, lose_state: bool) -> None:
        """Fail this station: calls drop, messages stop, state may wipe.

        Every held channel is force-released (the calls carried on it
        are gone) with a matching ``_crash_released`` credit so the
        calls' stale :meth:`release_channel` invocations are absorbed.
        Protocol-specific volatile state is handled by the
        :meth:`_crash_hook` hook.
        """
        self.down = True
        if self._link is not None:
            self._link.down = True
            self._link.flush()
        for channel in tuple(self.use):
            self._drop_from_use(channel)
            self._crash_released += 1
        self._alias.clear()
        if lose_state and self._dedup is not None:
            self._dedup.reset()
        self._crash_hook(lose_state)

    def _restart(self) -> None:
        """Bring a crashed station back; triggers :meth:`_restart_hook`
        (protocols rebuild their neighborhood view there)."""
        self.down = False
        if self._link is not None:
            self._link.down = False
        self._restart_hook()

    def _crash_hook(self, lose_state: bool) -> None:
        """Hook: clear protocol-specific volatile state (optional)."""

    def _restart_hook(self) -> None:
        """Hook: re-synchronize with the neighborhood (optional)."""

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, envelope: Envelope) -> None:
        """Route an incoming envelope to ``_on_<PayloadClass>``.

        Under hardening, link-layer traffic is peeled off first: ACKs
        feed the ARQ, every other message is acknowledged (even when it
        turns out to be a duplicate — the previous ACK may have been
        the lost copy) and then de-duplicated by ``msg_id`` so each
        logical message reaches its handler exactly once.
        """
        payload = envelope.payload
        if self._link is not None:
            ack = self._ack
            if type(payload) is ack:
                self._link.on_ack(payload)
                return
            if self.down:
                return  # crashed: the radio is off
            self.network.send(self.cell, envelope.src, ack(envelope.msg_id))
            if not self._dedup.accept(envelope.src, envelope.msg_id):
                if "fault.duplicate_suppressed" in self._probes:
                    self.env.emit(
                        "fault.duplicate_suppressed",
                        (self.cell, envelope.src, envelope.msg_id),
                    )
                return
        cls = type(payload)
        handler = self._handlers.get(cls)
        if handler is None:
            handler = getattr(self, f"_on_{cls.__name__}", None)
            if handler is None:
                raise NotImplementedError(
                    f"{type(self).__name__} has no handler for {cls.__name__}"
                )
            self._handlers[cls] = handler
        handler(payload)

    # -- debugging ----------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} cell={self.cell} use={sorted(self.use)}>"
