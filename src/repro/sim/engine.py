"""Deterministic discrete-event simulation environment.

The :class:`Environment` owns the event queue and the simulation clock.
Events scheduled for the same time are processed in (priority,
insertion-order) sequence, so a simulation with a fixed seed is fully
reproducible.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Sequence, Tuple,
)

from .events import NORMAL, URGENT, AllOf, AnyOf, Event, Process, Timeout

# Bound once at import: the scheduler touches these on every event, and
# a module-global lookup is measurably cheaper than ``heapq.heappush``
# attribute traversal in the hot loop.
_heappush = heapq.heappush
_heappop = heapq.heappop
_heapreplace = heapq.heapreplace

__all__ = ["Environment", "EmptySchedule", "StopSimulation", "ProbeCallback"]

#: A probe callback: called as ``callback(now, payload)``.
ProbeCallback = Callable[[float, Any], None]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when the queue is exhausted."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` at an event."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).

    Events run in the order ``(time, priority, eid)``; an event for the
    current instant waits in a FIFO lane, and consecutive deliveries share
    one heap entry, a *run* (docs/PROTOCOL.md §11 says why the order holds).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._eid = 0
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._urgent: Deque[Tuple[int, Event]] = deque()
        self._normal: Deque[Tuple[int, Event]] = deque()
        #: The open run (none if empty), the time and eid of the last delivery.
        self._run: Sequence[Any] = ()
        self._run_at = 0.0
        self._run_last = 0
        #: Members beyond the first of the runs on the heap.
        self._extra = 0
        #: The rest of the run being drained, its time, the eid after its last member.
        self._draining: Sequence[Any] = ()
        self._drain_at = 0.0
        self._drain_end = 0
        #: Probe subscribers by event kind (see :meth:`subscribe`).
        self._probes: Dict[str, List[ProbeCallback]] = {}

    # -- probes (observation hooks) ---------------------------------------
    #
    # Components of the simulation announce notable occurrences through
    # ``emit(kind, payload)``; observers (sanitizers, tracers) register
    # with ``subscribe(kind, callback)``.  Emit sites hold ``_probes``
    # itself (one dict for the environment's whole life, mutated in
    # place) and guard on ``kind in self._probes``, so a kind without a
    # subscriber costs neither the call nor the payload, and a
    # subscription takes effect at the next emit.  Probes are
    # observation-only: callbacks must not mutate simulation state or
    # schedule events.
    def subscribe(self, kind: str, callback: ProbeCallback) -> None:
        """Register ``callback`` for probe events of ``kind``."""
        self._probes.setdefault(kind, []).append(callback)

    def unsubscribe(self, kind: str, callback: ProbeCallback) -> None:
        """Remove a previously registered probe callback."""
        callbacks = self._probes.get(kind)
        if callbacks is None or callback not in callbacks:
            raise ValueError(f"callback not subscribed to {kind!r}")
        callbacks.remove(callback)
        if not callbacks:
            del self._probes[kind]

    def emit(self, kind: str, payload: Any = None) -> None:
        """Deliver a probe event to every subscriber of ``kind``."""
        callbacks = self._probes.get(kind)
        if callbacks:
            now = self._now
            for callback in tuple(callbacks):
                callback(now, payload)

    # -- clock & introspection --------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none.

        Abandoned entries (see :meth:`Event.abandon`) are discarded on
        the way so the answer is the next event that will actually process.
        """
        while True:
            queue, when, event = self._head()
            if queue is None or event.callbacks is not None:
                return when
            self._pop()

    def __len__(self) -> int:
        lanes = len(self._urgent) + len(self._normal) + len(self._draining)
        return len(self._heap) + self._extra + lanes

    def pending(self) -> List[Tuple[float, int, int, Any]]:
        """Every queued ``(time, priority, eid, event)``, abandoned ones
        included, unordered (sorted, in processing order)."""
        self._spill()
        now = self._now
        entries = [(now, URGENT, eid, event) for eid, event in self._urgent]
        entries += [(now, NORMAL, eid, event) for eid, event in self._normal]
        for when, prio, eid, item in self._heap:  # a run is a list of events
            members = item if item.__class__ is list else (item,)
            entries += [(when, prio, eid + k, event) for k, event in enumerate(members)]
        return entries

    def reset(self, now: float) -> None:
        """Drop every entry unrun; ids restart, the clock is ``now`` (a restore's start)."""
        self._clear()
        self._eid = 0
        self._now = now

    def _clear(self) -> None:
        """Empty the queue, the open run and the run being drained included."""
        self._spill()
        self._heap.clear()
        self._urgent.clear()
        self._normal.clear()
        self._run = ()
        self._extra = 0

    def _spill(self) -> None:
        """Put the rest of the run being drained back on the heap, at its next
        member's eid; the loop draining it (:meth:`run`) stops."""
        rest = self._draining
        if rest:
            self._draining = ()
            _heappush(self._heap, (self._drain_at, NORMAL, self._drain_end - len(rest), rest[:]))
            self._extra += len(rest) - 1
            rest.clear()

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event triggering ``delay`` time units from now.

        This is the kernel's hottest allocation site (every hold/dwell
        interval and protocol timer goes through it; message deliveries
        are their own queue entries, see ``Network._schedule``), so it
        builds the :class:`Timeout` directly — same state as
        ``Timeout(self, delay, value)``, minus the generic event
        plumbing of the constructor chain.
        """
        if not delay >= 0:  # also rejects NaN, which would corrupt heap order
            raise ValueError(f"negative delay {delay}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event._processed = False
        event.delay = delay
        self._eid = eid = self._eid + 1
        at = self._now + delay
        if at == self._now:
            self._normal.append((eid, event))
        else:
            _heappush(self._heap, (at, NORMAL, eid, event))
        return event

    def timeout_at(self, at: float, value: Any = None) -> Timeout:
        """Create an event triggering at the *absolute* time ``at``.

        Same as :meth:`timeout` with ``delay = at - now``, except the
        scheduled time is exactly ``at`` — ``now + (at - now)`` can
        land one ulp off, which matters to consumers that must
        reproduce a wake-up time bit-for-bit (snapshot restore
        re-materialising a timer the captured run had pending).
        """
        if not at >= self._now:  # also rejects NaN
            raise ValueError(f"cannot schedule at {at}, now is {self._now}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event._processed = False
        event.delay = at - self._now
        self._schedule(at, event)
        return event

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, at: float, event: Event, priority: int = NORMAL) -> None:
        """Put a triggered event on the queue at ``at`` (URGENT: now only)."""
        self._eid = eid = self._eid + 1
        if at != self._now:
            _heappush(self._heap, (at, priority, eid, event))
        elif priority == NORMAL:
            self._normal.append((eid, event))
        else:
            self._urgent.append((eid, event))

    def _push_run(self, at: float, event: Any) -> None:
        """Queue a delivery at ``at``: the next one at the same time starts a run,
        and later ones join it.  Only for events that cannot fail (a run skips
        the failure check)."""
        self._eid = eid = self._eid + 1
        if at == self._now:
            self._normal.append((eid, event))
        elif eid == self._run_last + 1 and at == self._run_at:
            self._run_last = eid
            if self._run:
                self._run.append(event)  # type: ignore[attr-defined]
                self._extra += 1
            else:
                self._run = run = [event]
                _heappush(self._heap, (at, NORMAL, eid, run))
        else:
            _heappush(self._heap, (at, NORMAL, eid, event))
            self._run, self._run_at, self._run_last = (), at, eid

    def _head(self) -> Tuple[Any, float, Any]:
        """``(queue, time, event)`` of the next entry; ``queue`` (the lane or heap
        holding it) is ``None``, with time ``inf``, if all are empty.  Order: the
        URGENT lane, heap entries stamped now (smaller eids), the NORMAL lane."""
        if self._draining:
            self._spill()
        heap, normal = self._heap, self._normal
        if self._urgent:
            return self._urgent, self._now, self._urgent[0][1]
        if heap and (not normal or heap[0][0] == self._now):
            when, _prio, _eid, event = heap[0]
            return heap, when, event[0] if event.__class__ is list else event
        if normal:
            return normal, self._now, normal[0][1]
        return None, float("inf"), None

    def _pop(self) -> Tuple[float, Any]:
        """Take the next entry off the queue: ``(time, event)``."""
        queue, when, event = self._head()
        if queue is None:
            raise EmptySchedule()
        if queue is not self._heap:
            queue.popleft()
            return when, event
        _when, prio, eid, run = queue[0]
        if run is not event:  # the front member of a run
            del run[0]
            if run:
                _heapreplace(queue, (when, prio, eid + 1, run))
                self._extra -= 1
                return when, event
        _heappop(queue)
        return when, event

    def close(self) -> None:
        """Abandon everything scheduled; the environment will not run again.

        Unhooks every queued event from the process waiting on it
        (:meth:`Event.abandon`), which is what lets a finished
        simulation be freed by reference counting.  Probe subscribers
        go first, in place: abandoning a process closes its generator,
        the ``finally:`` blocks that fire then reach emit sites, and
        those guard on the (now empty) subscriber table.
        """
        self._probes.clear()
        while len(self):  # a closing generator may still schedule (a lock hand-over)
            entries = self.pending()
            self._clear()
            for entry in entries:
                entry[3].abandon()

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` if no events remain, and re-raises
        any un-defused event failure (a crashed process nobody waited on).
        """
        when, event = self._pop()
        callbacks = event.callbacks
        if callbacks is None:
            return  # abandoned: skip without advancing the clock
        self._now = when
        event.callbacks = None  # late callback registration is a bug
        event._processed = True
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody handled the failure: surface it to the caller.
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(f"unhandled failed event with value {exc!r}")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the queue empties;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (re-raising its exception on failure).
        """
        if until is None:
            stop: Optional[Event] = None
        elif isinstance(until, Event):
            stop = until
            if stop._processed:
                return stop._value if stop._ok else self._reraise(stop)
            assert stop.callbacks is not None
            stop.callbacks.append(self._stop_callback)
        else:
            at = float(until)
            if not at >= self._now:  # also rejects NaN
                raise ValueError(f"until={at} is not at or after now={self._now}")
            # Stop-event priority rule: the stop event is scheduled at
            # time `at` with priority -1, ahead of both URGENT (0) and
            # NORMAL (1), so the clock advances to exactly `at` and the
            # run halts before any simulation event scheduled at `at`
            # is processed.  Stamped now, it would be the next event:
            # it costs its id and nothing runs.
            self._eid += 1
            if at == self._now:
                return None
            stop = Event(self)
            stop._ok = True
            stop._value = None
            stop.callbacks = [self._stop_callback]
            _heappush(self._heap, (at, -1, self._eid, stop))

        # Inlined `step()` loop: one method call per event is real
        # overhead at millions of events, so the body is duplicated here
        # with the queue bound to locals.  Keep in sync with
        # :meth:`_head`, :meth:`_pop` and :meth:`step`.  The clock is
        # read from ``self``: a callback may step the kernel itself.
        self._spill()
        heap = self._heap
        urgent = self._urgent
        normal = self._normal
        next_urgent = urgent.popleft
        next_normal = normal.popleft
        pop = _heappop
        try:
            while True:
                if urgent:
                    event = next_urgent()[1]
                elif heap and (not normal or heap[0][0] == self._now):
                    when, _prio, eid, event = pop(heap)
                    if event.__class__ is list:
                        # A run: its members in order, until an URGENT
                        # event is scheduled for this instant.
                        run = event
                        self._extra -= len(run) - 1
                        self._draining = run
                        self._drain_at, self._drain_end = when, eid + len(run)
                        try:
                            while run:
                                event = run.pop(0)
                                callbacks = event.callbacks
                                if callbacks is not None:
                                    self._now = when
                                    event.callbacks = None
                                    event._processed = True
                                    for callback in callbacks:
                                        callback(event)
                                    if urgent:
                                        break
                        finally:  # stopped early, or a callback raised
                            self._spill()
                        continue
                    if event.callbacks is not None:
                        self._now = when
                elif normal:
                    event = next_normal()[1]
                else:
                    raise EmptySchedule()
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # abandoned: skip without advancing the clock
                event.callbacks = None  # late callback registration is a bug
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise RuntimeError(
                        f"unhandled failed event with value {exc!r}"
                    )
        except StopSimulation as stop_exc:
            return stop_exc.args[0]
        except EmptySchedule:
            if stop is not None and not stop._processed:
                if isinstance(until, Event):
                    raise RuntimeError(
                        "no more events; the `until` event was never triggered"
                    ) from None
            return None

    @staticmethod
    def _reraise(event: Event) -> Any:
        exc = event._value
        event.defuse()
        if isinstance(exc, BaseException):
            raise exc
        raise RuntimeError(f"event failed with value {exc!r}")

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        exc = event._value
        event._defused = True
        if isinstance(exc, BaseException):
            raise exc
        raise RuntimeError(f"event failed with value {exc!r}")
