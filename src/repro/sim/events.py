"""Core event types for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularized
by SimPy, re-implemented here from scratch): simulation activities are
Python generators that ``yield`` :class:`Event` objects and are resumed
when those events are *processed*.  Everything is deterministic: events
scheduled at the same simulation time are processed in (priority,
insertion-order) sequence.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Environment

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
    "PENDING",
    "URGENT",
    "NORMAL",
]


class _PendingType:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


#: Sentinel used as the value of untriggered events.
PENDING = _PendingType()

#: Scheduling priority for events that must run before normal events at
#: the same timestamp (used internally by :class:`Process` resumption).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class Event:
    """An observable occurrence inside an :class:`Environment`.

    An event goes through three states:

    1. *untriggered* — freshly created, value is :data:`PENDING`;
    2. *triggered* — a value (or failure) has been set and the event has
       been scheduled on the environment's queue;
    3. *processed* — the environment popped it and ran its callbacks.

    Processes wait on events by yielding them from their generator.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked (in registration order) when processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._processed: bool = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or failure has been assigned."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't re-raise."""
        self._defused = True

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if priority != NORMAL and priority != URGENT:
            raise ValueError(f"priority must be URGENT or NORMAL, not {priority!r}")
        self._ok = True
        self._value = value
        # Inlined ``env._schedule(env._now, self, priority)`` — this is the hot
        # trigger path (process wakeups, resource grants).
        env = self.env
        env._eid = eid = env._eid + 1
        (env._normal if priority == NORMAL else env._urgent).append((eid, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if priority != NORMAL and priority != URGENT:
            raise ValueError(f"priority must be URGENT or NORMAL, not {priority!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self.env._now, self, priority)
        return self

    def abandon(self) -> None:
        """Drop this event's callbacks unrun: whatever waits on it is let go.

        For an event that will never be processed (a torn-down
        simulation, see :meth:`Environment.close`).  A condition
        listening on it is abandoned with it, so a process parked on
        ``a | b`` is released — and, nothing else holding it, its
        generator closed — when ``a`` and ``b`` are.
        """
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, ConditionEvent):
                owner.abandon()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self._processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- composition -----------------------------------------------------
    def __and__(self, other: "Event") -> "ConditionEvent":
        return ConditionEvent(self.env, ConditionEvent.all_events, [self, other])

    def __or__(self, other: "Event") -> "ConditionEvent":
        return ConditionEvent(self.env, ConditionEvent.any_events, [self, other])


class Timeout(Event):
    """An event that triggers ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(env._now + delay, self)

    @property
    def triggered(self) -> bool:
        # A Timeout is scheduled (hence conceptually triggered) at birth.
        return True


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    The process itself is an event that triggers when the generator
    terminates — its value is the generator's return value, or the
    uncaught exception on failure.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if type(generator) is not GeneratorType and not (
            hasattr(generator, "send") and hasattr(generator, "throw")
        ):
            raise TypeError(f"{generator!r} is not a generator")
        # One process per call: built like ``Environment.timeout`` builds
        # a Timeout — the state of ``Event.__init__`` plus a kick-start
        # event pushed without the ``_schedule`` chain.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._processed = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if not
        #: started or already terminated).
        self._target: Optional[Event] = None
        # Kick-start: resume the generator at the current time, urgently.
        init = Event.__new__(Event)
        init.env = env
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._defused = False
        init._processed = False
        env._eid = eid = env._eid + 1
        env._urgent.append((eid, init))

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        while True:
            self._target = None
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    event.defuse()
                    next_target = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value, priority=URGENT)
                return
            except BaseException as exc:
                self.fail(exc, priority=URGENT)
                return

            if not isinstance(next_target, Event):
                exc = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_target!r}"
                )
                self.fail(exc, priority=URGENT)
                return
            if next_target.env is not env:
                self.fail(
                    RuntimeError("yielded an event from a foreign environment"),
                    priority=URGENT,
                )
                return

            if next_target._processed:
                # Already processed: resume immediately with its value.
                event = next_target
                continue
            self._target = next_target
            assert next_target.callbacks is not None
            next_target.callbacks.append(self._resume)
            return


class ConditionEvent(Event):
    """An event that triggers when a predicate over child events holds.

    Used to implement ``AllOf`` / ``AnyOf`` (and the ``&`` / ``|``
    operators on events).  The value is a dict mapping each *triggered*
    child event to its value, in child order.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event._processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        return {e: e._value for e in self._events if e._processed and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(ConditionEvent):
    """Triggers once every child event has triggered successfully."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, ConditionEvent.all_events, events)


class AnyOf(ConditionEvent):
    """Triggers as soon as any child event triggers successfully."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, ConditionEvent.any_events, events)
