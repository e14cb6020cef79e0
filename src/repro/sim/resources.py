"""Synchronization primitives built on the event kernel.

These are the building blocks the protocol layer uses to express the
paper's blocking pseudocode (``wait UNTIL ...``):

* :class:`Gate` — a broadcast condition variable; waiters get an event
  that fires the next time the gate is pulsed (or immediately if the
  gate is already open).
* :class:`Resource` — a counted resource with FIFO queuing (used by the
  traffic layer to model control-channel contention in some scenarios).
* :class:`Collector` — gathers N responses and fires when all arrived;
  this is exactly the "wait UNTIL RESPONSE received from each j ∈ IN_i"
  primitive of Figures 2 and 4.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List

from .engine import Environment
from .events import ConditionEvent, Event

__all__ = ["Gate", "Resource", "Collector"]


def _unhook_conditions(event: Event) -> None:
    """Drop the conditions listening on ``event``, which will never fire.

    A condition (``AnyOf`` of a wait and its deadline) holds its events
    and each event holds the condition's callback: left in place, the
    pair is a cycle that only the cyclic collector frees.
    """
    if event.callbacks:
        event.callbacks[:] = [
            callback for callback in event.callbacks
            if not isinstance(getattr(callback, "__self__", None), ConditionEvent)
        ]


class Gate:
    """A broadcast condition variable.

    ``wait()`` returns an event.  ``pulse(value)`` fires all currently
    waiting events.  ``open(value)`` fires current waiters and makes all
    future ``wait()`` calls return an already-fired event until
    ``close()`` is called.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._waiters: List[Event] = []
        self._open = False
        self._open_value: Any = None

    @property
    def is_open(self) -> bool:  # repro: noqa(ANA401) tests/test_sim_resources.py
        return self._open

    def wait(self) -> Event:
        """Return an event that fires at the next pulse/open."""
        event = self.env.event()
        if self._open:
            event.succeed(self._open_value)
        else:
            self._waiters.append(event)
        return event

    def pulse(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed(value)
        return len(waiters)

    def open(self, value: Any = None) -> None:
        """Latch the gate open (future waits succeed immediately)."""
        self._open = True
        self._open_value = value
        self.pulse(value)

    def close(self) -> None:
        """Close a latched-open gate."""
        self._open = False
        self._open_value = None

    def abandon(self) -> None:
        """Let the current waiters go unwoken (see :meth:`Event.abandon`)."""
        while self._waiters:
            self._waiters.pop().abandon()


class Resource:
    """A counted resource with FIFO request queue.

    ``request()`` yields an event that fires once a slot is available;
    the holder must call ``release()`` exactly once.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Event] = deque()

    @property
    def in_use(self) -> int:  # repro: noqa(ANA401) tests/test_resource_cancel.py
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def request(self) -> Event:
        env = self.env
        event = Event(env)
        if self._in_use < self.capacity:
            # Uncontended grant — ``event.succeed()`` inlined (one per
            # served call).
            self._in_use += 1
            event._value = None
            env._eid = eid = env._eid + 1
            env._normal.append((eid, event))
        else:
            self._queue.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        if self._queue:
            # Hand the slot directly to the next waiter.
            self._queue.popleft().succeed()
        else:
            self._in_use -= 1

    def cancel(self, event: Event) -> None:
        """Withdraw a queued request that has not been granted yet.

        Used by impatient requesters (e.g. call-setup deadlines).  A
        request that already holds the resource cannot be cancelled —
        release it instead.
        """
        if event.triggered:
            raise RuntimeError("cannot cancel a granted request; release it")
        try:
            self._queue.remove(event)
        except ValueError:
            raise RuntimeError("event is not a queued request") from None
        _unhook_conditions(event)

    def abandon(self) -> None:
        """Let the queued requests go ungranted (see :meth:`Event.abandon`)."""
        while self._queue:
            self._queue.pop().abandon()


class Collector:
    """Gathers tagged responses until all expected tags have reported.

    This models "wait UNTIL RESPONSE(...) is received from each node
    j ∈ IN_i": create a collector with the expected node ids, feed it
    ``deliver(tag, value)`` calls from the message handler, and yield
    ``done`` from the requesting process.  The event value is the dict
    {tag: value}.
    """

    def __init__(self, env: Environment, expected: Iterable[Any]) -> None:
        self.env = env
        self._expected = set(expected)
        self._responses: Dict[Any, Any] = {}
        self.done: Event = env.event()
        self._cancelled = False
        if not self._expected:
            self.done.succeed({})

    @property
    def outstanding(self) -> set:
        """Tags not yet delivered."""
        return self._expected - set(self._responses)

    @property
    def responses(self) -> Dict[Any, Any]:
        return dict(self._responses)

    def cancel(self) -> None:
        """Stop accepting deliveries; the done event never fires."""
        self._cancelled = True
        _unhook_conditions(self.done)

    def abandon(self) -> None:
        """Let whoever waits on ``done`` go (see :meth:`Event.abandon`)."""
        self.done.abandon()

    def deliver(self, tag: Any, value: Any) -> bool:
        """Record a response; returns True if this completed the set."""
        if self._cancelled or self.done.triggered:
            return False
        if tag not in self._expected:
            raise KeyError(f"unexpected response tag {tag!r}")
        if tag in self._responses:
            raise KeyError(f"duplicate response from {tag!r}")
        self._responses[tag] = value
        if len(self._responses) == len(self._expected):
            self.done.succeed(dict(self._responses))
            return True
        return False
