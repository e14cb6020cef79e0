"""Wall-clock span tracer wrapped around the public boundary of each layer.

Everything that observes the simulator from the benchmark lives here:
:func:`install` replaces the public entry points of every layer
(``build_simulation``, ``Environment.run/step/emit/subscribe``,
``Network.send``, ``MSS.on_message`` …) with timing wrappers and
:func:`uninstall` puts the originals back.  Nothing under ``src/``
knows about it; in-program hooks are a later change.

A span is one synchronous call (or one resumption of a wrapped
generator).  The tracer keeps a stack of open spans and aggregates,
per span name, the number of calls, the inclusive time and the *self*
time — the span's duration minus the part its child spans cover — so
the self times of all spans under a root add up to the root's duration
by construction.  Raw spans are retained for a bounded window and
written as Chrome trace-event JSON.

Self times include the wrappers' own cost (charged to whichever span
encloses the wrapper), so they attribute a traced run; absolute claims
come from untraced runs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "GeneratorProxy", "install", "uninstall", "chrome_trace"]

_INF = float("inf")

#: (span index, start, end, run id)
RawSpan = Tuple[int, float, float, int]


class Tracer:
    """Span stack, per-name aggregates and a bounded raw-span window."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        raw_limit: int = 50_000,
    ) -> None:
        self.clock = clock
        self.raw_limit = raw_limit
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        #: Per span name: completed spans (for a generator: resumptions).
        self.calls: List[int] = []
        #: Per span name: generators created (0 for plain functions).
        self.starts: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        #: Child-time accumulator of every open span; the sentinel at
        #: the bottom absorbs the root spans' durations.
        self._stack: List[float] = [0.0]
        #: The retained raw spans, in order of completion.
        self.raw_spans: List[RawSpan] = []
        #: One-slot holder read by every wrapper: the raw-span recorder
        #: while the window is open, None otherwise.
        self._sink: List[Optional[Callable[[int, float, float], None]]] = [None]
        #: Shared by the raw spans of one run (a fork bumps it).
        self.run_id = 0
        #: Free-form counts taken at the wrapped boundaries.
        self.counters: Dict[str, int] = {}

    # -- registration ------------------------------------------------------
    def register(self, name: str) -> int:
        """Index of span ``name`` (created on first use)."""
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.starts.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return idx

    # -- raw-span window ---------------------------------------------------
    def open_window(self) -> None:
        """Start retaining raw spans (until ``raw_limit`` are held)."""
        if len(self.raw_spans) < self.raw_limit:
            self._sink[0] = self._record

    def _record(self, idx: int, start: float, end: float) -> None:
        raw = self.raw_spans
        raw.append((idx, start, end, self.run_id))
        if len(raw) >= self.raw_limit:
            self._sink[0] = None

    # -- wrapping ----------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``on_result`` sees each return."""
        idx = self.register(name)
        stack, sink, clock = self._stack, self._sink, self.clock
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                end = clock()
                took = end - start
                self_s[idx] += took - stack.pop()
                calls[idx] += 1
                total_s[idx] += took
                stack[-1] += took
                record = sink[0]
                if record is not None:
                    record(idx, start, end)

        return wrapper

    def wrap_generator(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Generator function ``fn`` with every resumption timed as ``name``."""
        idx = self.register(name)
        starts = self.starts
        # A resumption is a call of the generator's send/throw/close.
        resume = self.wrap(lambda step, *args: step(*args), name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> "GeneratorProxy":
            starts[idx] += 1
            return GeneratorProxy(fn(*args, **kwargs), resume)

        return wrapper

    # -- aggregates --------------------------------------------------------
    def drain(self) -> Dict[str, Dict[str, float]]:
        """Aggregates since the last drain, by span name; then reset."""
        out: Dict[str, Dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            if self.calls[idx] or self.starts[idx]:
                out[name] = {
                    "calls": self.calls[idx],
                    "starts": self.starts[idx],
                    "self_s": self.self_s[idx],
                    "total_s": self.total_s[idx],
                }
            self.calls[idx] = self.starts[idx] = 0
            self.self_s[idx] = self.total_s[idx] = 0.0
        return out


class GeneratorProxy:
    """A generator seen through a tracer: same protocol, timed resumptions.

    ``yield from proxy`` forwards ``send``/``throw``/``close`` exactly as
    it would to the wrapped generator, and the introspection attributes
    (``gi_frame``, ``gi_code``, ``gi_yieldfrom`` …) read through, so code
    that walks a delegation chain (the snapshot codec does) sees the
    generator it expects.
    """

    __slots__ = ("_gen", "_resume")

    def __init__(self, gen: Any, resume: Callable[..., Any]) -> None:
        self._gen = gen
        self._resume = resume

    def __iter__(self) -> "GeneratorProxy":
        return self

    def __next__(self) -> Any:
        return self._resume(self._gen.__next__)

    def send(self, value: Any) -> Any:
        return self._resume(self._gen.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._resume(self._gen.throw, *exc)

    def close(self) -> None:
        return self._resume(self._gen.close)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._gen, name)


# ---------------------------------------------------------------------------
# Patching the simulator's public boundary
# ---------------------------------------------------------------------------
#: (owner, attribute, raw original) — what uninstall puts back.
Undo = List[Tuple[Any, str, Any]]


def _set(undo: Undo, owner: Any, attr: str, value: Any) -> None:
    undo.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, value)


def _patch_method(
    tracer: Tracer, undo: Undo, cls: type, attr: str, name: str,
    generator: bool = False,
    on_result: Optional[Callable[[Any], None]] = None,
) -> None:
    """Wrap ``cls.attr`` where ``cls`` itself defines it."""
    raw = vars(cls).get(attr)
    if raw is None:
        return  # inherited: the defining class carries the wrapper
    if isinstance(raw, classmethod):
        wrapped: Any = classmethod(tracer.wrap(raw.__func__, name, on_result))
    elif generator:
        wrapped = tracer.wrap_generator(raw, name)
    else:
        wrapped = tracer.wrap(raw, name, on_result)
    _set(undo, cls, attr, wrapped)


def _patch_function(
    tracer: Tracer, undo: Undo, fn: Callable[..., Any], name: str,
    generator: bool = False,
    on_result: Optional[Callable[[Any], None]] = None,
) -> None:
    """Wrap module-level ``fn`` in every ``repro`` namespace that holds it
    (``from .calls import call_process`` copies the reference)."""
    wrapped = (
        tracer.wrap_generator(fn, name) if generator
        else tracer.wrap(fn, name, on_result)
    )
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                _set(undo, module, attr, wrapped)


def _stepping_run(tracer: Tracer, stock_run: Callable[..., Any]) -> Callable[..., Any]:
    """``Environment.run`` with its events driven through the public ``step()``.

    The stock ``run`` inlines its event loop, so a wrapped ``step`` would
    never see an event.  Here every event due before the stop is stepped
    through the public ``peek()``/``step()`` loop, sampling the heap depth
    on the way, and the stock ``run`` finishes: it lands the clock on a
    numeric ``until``, returns the value of an event ``until``, and
    raises what it always raises.
    """
    from repro.sim.events import Event

    counters = tracer.counters

    def run(self: Any, until: Any = None) -> Any:
        if isinstance(until, Event):
            def due() -> bool:
                return not until.processed and self.peek() != _INF
        else:
            # The stock stop event runs ahead of every event scheduled
            # at the same time, hence strictly before.
            stop_at = _INF if until is None else float(until)

            def due() -> bool:
                return self.peek() < stop_at
        peak = counters.get("heap_peak", 0)
        try:
            while due():
                depth = len(self)
                if depth > peak:
                    peak = depth
                self.step()
        finally:
            counters["heap_peak"] = peak
        return stock_run(self, until)

    return run


def _patch_subscriptions(tracer: Tracer, undo: Undo, env_cls: type) -> None:
    """Time probe subscribers: ``subscribe`` registers a wrapped callback
    and ``unsubscribe`` translates back to it."""
    subscribe, unsubscribe = env_cls.subscribe, env_cls.unsubscribe
    wrapped_by_key: Dict[Tuple[int, str, Any], List[Callable[..., Any]]] = {}

    def traced_subscribe(self: Any, kind: str, callback: Callable[..., Any]) -> None:
        wrapped = tracer.wrap(callback, "obs.callback")
        wrapped_by_key.setdefault((id(self), kind, callback), []).append(wrapped)
        subscribe(self, kind, wrapped)

    def traced_unsubscribe(self: Any, kind: str, callback: Callable[..., Any]) -> None:
        wrapped = wrapped_by_key.get((id(self), kind, callback))
        unsubscribe(self, kind, wrapped.pop() if wrapped else callback)

    _set(undo, env_cls, "subscribe", traced_subscribe)
    _set(undo, env_cls, "unsubscribe", traced_unsubscribe)


def install(tracer: Tracer) -> Undo:
    """Wrap the public boundary of every layer; returns the undo list.

    Call after the workload's own imports and before anything is built:
    wrappers are found through class and module attributes, so objects
    built afterwards resolve to them.
    """
    import repro.__main__ as cli
    from repro import snap
    from repro.cellular import CellularTopology
    from repro.core.nfc import NFCWindow
    from repro.faults import FaultInjector
    from repro.faults.arq import DedupFilter, ReliableLink
    from repro.harness import runner
    from repro.metrics import MetricsCollector
    from repro.obs import artifacts
    from repro.policies.base import policy_names, policy_spec
    from repro.protocols import MSS, InterferenceMonitor
    from repro.sim import Environment, Network
    from repro.traffic import calls

    undo: Undo = []
    counters = tracer.counters

    def method(cls: type, attr: str, name: str, **kw: Any) -> None:
        _patch_method(tracer, undo, cls, attr, name, **kw)

    def function(fn: Callable[..., Any], name: str, **kw: Any) -> None:
        _patch_function(tracer, undo, fn, name, **kw)

    # harness / host
    function(cli.main, "main")
    function(runner.build_simulation, "harness.build")
    method(runner.Simulation, "run", "harness.run")
    method(runner.Report, "from_simulation", "harness.report")
    # cellular
    method(CellularTopology, "__init__", "cellular.build")
    # sim.engine
    _set(undo, Environment, "run", tracer.wrap(_stepping_run(tracer, Environment.run), "sim.engine.run"))
    method(Environment, "step", "sim.engine.step")
    method(Environment, "emit", "sim.engine.emit")
    _patch_subscriptions(tracer, undo, Environment)
    # sim.network
    method(Network, "send", "sim.network.send")
    # protocols (every scheme class, so overriding subclasses are covered)
    station_classes: List[type] = []
    for scheme in runner.SCHEMES.values():
        for cls in scheme.__mro__:
            if issubclass(cls, MSS) and cls not in station_classes:
                station_classes.append(cls)
    for cls in station_classes:
        method(cls, "__init__", "protocols.station_init")
        method(cls, "start", "protocols.station_init")
        method(cls, "on_message", "protocols.handler")
        method(cls, "request_channel", "protocols.request", generator=True)
        method(cls, "release_channel", "protocols.release")
    method(InterferenceMonitor, "acquired", "protocols.monitor")
    method(InterferenceMonitor, "released", "protocols.monitor")
    # traffic
    function(calls.call_process, "traffic.call", generator=True)
    # core / policies
    for attr in ("add", "predict", "get"):
        method(NFCWindow, attr, "core.nfc")

    def count_useful(answer: Any) -> None:
        if answer is not None:
            counters["decide_useful"] = counters.get("decide_useful", 0) + 1

    for policy in policy_names():
        method(policy_spec(policy), "decide", "policies.decide", on_result=count_useful)
    # metrics: the warm-up boundary also opens the raw-span window
    for attr in sorted(vars(MetricsCollector)):
        if attr.startswith("record_"):
            method(MetricsCollector, attr, "metrics.record")
    baseline = MetricsCollector.snapshot_message_baseline

    def traced_baseline(self: Any, network: Any) -> None:
        tracer.open_window()
        baseline(self, network)

    _set(undo, MetricsCollector, "snapshot_message_baseline", traced_baseline)
    # faults
    for attr in ("filter_send", "deliverable", "install"):
        method(FaultInjector, attr, "faults.injector")
    for attr in ("send", "on_ack", "flush"):
        method(ReliableLink, attr, "faults.arq")
    for attr in ("accept", "reset"):
        method(DedupFilter, attr, "faults.arq")
    # obs
    function(artifacts.write_run_artifacts, "obs.artifacts")
    function(artifacts.write_manifest, "obs.artifacts")
    # snap
    function(snap.checkpoint, "snap.capture")
    for attr in ("content_hash", "to_bytes"):
        method(snap.Snapshot, attr, "snap.encode")

    def next_run(_sim: Any) -> None:
        tracer.run_id += 1

    function(snap.restore, "snap.restore", on_result=next_run)
    return undo


def uninstall(undo: Undo) -> None:
    """Put back every attribute :func:`install` replaced."""
    while undo:
        owner, attr, raw = undo.pop()
        setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# Chrome trace-event output
# ---------------------------------------------------------------------------
def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The retained raw spans as Chrome trace-event JSON (Perfetto opens it).

    Spans are recorded as they *end*; parent ids are recovered here from
    interval nesting (one thread, so spans nest properly).  A span whose
    parent ended outside the window has parent id ``None``.
    """
    spans = sorted(tracer.raw_spans, key=lambda s: (s[1], -s[2]))
    events: List[Dict[str, Any]] = []
    open_spans: List[Tuple[int, float]] = []  # (span id, end)
    origin = spans[0][1] if spans else 0.0
    for span_id, (idx, start, end, run_id) in enumerate(spans):
        while open_spans and open_spans[-1][1] < end:
            open_spans.pop()
        parent = open_spans[-1][0] if open_spans else None
        open_spans.append((span_id, end))
        events.append({
            "name": tracer.names[idx],
            "cat": tracer.names[idx].rsplit(".", 1)[0],
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": run_id,
            "tid": 0,
            "args": {"id": span_id, "parent": parent, "run": run_id},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh)
        fh.write("\n")
