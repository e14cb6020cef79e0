"""Per-layer metrics and the self-time ledger, from a traced child's spans.

The traced child reports, per span name, calls / generator starts /
self time / inclusive time for its set-up and its run phase (see
:class:`bench.trace.Tracer`).  This module turns them into the named
per-layer metrics of ``BENCHMARK.json`` and into the ledger: self time
per layer over the run phase, which sums to the traced run wall.
"""

from __future__ import annotations

from typing import Any, Dict

Spans = Dict[str, Dict[str, float]]

_ZERO = {"calls": 0, "starts": 0, "self_s": 0.0, "total_s": 0.0}


def layer_of(span: str) -> str:
    """The layer (a ``repro`` module name, or ``host``) a span belongs to."""
    if span == "main":
        return "harness"
    parts = span.split(".")
    return ".".join(parts[:2]) if parts[0] == "sim" else parts[0]


def ledger(run: Spans) -> Dict[str, Dict[str, float]]:
    """Self time and share of the traced run wall, per layer."""
    self_s: Dict[str, float] = {}
    for span, agg in run.items():
        layer = layer_of(span)
        self_s[layer] = self_s.get(layer, 0.0) + agg["self_s"]
    wall = sum(self_s.values())
    return {
        layer: {"self_s": value, "share": value / wall if wall else 0.0}
        for layer, value in sorted(self_s.items(), key=lambda kv: -kv[1])
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: Dict[str, Any], baseline: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric by name.

    ``traced`` is the traced child's result; ``baseline`` holds the
    untraced medians (``run_wall_s``, ``run_cpu_s``) that anchor the
    ratios.  A layer the workload never enters reads zero.
    """
    setup: Spans = traced["setup_spans"]
    run: Spans = traced["run_spans"]
    counters = traced["counters"]

    def of(spans: Spans, span: str, field: str) -> float:
        return spans.get(span, _ZERO)[field]

    def both(span: str, field: str) -> float:
        return of(setup, span, field) + of(run, span, field)

    events = of(run, "sim.engine.step", "calls")
    sends = of(run, "sim.network.send", "calls")
    decides = of(run, "policies.decide", "calls")
    main_s = of(run, "main", "total_s")
    artifacts_s = of(run, "obs.artifacts", "total_s")
    m = {
        "host.import_s": traced["import_s"],
        "host.run_cpu_s": baseline["run_cpu_s"],
        "host.trace_overhead_ratio": _ratio(
            traced["run_wall_s"], baseline["run_wall_s"]
        ),
        "harness.build_s": both("harness.build", "total_s"),
        "harness.report_s": of(run, "harness.report", "total_s"),
        "main.overhead_s": (
            main_s
            - of(run, "harness.build", "total_s")
            - of(run, "harness.run", "total_s")
            - artifacts_s
        ) if main_s else 0.0,
        "cellular.build_s": both("cellular.build", "total_s"),
        "protocols.station_init_s": both("protocols.station_init", "self_s"),
        "protocols.request.calls": (
            of(run, "protocols.request", "starts")
            + of(run, "protocols.release", "calls")
        ),
        "protocols.request_self_s": (
            of(run, "protocols.request", "self_s")
            + of(run, "protocols.release", "self_s")
        ),
        "protocols.handler.calls": of(run, "protocols.handler", "calls"),
        "protocols.handler_self_s": of(run, "protocols.handler", "self_s"),
        "protocols.monitor.calls": of(run, "protocols.monitor", "calls"),
        "protocols.monitor_self_s": of(run, "protocols.monitor", "self_s"),
        "sim.engine.events": events,
        "sim.engine.events_per_s": _ratio(events, baseline["run_wall_s"]),
        "sim.engine.dispatch_self_s": (
            of(run, "sim.engine.step", "self_s")
            + of(run, "sim.engine.run", "self_s")
        ),
        "sim.engine.emit.calls": of(run, "sim.engine.emit", "calls"),
        "sim.engine.emit_self_s": of(run, "sim.engine.emit", "self_s"),
        "sim.engine.heap_peak": counters.get("heap_peak", 0),
        "sim.network.send.calls": sends,
        "sim.network.send_self_s": of(run, "sim.network.send", "self_s"),
        "sim.network.messages_per_event": _ratio(sends, events),
        "core.nfc.calls": of(run, "core.nfc", "calls"),
        "core.nfc_self_s": of(run, "core.nfc", "self_s"),
        "policies.decide.calls": decides,
        "policies.decide_self_s": of(run, "policies.decide", "self_s"),
        "policies.useful_ratio": _ratio(counters.get("decide_useful", 0), decides),
        "traffic.call.calls": of(run, "traffic.call", "starts"),
        "traffic.call_self_s": of(run, "traffic.call", "self_s"),
        "metrics.record.calls": of(run, "metrics.record", "calls"),
        "metrics.record_self_s": of(run, "metrics.record", "self_s"),
        "faults.injector.calls": of(run, "faults.injector", "calls"),
        "faults.injector_self_s": of(run, "faults.injector", "self_s"),
        "faults.arq.calls": of(run, "faults.arq", "calls"),
        "faults.arq_self_s": of(run, "faults.arq", "self_s"),
        "faults.retry_ratio": _ratio(traced.get("retries", 0), sends),
        "obs.callback.calls": of(run, "obs.callback", "calls"),
        "obs.callback_self_s": of(run, "obs.callback", "self_s"),
        "obs.spans": traced.get("obs_spans", 0),
        "obs.artifacts_s": artifacts_s,
        "snap.capture_s": of(run, "snap.capture", "total_s"),
        "snap.restore.calls": of(run, "snap.restore", "calls"),
        "snap.restore_s": of(run, "snap.restore", "total_s"),
        "snap.bytes": traced.get("snapshot_bytes", 0),
        "analysis.erlang_b_abs_err": traced.get("erlang_b_abs_err", 0.0),
    }
    return m


def exact_metrics(metrics: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics that must repeat exactly (calls and counts)."""
    exact = ("sim.engine.events", "sim.engine.heap_peak", "obs.spans", "snap.bytes")
    return {
        name: value for name, value in metrics.items()
        if name.endswith(".calls") or name in exact
    }
