"""Run-artifact writer: one self-contained directory per observed run.

:func:`write_run_artifacts` turns a finished
:class:`~repro.harness.runner.Report` whose ``obs`` field carries
:class:`~repro.obs.observer.ObsData` into a run directory::

    <dir>/
      scenario.json    # the exact Scenario that ran (reproducible)
      trace.json       # Chrome trace_event JSON — load in Perfetto
                       # (ui.perfetto.dev) or chrome://tracing
      timeseries.csv   # per-cell samples, long form (spreadsheet-ready)
      timeseries.json  # the same series, nested by cell
      kernel.json      # DES-kernel vitals (events/s, heap depth, ...)
      report.md        # human-readable run report: summary, Table 1-
                       # style cost breakdown, ASCII mode timeline
      manifest.json    # file inventory for tooling

The trace uses **1 simulated time unit = 1 ms** (`ts` is microseconds
in the trace_event spec, sim times are multiplied by 1000), one thread
per cell.  See docs/OBSERVABILITY.md for the full format spec and a
walkthrough of reading a run directory.

This module imports only plain-data structures at module level; the
analytical model (``repro.analysis``) is imported lazily inside the
report writer so the obs package stays import-light and cycle-free.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .timeseries import borrowing_fraction, mode_timeline

__all__ = ["trace_events", "write_run_artifacts", "write_manifest"]

#: Trace timestamp scale: simulated time units -> trace microseconds.
#: 1000 makes one unit of T read as one millisecond in Perfetto.
TRACE_SCALE = 1000.0

#: How many cells the report's ASCII mode timeline shows (the busiest
#: borrowers, picked deterministically).
TIMELINE_CELLS = 12


# ---------------------------------------------------------------------------
# Chrome trace_event generation
# ---------------------------------------------------------------------------
def trace_events(report: Any) -> List[Dict[str, Any]]:  # repro: noqa(ANA401) docs/OBSERVABILITY.md
    """Flatten a report's ObsData into Chrome trace_event dicts."""
    return list(_iter_trace_events(report))


def _iter_trace_events(report: Any) -> Iterator[Dict[str, Any]]:
    """The events of :func:`trace_events`, one at a time: the writer
    encodes each as it comes, so the full list never exists."""
    obs = report.obs
    scenario = report.scenario
    yield {
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "name": "process_name",
        "args": {
            "name": f"{scenario.scheme} load={scenario.offered_load} "
            f"seed={scenario.seed}"
        },
    }
    cells = sorted(
        {span["cell"] for span in obs.spans}
        | {int(c) for c in obs.series.get("cells", {})}
    )
    for cell in cells:
        yield {
            "ph": "M",
            "pid": 0,
            "tid": cell,
            "name": "thread_name",
            "args": {"name": f"cell {cell}"},
        }

    for span in obs.spans + obs.open_spans:
        t_begin = span["t_begin"]
        t_end = span["t_end"] if span["t_end"] is not None else t_begin
        name = f"acquire[{span['kind']}]"
        yield {
            "ph": "X",
            "pid": 0,
            "tid": span["cell"],
            "name": name,
            "cat": "acquisition",
            "ts": t_begin * TRACE_SCALE,
            "dur": (t_end - t_begin) * TRACE_SCALE,
            "args": {
                "req_id": span["req_id"],
                "channel": span["channel"],
                "granted": span["granted"],
                "closed": span["t_end"] is not None,
            },
        }
        if span["t_serve"] is not None and t_end >= span["t_serve"]:
            yield {
                "ph": "X",
                "pid": 0,
                "tid": span["cell"],
                "name": "serve",
                "cat": "acquisition",
                "ts": span["t_serve"] * TRACE_SCALE,
                "dur": (t_end - span["t_serve"]) * TRACE_SCALE,
                "args": {"req_id": span["req_id"]},
            }
        for t, kind, detail in span["events"]:
            yield {
                "ph": "i",
                "pid": 0,
                "tid": span["cell"],
                "name": kind,
                "cat": "protocol",
                "ts": t * TRACE_SCALE,
                "s": "t",
                "args": {"detail": detail},
            }
    for t, kind, cell, detail in obs.instants:
        if cell is None:
            continue
        yield {
            "ph": "i",
            "pid": 0,
            "tid": cell,
            "name": kind,
            "cat": "protocol",
            "ts": t * TRACE_SCALE,
            "s": "t",
            "args": {"detail": detail},
        }

    # System-wide counters: total occupancy and borrowing cells per
    # sample (deterministic), heap depth from the kernel profiler.
    series = obs.series
    if series.get("times"):
        cell_series = series["cells"]
        for i, t in enumerate(series["times"]):
            total = sum(c["occupancy"][i] for c in cell_series.values())
            borrowing = sum(
                1 for c in cell_series.values() if c["mode"][i] > 0
            )
            yield {
                "ph": "C",
                "pid": 0,
                "tid": 0,
                "name": "system",
                "ts": t * TRACE_SCALE,
                "args": {
                    "channels_in_use": total,
                    "cells_borrowing": borrowing,
                },
            }
    kernel = obs.kernel
    if kernel.get("sim_times"):
        for t, depth in zip(kernel["sim_times"], kernel["heap_depth"]):
            yield {
                "ph": "C",
                "pid": 0,
                "tid": 0,
                "name": "kernel",
                "ts": t * TRACE_SCALE,
                "args": {"heap_depth": depth},
            }


# ---------------------------------------------------------------------------
# Markdown report
# ---------------------------------------------------------------------------
def _md_table(headers: List[str], rows: List[List[Any]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return lines


def _model_prediction(report: Any) -> Optional[Dict[str, float]]:
    """Table 1 model columns at the run's measured parameters.

    Evaluates the §5 formulas with m, ξ and N_borrow measured from
    this run (``SchemeModel.measured_params``).  Returns None when the
    scheme has no model or the measured parameters fall outside the
    model's domain (e.g. a run too short to ground ξ).
    """
    from ..analysis import MODELS  # lazy: keeps obs light

    model = MODELS.get(report.scenario.scheme)
    if model is None:
        return None
    try:
        params = model.measured_params(report, _region_size(report.scenario))
    except ValueError:
        return None
    return {
        "messages": model.message_complexity(params),
        "time": model.acquisition_time(params),
        "m": params.m,
        "xi1": params.xi1,
        "xi2": params.xi2,
        "xi3": params.xi3,
    }


def _region_size(scenario: Any) -> float:
    """Mean interference-region size |IN| of the scenario's topology."""
    from ..cellular import topology_for  # lazy

    topo = topology_for(scenario)
    sizes = [len(topo.IN(cell)) for cell in topo.grid]
    return sum(sizes) / len(sizes) if sizes else 0.0


def _mode_timeline(series: Dict[str, Any]) -> List[str]:
    """Fenced ASCII mode timeline of the busiest borrowers."""
    cells = series["cells"]
    ranked = sorted(
        cells, key=lambda c: (-borrowing_fraction(cells[c]["mode"]), int(c))
    )
    return ["```", *mode_timeline(series, ranked[:TIMELINE_CELLS]), "```"]


def _render_report_md(report: Any) -> str:
    obs = report.obs
    s = report.scenario
    xi = report.xi
    lines = [
        f"# Run report — {s.scheme}",
        "",
        f"*Generated by `repro.obs` from a traced run "
        f"(seed {s.seed}, {s.offered_load} Erlang/cell, "
        f"duration {s.duration:g}, warmup {s.warmup:g}).  "
        "See docs/OBSERVABILITY.md for how to read this directory.*",
        "",
        "## Summary",
        "",
    ]
    lines += _md_table(
        ["metric", "value"],
        [
            ["requests offered", report.offered],
            ["granted", report.granted],
            ["drop rate", f"{report.drop_rate:.4f}"],
            ["new-call block rate", f"{report.new_call_block_rate:.4f}"],
            ["handoff failure rate", f"{report.handoff_failure_rate:.4f}"],
            ["mean acquisition time (T)", f"{report.mean_acquisition_time:.3f}"],
            ["p95 acquisition time (T)", f"{report.p95_acquisition_time:.3f}"],
            ["messages per acquisition", f"{report.messages_per_acquisition:.2f}"],
            ["mean attempts (m)", f"{report.mean_attempts:.2f}"],
            ["mode changes", report.mode_changes],
            ["fairness index", f"{report.fairness_index:.4f}"],
            ["interference violations", report.violations],
        ],
    )
    lines += [
        "",
        "## Cost breakdown (paper Table 1 columns)",
        "",
        "Model columns evaluate the paper's §5 closed forms at this "
        "run's measured parameters (m, ξ, N_borrow); sim columns are "
        "measured end to end.",
        "",
    ]
    prediction = _model_prediction(report)
    if prediction is not None:
        lines += _md_table(
            [
                "scheme",
                "msgs (model)",
                "msgs (sim)",
                "time (model)",
                "time (sim)",
                "m",
                "ξ1",
                "ξ2",
                "ξ3",
            ],
            [
                [
                    s.scheme,
                    round(prediction["messages"], 1),
                    round(report.messages_per_acquisition, 1),
                    round(prediction["time"], 2),
                    round(report.mean_acquisition_time, 2),
                    round(prediction["m"], 2),
                    round(prediction["xi1"], 3),
                    round(prediction["xi2"], 3),
                    round(prediction["xi3"], 3),
                ]
            ],
        )
    else:
        lines += _md_table(
            ["scheme", "msgs (sim)", "time (sim)", "m", "ξ1", "ξ2", "ξ3"],
            [
                [
                    s.scheme,
                    round(report.messages_per_acquisition, 1),
                    round(report.mean_acquisition_time, 2),
                    round(report.mean_attempts, 2),
                    round(xi["local"], 3),
                    round(xi["update"], 3),
                    round(xi["search"], 3),
                ]
            ],
        )
        lines += ["", "(no analytical model for this run's parameters)"]

    lane = getattr(report, "fastlane", None)
    if lane:
        promotions = lane.get("promotions", {})
        lines += [
            "",
            "## Fast lane (model vs sim divergence)",
            "",
            "Fluid cells were advanced analytically (Erlang-loss model) "
            "instead of event by event; this table bounds how far the "
            "fluid model drifted from the discrete dynamics it replaced "
            "(see DESIGN.md's fast-lane section).",
            "",
        ]
        lines += _md_table(
            ["metric", "value"],
            [
                ["fluid fraction (cell-time)", f"{lane['fluid_fraction']:.3f}"],
                ["demotions", lane["demotions"]],
                [
                    "promotions (message/spike/borrow)",
                    "/".join(
                        str(promotions.get(r, 0))
                        for r in ("message", "spike", "borrow")
                    ),
                ],
                ["fluid arrivals", lane["arrivals"]],
                ["fluid blocked", lane["blocked"]],
                ["calls materialized", lane["materialized"]],
                ["calls shed at materialization", lane["shed"]],
                ["block rate (fluid measured)", f"{lane['measured_block_rate']:.4f}"],
                ["block rate (Erlang-B model)", f"{lane['model_block_rate']:.4f}"],
                ["block rate |Δ|", f"{lane['block_rate_abs_err']:.4f}"],
                ["occupancy at promotion (mean)", f"{lane['occupancy_mean']:.3f}"],
                ["occupancy model (carried load)", f"{lane['occupancy_model_mean']:.3f}"],
                ["occupancy |Δ|", f"{lane['occupancy_abs_err']:.3f}"],
            ],
        )

    stats = obs.span_stats
    lines += [
        "",
        "## Acquisition spans",
        "",
        f"{stats.get('opened', 0)} spans opened, "
        f"{stats.get('closed', 0)} closed "
        f"({len(obs.open_spans)} still open at the horizon, "
        f"{stats.get('dropped', 0)} over the retention cap, "
        f"{stats.get('orphan_children', 0)} events outside any span).  "
        "Full detail in `trace.json` — open it at "
        "<https://ui.perfetto.dev>.",
    ]

    lines += ["", "## Mode timeline (busiest borrowers)", ""]
    lines += _mode_timeline(obs.series)

    kernel = obs.kernel
    rates = [r for r in kernel.get("events_per_s", []) if r]
    occ = [o for o in kernel.get("occupancy", []) if o is not None]
    lines += [
        "",
        "## Kernel vitals",
        "",
        "*(events and heap depth are deterministic; the rate and "
        "occupancy columns are wall-clock measurements and vary "
        "run to run)*",
        "",
    ]
    lines += _md_table(
        ["metric", "value"],
        [
            ["events processed", kernel.get("total_events", 0)],
            ["max heap depth", kernel.get("max_heap_depth", 0)],
            [
                "events/s (median interval)",
                sorted(rates)[len(rates) // 2] if rates else "n/a",
            ],
            [
                "event-loop occupancy (median)",
                sorted(occ)[len(occ) // 2] if occ else "n/a",
            ],
        ],
    )

    if report.faults_injected:
        lines += ["", "## Faults", ""]
        lines += _md_table(
            ["kind", "injected"],
            [[k, v] for k, v in sorted(report.faults_injected.items())],
        )
        lines += [
            "",
            f"{sum(report.faults_recovered.values())} recovered, "
            f"{report.retries} ARQ retries "
            f"({report.retry_exhausted} exhausted).",
        ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV / JSON series
# ---------------------------------------------------------------------------
def _series_csv(obs: Any) -> Iterator[str]:
    """``timeseries.csv``, line by line."""
    yield "time,cell,occupancy,mode,nfc_predicted,neighborhood_load\n"
    series = obs.series
    times = series.get("times") or []
    for cell in sorted(series.get("cells", {}), key=int):
        data = series["cells"][cell]
        for i, t in enumerate(times):
            nfc = data["nfc_predicted"][i]
            yield (
                f"{t:g},{cell},{data['occupancy'][i]},{data['mode'][i]},"
                f"{'' if nfc is None else round(nfc, 4)},"
                f"{data['neighborhood_load'][i]}\n"
            )


def _trace_json(report: Any) -> Iterator[str]:
    """``trace.json``, piece by piece: one compact event per line.

    ``json.dump(..., indent=2)`` runs the pure-Python encoder over the
    materialised event list; one ``encode`` call per event stays in the
    C encoder and holds one event at a time.  Same ``trace_event``
    content either way — Perfetto loads it unchanged.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    yield '{"displayTimeUnit": "ms", "traceEvents": [\n'
    separator = ""
    for event in _iter_trace_events(report):
        yield separator + encode(event)
        separator = ",\n"
    yield "\n]}\n"


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def write_run_artifacts(report: Any, out_dir: str) -> List[str]:
    """Write the full artifact set for one traced report.

    Returns the (sorted) relative names of the files written.  Raises
    ``ValueError`` if the report carries no ObsData — the run was not
    traced, so there is nothing to write.
    """
    if getattr(report, "obs", None) is None:
        raise ValueError(
            "report has no observability data; run with an enabled "
            "Scenario.obs (e.g. --trace) first"
        )
    os.makedirs(out_dir, exist_ok=True)
    obs = report.obs
    written: List[str] = []

    def write(name: str, pieces: Iterable[str]) -> None:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.writelines(pieces)
        written.append(name)

    def indented(data: Any) -> Tuple[str, str]:
        """The small JSON files, written for reading."""
        return json.dumps(data, indent=2, sort_keys=True), "\n"

    write("scenario.json", indented(json.loads(report.scenario.to_json())))
    write("trace.json", _trace_json(report))
    write("timeseries.csv", _series_csv(obs))
    write("timeseries.json", indented(obs.series))
    write("kernel.json", indented(obs.kernel))
    write("report.md", (_render_report_md(report),))
    manifest = {
        "files": sorted(written),
        "scheme": report.scenario.scheme,
        "seed": report.scenario.seed,
        "spans": obs.span_stats,
    }
    write("manifest.json", indented(manifest))
    return sorted(written)


def write_manifest(trace_dir: str, entries: List[Dict[str, Any]]) -> str:
    """Write the top-level manifest of a multi-cell trace directory."""
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump({"cells": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
