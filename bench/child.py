"""One benchmark operation: import, build, run one workload; report JSON.

Run as ``python -m bench.child '<json request>'`` by :mod:`bench.runner`
in a fresh interpreter with ``src`` on ``PYTHONPATH``.  The request
holds ``workload``, ``seed``, ``quick``, ``traced``, ``cold``,
``spawned_at`` (the parent's ``time.monotonic()`` just before the
spawn — CLOCK_MONOTONIC is system-wide on Linux, so the child can
subtract it) and ``work_dir``.  The last line of stdout is the result.

The untraced path imports nothing beyond what the workload itself
needs (no argparse, no tracer) so ``setup_s`` is the simulator's
set-up, not the benchmark's.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout
from typing import Any, Callable, Dict, List, Tuple

from .spec import load_workload

#: The simulated statistics a run is identified by (Report fields).
FINGERPRINT_FIELDS = (
    "offered", "granted", "drop_rate", "mean_acquisition_time",
    "messages_total", "violations", "calls_completed",
)


def fingerprint(report: Any) -> Dict[str, Any]:
    return {name: getattr(report, name) for name in FINGERPRINT_FIELDS}


def balance_row(report: Any) -> List[int]:
    return [report.offered, report.granted, report.dropped, report.violations]


def _prepare_simulation(scenario: Any, request: Dict[str, Any]) -> Tuple[Callable, Callable]:
    from repro.harness import build_simulation

    sim = build_simulation(scenario)
    if sim.sanitizers is not None:
        raise RuntimeError("sanitizer suite attached: not the production path")

    def facts(report: Any) -> Dict[str, Any]:
        out = {
            "fingerprint": fingerprint(report),
            "rows": [balance_row(report)],
            "new_call_block_rate": report.new_call_block_rate,
            "retries": report.retries,
            "faults_recovered": sum(report.faults_recovered.values()),
        }
        if scenario.scheme == "fixed":
            from repro.analysis.erlang import erlang_b

            servers = len(sim.topo.PR(0))
            out["erlang_b_abs_err"] = abs(
                report.new_call_block_rate
                - erlang_b(scenario.offered_load, servers)
            )
        return out

    return sim.run, facts


def _prepare_cli(scenario: Any, request: Dict[str, Any]) -> Tuple[Callable, Callable]:
    import repro.__main__ as cli

    config = os.path.join(request["work_dir"], "scenario.json")
    trace_dir = os.path.join(request["work_dir"], "trace")
    with open(config, "w") as fh:
        fh.write(scenario.to_json())
    argv = ["--config", config, "--trace", trace_dir, "--json", "--no-cache"]

    def run() -> Tuple[str, List[Any]]:
        # main() prints report_dict rows, which lack granted, dropped and
        # calls_completed: keep the reports run_cells hands it as well.
        # stderr carries the CLI's "artifacts written" notice; the
        # parent keeps it in a file.
        reports: List[Any] = []
        run_cells = cli.run_cells

        def recording_run_cells(*args: Any, **kwargs: Any) -> List[Any]:
            reports.extend(run_cells(*args, **kwargs))
            return reports

        out = io.StringIO()
        cli.run_cells = recording_run_cells
        try:
            with redirect_stdout(out):
                code = cli.main(argv)
        finally:
            cli.run_cells = run_cells
        if code != 0:
            raise RuntimeError(f"python -m repro exited with {code}")
        return out.getvalue(), reports

    def facts(result: Tuple[str, List[Any]]) -> Dict[str, Any]:
        stdout, (report,) = result
        (row,) = json.loads(stdout)
        if row != json.loads(json.dumps(cli.report_dict(report))):
            raise RuntimeError("the printed row is not the report's")
        with open(os.path.join(trace_dir, "manifest.json")) as fh:
            (cell,) = json.load(fh)["cells"]
        cell_dir = os.path.join(trace_dir, cell["dir"])
        loaded = {}
        for name in ("manifest.json", "trace.json", "timeseries.json"):
            with open(os.path.join(cell_dir, name)) as fh:
                loaded[name] = json.load(fh)
        return {
            "fingerprint": fingerprint(report),
            "rows": [balance_row(report)],
            "artifacts_ok": bool(
                loaded["trace.json"]["traceEvents"] and loaded["timeseries.json"]
            ),
            "obs_spans": loaded["manifest.json"]["spans"].get("closed", 0),
        }

    return run, facts


def _prepare_fork(scenario: Any, request: Dict[str, Any]) -> Tuple[Callable, Callable]:
    from repro.snap import fork_replications, run_to_checkpoint

    plan = request["fork"]

    def run() -> Tuple[Any, List[Any]]:
        snapshot = run_to_checkpoint(scenario, plan["at"])
        return snapshot, fork_replications(snapshot, plan["n"], cache=False)

    def facts(result: Tuple[Any, List[Any]]) -> Dict[str, Any]:
        snapshot, reports = result
        return {
            # Fork seed 0 is an exact continuation: its row must equal
            # the cold run's (the parent compares it with the golden).
            "fingerprint": {
                **fingerprint(reports[0]),
                "forks": len(reports),
                "forks_offered": sum(r.offered for r in reports),
                "forks_messages": sum(r.messages_total for r in reports),
                "snapshot_hash": snapshot.content_hash()[:16],
            },
            "rows": [balance_row(r) for r in reports],
            "snapshot_bytes": len(snapshot.to_bytes()),
        }

    return run, facts


PREPARE = {
    "simulation": _prepare_simulation,
    "cli": _prepare_cli,
    "fork": _prepare_fork,
}
#: What a workload kind imports beyond ``repro.harness`` (part of set-up).
MODULES = {"simulation": (), "cli": ("repro.__main__",), "fork": ("repro.snap",)}


def main(argv: List[str]) -> int:
    request = json.loads(argv[0])
    workload = load_workload(request["workload"], request["quick"])
    request["fork"] = workload["fork"]
    # The cold reference of a fork workload is the plain run of its scenario.
    kind = "simulation" if request.get("cold") else workload["kind"]

    t0 = time.perf_counter()
    from repro.harness import Scenario

    for module in MODULES[kind]:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0
    fields = dict(workload["scenario"], seed=request["seed"])
    scenario = Scenario.from_dict(fields)
    tracer = None
    if request["traced"]:
        from . import trace

        tracer = trace.Tracer()
        undo = trace.install(tracer)
        # The two root spans: whatever no layer claims is the host's.
        run, facts = tracer.wrap(PREPARE[kind], "host.setup")(scenario, request)
        run = tracer.wrap(run, "host.run")
        setup_spans = tracer.drain()
    else:
        run, facts = PREPARE[kind](scenario, request)
    setup_s = time.monotonic() - request["spawned_at"]

    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = run()
    run_wall_s = time.perf_counter() - wall0
    run_cpu_s = time.process_time() - cpu0

    out = {
        "setup_s": setup_s, "run_wall_s": run_wall_s, "run_cpu_s": run_cpu_s,
        "import_s": import_s,
    }
    if tracer is not None:
        out.update(
            setup_spans=setup_spans,
            run_spans=tracer.drain(),
            counters=tracer.counters,
        )
        trace.uninstall(undo)
        trace.write_chrome_trace(tracer, request["trace_out"])
    out.update(facts(result))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
