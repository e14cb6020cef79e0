"""The parent side: spawn children one at a time, verify, summarise.

An *operation* is one child process.  Children run strictly one after
another — no pools, no threads — in a hermetic environment, and the
parent measures what only it can see: spawn-to-exit wall time and the
child's peak RSS (``os.wait4``).
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional

from . import BENCH_DIR, ROOT, SRC
from . import calibrate, layers, spec

WORK_ROOT = os.path.join(BENCH_DIR, ".work")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
#: A child that runs this long is killed and counted as failed.
CHILD_TIMEOUT_S = 90.0
END_TO_END = ("setup_s", "run_wall_s", "e2e_wall_s", "peak_rss_mb")
#: The child times that are scaled to the reference host speed.
TIMES = ("setup_s", "run_wall_s", "e2e_wall_s", "run_cpu_s", "import_s")


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------
def child_env(work_dir: str) -> Dict[str, str]:
    """Hermetic environment: no result cache, fixed hash seed, one BLAS
    thread, temp files inside the work dir."""
    env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG", "LC_ALL") if k in os.environ}
    env.update(
        PYTHONPATH=os.pathsep.join((SRC, ROOT)),
        PYTHONHASHSEED="0",
        REPRO_CACHE="off",
        TMPDIR=work_dir,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@contextlib.contextmanager
def scratch_dir(label: str) -> Iterator[str]:
    """A work dir under ``bench/.work`` that is gone afterwards."""
    work_dir = os.path.join(WORK_ROOT, f"{label}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        yield work_dir
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's work dir is still there


def spawn_child(request: Dict[str, Any], work_dir: str) -> Dict[str, Any]:
    """Run one child to completion; returns its result plus the
    parent-side measurements, or ``{"error": ...}``."""
    stderr_path = os.path.join(work_dir, "stderr.txt")
    with open(stderr_path, "w") as stderr:
        spawned_at = time.monotonic()
        request = dict(request, spawned_at=spawned_at, work_dir=work_dir)
        proc = subprocess.Popen(
            [sys.executable, "-m", "bench.child", json.dumps(request)],
            cwd=ROOT, env=child_env(work_dir),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr,
        )
        # Read to EOF under a deadline, then reap with wait4 for the
        # rusage; EOF arrives when the child exits, so no polling.
        chunks: List[bytes] = []
        timed_out = False
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            deadline = spawned_at + CHILD_TIMEOUT_S
            while True:
                if not selector.select(max(0.0, deadline - time.monotonic())):
                    timed_out = True
                    proc.kill()
                    break
                data = os.read(proc.stdout.fileno(), 1 << 16)
                if not data:
                    break
                chunks.append(data)
        _, status, rusage = os.wait4(proc.pid, 0)
        exited_at = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if timed_out or proc.returncode != 0:
        with open(stderr_path) as fh:
            tail = fh.read()[-2000:]
        reason = "timed out" if timed_out else f"exit code {proc.returncode}"
        return {"error": f"child {reason}\n{tail}"}
    lines = b"".join(chunks).decode().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no result"}
    result["e2e_wall_s"] = exited_at - spawned_at
    result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0  # Linux reports KiB
    return result


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------
def load_golden() -> Dict[str, Any]:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def golden_entry(golden: Dict[str, Any], seed: int, quick: bool, name: str) -> Optional[Dict[str, Any]]:
    size = "quick" if quick else "full"
    return golden.get(str(seed), {}).get(size, {}).get(name)


def check_expectations(expect: Dict[str, Any], result: Dict[str, Any]) -> List[str]:
    """Workload-specific checks: ``{"x": v}`` exact, ``x_min``/``x_max`` bounds."""
    facts = {**result, **result["fingerprint"]}
    problems = []
    for key, wanted in expect.items():
        if key.endswith("_min"):
            ok = facts.get(key[:-4], float("-inf")) >= wanted
        elif key.endswith("_max"):
            ok = facts.get(key[:-4], float("inf")) <= wanted
        else:
            ok = facts.get(key) == wanted
        if not ok:
            problems.append(f"expected {key}={wanted}, facts disagree")
    return problems


def _continues(fork_print: Dict[str, Any], cold_print: Dict[str, Any]) -> bool:
    """Is fork seed 0 (an exact continuation) row-identical to the cold run?"""
    return all(fork_print[k] == v for k, v in cold_print.items())


def verify(
    result: Dict[str, Any], expect: Dict[str, Any],
    golden: Optional[Dict[str, Any]], reference: Optional[Dict[str, Any]],
) -> List[str]:
    """Why this operation failed (empty when it did not)."""
    if "error" in result:
        return [result["error"]]
    problems = []
    fp = result["fingerprint"]
    if fp["violations"] != 0:
        problems.append(f"{fp['violations']} interference violations (Theorem 1)")
    for offered, granted, dropped, violations in result["rows"]:
        if offered != granted + dropped or violations:
            problems.append(
                f"row offered={offered} granted={granted} dropped={dropped} "
                f"violations={violations} breaks the invariants"
            )
            break
    problems += check_expectations(expect, result)
    if reference is not None and fp != reference:
        problems.append("fingerprint differs between children of one seed")
    if golden is not None:
        if fp != golden["fingerprint"]:
            problems.append(f"fingerprint {fp} differs from golden {golden['fingerprint']}")
        if not _continues(fp, golden.get("cold", {})):
            problems.append("fork seed 0 is not row-identical to the cold run")
        if "run_spans" in result:
            events = result["run_spans"].get("sim.engine.step", {}).get("calls", 0)
            if events != golden["events"]:
                problems.append(f"sim.engine.events {events} != golden {golden['events']}")
    return problems


# ---------------------------------------------------------------------------
# Statistics and provenance
# ---------------------------------------------------------------------------
def summarize(samples: List[float]) -> Dict[str, Any]:
    """Median, extremes and quartiles of the samples (all kept), and
    their run-to-run ``spread``: the interquartile range over the median.

    With five samples no percentile has ten samples beyond it, so none
    is reported."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    median = statistics.median(samples)
    return {
        "n": len(samples), "min": min(samples), "q1": q1, "median": median,
        "q3": q3, "max": max(samples), "spread": (q3 - q1) / median,
        "samples": samples,
    }


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ("git",) + args, cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, repeats: int, quick: bool) -> Dict[str, Any]:
    sha = _git("rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git")) else None
    dirty = _git("status", "--porcelain") if sha else None
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": bool(dirty) if sha else None,
        "git_note": None if sha else "not a git checkout",
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "load_average": list(os.getloadavg()),
        "calibration_nominal_s": calibrate.NOMINAL_S,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # No workload here needs more than one core; a metric that did
        # would be reported as null with a reason, never as a number.
        "cores_needed": 1,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------
def _scale_times(result: Dict[str, Any], kernel_samples: List[float]) -> None:
    """Bring a child's times to the reference host speed; keep the raw ones."""
    factor = calibrate.host_factor(kernel_samples)
    result["raw"] = {k: result[k] for k in TIMES}
    result["raw"]["kernel_samples"] = kernel_samples
    for key in TIMES:
        result[key] *= factor
    for spans in (result.get("setup_spans", {}), result.get("run_spans", {})):
        for agg in spans.values():
            agg["self_s"] *= factor
            agg["total_s"] *= factor


def run_workload(
    contract: Dict[str, Any], name: str, seed: int, *,
    quick: bool = False, timed: bool = True, traced: bool = True,
    out_dir: Optional[str] = None, log: Any = print,
) -> Dict[str, Any]:
    """Run one workload's children and return its result record.

    ``timed`` runs the full set of untraced children (end-to-end
    metrics); ``traced`` adds the traced child (per-layer metrics and
    ledger).  A traced-only run still needs a few untraced children to
    anchor the overhead ratio and events/s.  The number of children is
    fixed, never a function of how fast they ran: two results compare
    only at equal n.  The calibration kernel is timed in every gap
    between children and each child's times are scaled by the samples
    around it (see :mod:`bench.calibrate`).
    """
    if quick:
        repeats = spec.QUICK_REPEATS
    elif timed:
        repeats = spec.REPEATS
    else:
        repeats = spec.TRACE_BASELINE_REPEATS
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    goldens = load_golden()

    expects = {size: spec.load_workload(name, size)["expect"] for size in (quick, True)}
    attempted = failed = 0
    reference: Optional[Dict[str, Any]] = None
    samples: List[Dict[str, Any]] = []
    failures: List[str] = []
    record: Dict[str, Any] = {"workload": name, "seed": seed, "quick": quick}

    def operate(label: str, size_quick: bool = quick, **extra: Any) -> Optional[Dict[str, Any]]:
        """One child, scaled by the kernel samples around it and verified."""
        nonlocal attempted, failed, reference, gap
        request = {"workload": name, "seed": seed, "quick": size_quick, "traced": False}
        result = spawn_child(dict(request, **extra), work_dir)
        attempted += 1
        before, gap = gap, calibrate.sample_gap()
        if "error" not in result:
            _scale_times(result, before + gap)
        same_size = size_quick == quick
        problems = verify(
            result, expects[size_quick],
            golden_entry(goldens, seed, size_quick, name),
            reference if same_size else None,
        )
        if problems:
            failed += 1
            failures.extend(f"{label}: {p}" for p in problems)
            log(f"  {label}: FAILED — {problems[0].splitlines()[0]}")
            return None
        if reference is None and same_size:
            reference = result["fingerprint"]
        return result

    with scratch_dir(name) as work_dir:
        calibrate.kernel()  # discarded: the first run warms the interpreter
        gap = calibrate.sample_gap()
        # The discarded warm-up child fills the bytecode and page caches;
        # the short horizon is enough for that.
        operate("warm-up", size_quick=True)
        for index in range(repeats):
            result = operate(f"run {index + 1}")
            if result is None:
                break
            samples.append(result)
        trace_result = None
        if traced and not failed:
            trace_out = os.path.join(work_dir, "trace.json")
            trace_result = operate("traced", traced=True, trace_out=trace_out)
            if trace_result is not None and out_dir is not None:
                shutil.copy(trace_out, os.path.join(out_dir, f"trace-{name}.json"))

    golden = golden_entry(goldens, seed, quick, name)
    record.update(
        correct=failed == 0, attempted=attempted, failed=failed, failures=failures,
        fingerprint=reference,
        golden="none for this seed" if golden is None else
               ("mismatch" if failed else "match"),
        metrics={}, stats={},
    )
    if failed:
        return record
    stats = {metric: summarize([s[metric] for s in samples]) for metric in END_TO_END}
    for metric in END_TO_END[:3]:  # the times: as measured, before scaling
        stats[metric]["raw_samples"] = [s["raw"][metric] for s in samples]
    record["stats"] = stats
    record["kernel_samples"] = [s["raw"]["kernel_samples"] for s in samples]
    if timed:
        for metric in END_TO_END:
            record["metrics"][metric] = {
                "value": stats[metric]["median"], "unit": units[metric],
            }
    if trace_result is not None:
        baseline = {
            k: statistics.median(s[k] for s in samples)
            for k in ("run_wall_s", "run_cpu_s")
        }
        per_layer = layers.layer_metrics(trace_result, baseline)
        for metric, value in per_layer.items():
            record["metrics"][metric] = {"value": value, "unit": units[metric]}
        record["ledger"] = layers.ledger(trace_result["run_spans"])
        record["traced_run_wall_s"] = trace_result["run_wall_s"]
        record["exact"] = layers.exact_metrics(per_layer)
    return record


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------
def make_golden(contract: Dict[str, Any], seed: int, log: Any = print) -> Dict[str, Any]:
    """The golden entries of ``seed``: per size and workload the
    fingerprint, the traced event count and, for a fork workload, the
    cold run's row.  Raises if any child fails an invariant."""
    entries: Dict[str, Any] = {}
    with scratch_dir("golden") as work_dir:
        for quick in (False, True):
            size = entries.setdefault("quick" if quick else "full", {})
            for name in spec.workload_names(contract):
                workload = spec.load_workload(name, quick)
                request = {"workload": name, "seed": seed, "quick": quick, "traced": False}
                plain = spawn_child(request, work_dir)
                traced = spawn_child(
                    dict(request, traced=True, trace_out=os.path.join(work_dir, "trace.json")),
                    work_dir,
                )
                problems = verify(plain, workload["expect"], None, None)
                problems += verify(traced, workload["expect"], None, plain.get("fingerprint"))
                entry = {}
                if workload["kind"] == "fork" and not problems:
                    cold = spawn_child(dict(request, cold=True), work_dir)
                    problems += verify(cold, {}, None, None)
                    if not problems and not _continues(plain["fingerprint"], cold["fingerprint"]):
                        problems.append("fork seed 0 is not row-identical to the cold run")
                    entry["cold"] = cold.get("fingerprint")
                if problems:
                    raise RuntimeError(f"{name} (seed {seed}): " + "; ".join(problems))
                entry["fingerprint"] = plain["fingerprint"]
                entry["events"] = traced["run_spans"]["sim.engine.step"]["calls"]
                size[name] = entry
                log(f"  {name:<19}{'quick' if quick else 'full':<6}{entry['fingerprint']}")
    return entries
