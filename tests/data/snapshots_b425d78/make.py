"""Run with the PARENT's src on PYTHONPATH: writes six snapshots + the rows their exact continuation reports."""
import dataclasses, gzip, hashlib, json, sys
from repro.faults import CrashWindow, FaultPlan
from repro.harness import Scenario
from repro.snap import run_from_snapshot, run_to_checkpoint

out = sys.argv[1]
plan = FaultPlan(drop_prob=0.05, dup_prob=0.03, delay_prob=0.05, extra_delay=2.0,
                 crashes=(CrashWindow(cell=10, at=60.0, downtime=25.0),))
CASES = {
    "adaptive-records": (Scenario(scheme="adaptive", offered_load=9.0, duration=160.0, warmup=20.0, seed=5), 90.0),
    "adaptive-faults": (Scenario(scheme="adaptive", offered_load=7.0, duration=160.0, warmup=20.0, seed=6, faults=plan), 100.0),
    "fixed": (Scenario(scheme="fixed", offered_load=8.0, duration=160.0, warmup=20.0, seed=7, mean_dwell=60.0), 90.0),
    "prakash": (Scenario(scheme="prakash", offered_load=6.0, duration=160.0, warmup=20.0, seed=8), 90.0),
    "advanced_update-14x14": (Scenario(scheme="advanced_update", rows=14, cols=14, offered_load=3.0, duration=70.0, warmup=10.0, seed=9), 40.0),
    "basic_update-28x28": (Scenario(scheme="basic_update", rows=28, cols=28, offered_load=0.2, duration=100.0, warmup=10.0, seed=10), 70.0),
}
rows = {}
for name, (scenario, at) in CASES.items():
    snap = run_to_checkpoint(scenario, at)
    data = snap.to_bytes()
    with gzip.GzipFile(f"{out}/{name}.snap.gz", "wb", mtime=0) as fh:
        fh.write(data)
    report = run_from_snapshot(snap)
    row = dataclasses.asdict(report)
    for key in ("scenario", "obs", "metrics"):
        row.pop(key)
    rows[name] = {"records_in_snapshot": len(snap.state["metrics"]["records"]), "time": snap.time,
                  "row": row, "offered": len(report.metrics.records),
                  "records_digest": hashlib.sha256(repr([tuple(r) for r in report.metrics.records]).encode()).hexdigest()[:16]}
    print(name, len(data), "bytes", rows[name]["records_in_snapshot"], "records in snapshot", len(report.metrics.records), "at end")
with open(f"{out}/rows.json", "w") as fh:
    json.dump(rows, fh, sort_keys=True, indent=1)
    fh.write("\n")
