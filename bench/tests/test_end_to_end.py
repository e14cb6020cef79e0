"""The benchmark end to end on the quick sizes: children, goldens, contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, layers, runner, spec

CONTRACT = spec.load_contract()


def test_contract_names_match_the_code():
    assert set(spec.workload_names(CONTRACT)) == {
        os.path.splitext(f)[0] for f in os.listdir(spec.WORKLOAD_DIR)
    }
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(runner.END_TO_END)
    zero = {"calls": 0, "starts": 0, "self_s": 0.0, "total_s": 0.0}
    traced = {"setup_spans": {}, "run_spans": {"host.run": zero}, "counters": {},
              "import_s": 0.1, "run_wall_s": 1.0}
    computed = layers.layer_metrics(traced, {"run_wall_s": 1.0, "run_cpu_s": 1.0})
    assert list(computed) == [m["name"] for m in CONTRACT["per_layer"]]


def test_traced_child_reproduces_the_golden_and_the_event_count():
    record = runner.run_workload(
        CONTRACT, "adaptive_contended", 101, quick=True, log=lambda _: None,
    )
    assert record["failures"] == []
    assert record["correct"] and record["golden"] == "match"
    # warm-up + 2 timed + traced, all verified against the golden
    # (fingerprint for each, sim.engine.events for the traced one).
    assert record["attempted"] == 4 and record["failed"] == 0
    golden = runner.golden_entry(runner.load_golden(), 101, True, "adaptive_contended")
    assert record["fingerprint"] == golden["fingerprint"]
    assert record["metrics"]["sim.engine.events"]["value"] == golden["events"]
    for name in runner.END_TO_END:
        assert record["metrics"][name]["value"] > 0
    # The ledger's layers sum to the traced run wall.
    total = sum(entry["self_s"] for entry in record["ledger"].values())
    assert total == pytest.approx(record["traced_run_wall_s"], rel=0.01)
    assert record["metrics"]["host.trace_overhead_ratio"]["value"] > 1.0
    assert not os.path.exists(runner.WORK_ROOT)  # tree left clean


def test_unknown_seed_runs_on_invariants_only():
    record = runner.run_workload(
        CONTRACT, "fixed_local", 7, quick=True, traced=False, log=lambda _: None,
    )
    assert record["correct"] and record["golden"] == "none for this seed"
    assert record["fingerprint"]["messages_total"] == 0


def test_a_wrong_golden_fails_the_operation(monkeypatch):
    goldens = runner.load_golden()
    goldens["101"]["quick"]["fixed_local"]["fingerprint"]["offered"] += 1
    monkeypatch.setattr(runner, "load_golden", lambda: goldens)
    record = runner.run_workload(
        CONTRACT, "fixed_local", 101, quick=True, traced=False, log=lambda _: None,
    )
    assert not record["correct"] and record["failed"] >= 1
    assert "differs from golden" in record["failures"][0]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, capture_output=True, text=True,
    )


@pytest.mark.parametrize("trace, wanted", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_form_prints_one_json_object_last(trace, wanted):
    done = _bench("--workload", "warm_fork", "--seed", "11", "--seconds", "1",
                  "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 3
    assert list(last["metrics"]) == [m["name"] for m in CONTRACT[wanted]]
    for metric in CONTRACT[wanted]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "out"),
    )
    done = _bench("--workload", "fixed_local", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
