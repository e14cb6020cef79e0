"""Tests for the observability layer (repro.obs).

Covers the ``Scenario.obs`` sample interval, span pairing (including
under a hostile fault plan), determinism of the collected data, the run-artifact
writer, the ``--trace`` directory layout of ``run_cells``, and the
shared mode glyphs behind every mode timeline.
"""

import json
import math
import os

import pytest

from repro.faults import CrashWindow, FaultPlan
from repro.harness import Scenario, run_cells, run_scenario
from repro.obs import (
    MODE_GLYPHS,
    SpanTracer,
    mode_glyph,
    trace_events,
    write_run_artifacts,
)


def small(**kw):
    """A fast paper-topology scenario for traced runs."""
    base = dict(
        scheme="adaptive",
        offered_load=6.0,
        mean_holding=30.0,
        duration=200.0,
        warmup=25.0,
        seed=11,
        obs=25.0,
    )
    base.update(kw)
    return Scenario(**base)


@pytest.fixture(scope="module")
def traced_report():
    return run_scenario(small())


# ------------------------------------------------- the sample interval ----
def test_obs_config_validation():
    for bad in (0, -1.0, math.nan, math.inf, True, "50", {"sample_interval": 50.0}):
        with pytest.raises(ValueError, match="positive sample interval"):
            Scenario(obs=bad)
        with pytest.raises(ValueError, match="positive sample interval"):
            Scenario.from_dict({"obs": bad})


def test_scenario_round_trip_with_obs():
    s = small(seed=5)
    restored = Scenario.from_json(s.to_json())
    assert restored.obs == s.obs
    assert restored == s


def test_scenario_without_obs_serializes_none():
    s = Scenario()
    assert s.obs is None
    assert Scenario.from_json(s.to_json()).obs is None


# ------------------------------------------------------- span pairing ----
def check_span_invariants(obs):
    stats = obs.span_stats
    assert stats["malformed"] == 0
    assert stats["dropped"] == 0
    assert stats["opened"] == stats["closed"] + len(obs.open_spans)
    assert len(obs.spans) == stats["closed"]
    seen = set()
    for span in obs.spans:
        key = (span["cell"], span["req_id"])
        assert key not in seen  # every span closes exactly once
        seen.add(key)
        assert span["t_end"] is not None
        assert span["t_end"] >= span["t_begin"]
        if span["t_serve"] is not None:
            assert span["t_begin"] <= span["t_serve"] <= span["t_end"]
        assert span["granted"] == (span["channel"] is not None)


def test_spans_pair_exactly(traced_report):
    obs = traced_report.obs
    assert obs is not None
    assert obs.span_stats["opened"] > 0
    check_span_invariants(obs)


def test_spans_pair_exactly_under_hostile_faults():
    """Every opened span closes exactly once even with drops, dups,
    reordering and a station crash-restart mid-run (the request.end
    emit sits in a ``finally:``)."""
    plan = FaultPlan(
        drop_prob=0.08,
        dup_prob=0.05,
        reorder_prob=0.05,
        reorder_delay=2.0,
        crashes=(CrashWindow(cell=24, at=60.0, downtime=40.0),),
    )
    report = run_scenario(small(faults=plan, seed=17))
    obs = report.obs
    assert obs is not None
    assert obs.span_stats["opened"] > 0
    check_span_invariants(obs)
    assert sum(report.faults_injected.values()) > 0


def test_disabled_obs_collects_nothing():
    assert run_scenario(small(obs=None)).obs is None


def test_obs_data_is_deterministic(traced_report):
    again = run_scenario(small())
    assert again.obs.spans == traced_report.obs.spans
    assert again.obs.open_spans == traced_report.obs.open_spans
    assert again.obs.instants == traced_report.obs.instants
    assert again.obs.span_stats == traced_report.obs.span_stats
    assert again.obs.series == traced_report.obs.series
    # obs.kernel is excluded: its wall-clock columns vary by design.


def test_max_spans_cap_counts_overflow(monkeypatch):
    monkeypatch.setattr(SpanTracer, "MAX_SPANS", 5)
    report = run_scenario(small())
    obs = report.obs
    assert len(obs.spans) == 5
    assert obs.span_stats["dropped"] == obs.span_stats["closed"] - 5
    assert obs.span_stats["dropped"] > 0


# ----------------------------------------------------------- artifacts ----
def test_write_run_artifacts(tmp_path, traced_report):
    out = tmp_path / "run"
    files = write_run_artifacts(traced_report, str(out))
    assert files == sorted(
        [
            "kernel.json",
            "manifest.json",
            "report.md",
            "scenario.json",
            "timeseries.csv",
            "timeseries.json",
            "trace.json",
        ]
    )
    trace = json.loads((out / "trace.json").read_text())
    events = trace["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "X", "i", "C"} <= phases
    spans = [e for e in events if e["ph"] == "X" and e["name"].startswith("acquire")]
    assert len(spans) == len(traced_report.obs.spans) + len(
        traced_report.obs.open_spans
    )
    assert all(e["dur"] >= 0 for e in spans)

    report_md = (out / "report.md").read_text()
    assert "Cost breakdown (paper Table 1 columns)" in report_md
    for column in ("msgs (model)", "msgs (sim)", "time (model)", "time (sim)"):
        assert column in report_md
    assert "Mode timeline" in report_md

    scenario = json.loads((out / "scenario.json").read_text())
    assert Scenario.from_dict(scenario) == traced_report.scenario

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == [f for f in files if f != "manifest.json"]
    assert manifest["spans"] == traced_report.obs.span_stats

    csv = (out / "timeseries.csv").read_text().splitlines()
    assert csv[0] == "time,cell,occupancy,mode,nfc_predicted,neighborhood_load"
    assert len(csv) > 1


@pytest.mark.parametrize("case", ["open spans", "no spans", "no events"])
def test_trace_json_is_streamed_one_event_a_line(tmp_path, monkeypatch, case):
    """The trace is written header, one compact event per line, footer —
    and still loads as the document ``trace_events`` describes."""
    if case == "open spans":  # saturated: requests still in flight at the horizon
        report = run_scenario(small(scheme="basic_search", offered_load=14.0))
        assert report.obs.open_spans and report.obs.spans
    else:
        report = run_scenario(small(offered_load=0.0))
        assert not report.obs.spans and not report.obs.open_spans
    if case == "no events":
        monkeypatch.setattr("repro.obs.artifacts._iter_trace_events", lambda report: iter(()))
        expected = []
    else:
        expected = trace_events(report)
        assert expected[0]["name"] == "process_name"
    write_run_artifacts(report, str(tmp_path))
    text = (tmp_path / "trace.json").read_text()
    trace = json.loads(text)
    assert trace == {"traceEvents": expected, "displayTimeUnit": "ms"}
    lines = text.splitlines()
    assert len(lines) == max(len(expected), 1) + 2
    for line, event in zip(lines[1:], expected):
        assert json.loads(line.rstrip(",")) == event


def test_write_run_artifacts_requires_obs(tmp_path):
    report = run_scenario(small(obs=None))
    with pytest.raises(ValueError, match="no observability data"):
        write_run_artifacts(report, str(tmp_path / "nope"))


def test_trace_counters_present(traced_report):
    events = trace_events(traced_report)
    counters = {e["name"] for e in events if e["ph"] == "C"}
    assert counters == {"system", "kernel"}


def test_run_cells_trace_dir_layout(tmp_path):
    scenarios = [
        small(seed=1, duration=100.0, warmup=20.0),
        small(seed=2, duration=100.0, warmup=20.0, obs=None),
    ]
    out = tmp_path / "artifacts"
    run_cells(scenarios, workers=1, cache=False, trace_dir=str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    cells = manifest["cells"]
    assert [c["index"] for c in cells] == [0, 1]
    assert cells[0]["dir"] == "cell-000-adaptive-seed1"
    assert cells[0]["status"] == "ok"
    assert cells[1]["dir"] is None  # untraced cell: listed, no subdir
    assert os.path.isdir(out / "cell-000-adaptive-seed1")
    assert not os.path.exists(out / "cell-001-adaptive-seed2")
    report_md = (out / "cell-000-adaptive-seed1" / "report.md").read_text()
    assert report_md.startswith("# Run report — adaptive")


# ------------------------------------------------------- mode glyphs ----
def test_mode_glyphs():
    assert [mode_glyph(m) for m in sorted(MODE_GLYPHS)] == [".", "b", "U", "S"]
