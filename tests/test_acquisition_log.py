"""The acquisition log as columns (DESIGN.md §4 "The call path").

(a) *Same statistics* — the list-of-tuples collector's pure-Python
    accessor bodies are kept here as the reference; every accessor and
    every ``summary()`` key of the column store equals them with ``==``
    on floats, and every value is a builtin (no numpy scalar reaches a
    ``Report``); by hand, the percentile's and the per-cell count's
    edge cases (one or two rows, q at 0 and 100, ties, 10^5 rows, NaN,
    negative and gapped cell ids).
(b) *Still a sequence of records* — ``len``, truth, indexing, slices,
    iteration, ``==`` against a list of tuples or another log, pickling.
(c) *The label table's limit is a decision*: 256 labels, the 257th
    raises ``LabelTableFull`` and leaves the log whole.
(d) *Guards the tuple list cannot meet* — bytes per record, pickle size
    and round-trip time.
(e) *Snapshots written by the parent commit* (``b425d78``, made by
    ``tests/data/snapshots_b425d78/make.py``) restore row-identically
    and re-checkpoint byte-identically: the plain-row layout did not move.
"""

import gzip
import hashlib
import json
import pathlib
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import report_row
from repro.harness import Report, Scenario
from repro.metrics import AcquisitionLog, AcquisitionRecord, LabelTableFull, MetricsCollector
from repro.snap import Snapshot, checkpoint, restore, run_from_snapshot


# ------------------------------------------------- (a) reference formulas --
def _jain(rates):
    if not rates:
        return 1.0
    arr = np.array(rates)
    denom = len(arr) * float((arr**2).sum())
    if denom == 0:
        return 1.0
    return float(arr.sum()) ** 2 / denom


def ref_drop_rate_of(records, kind):
    subset = [r for r in records if r.kind == kind]
    if not subset:
        return 0.0
    return sum(1 for r in subset if not r.granted) / len(subset)


def ref_acquisition_times(records):
    return np.array([r.acquisition_time for r in records if r.granted])


def ref_percentile(records, q):
    times = ref_acquisition_times(records)
    return float(np.percentile(times, q)) if times.size else 0.0


def ref_mean_attempts(records):
    values = [r.attempts for r in records if r.granted]
    return float(np.mean(values)) if values else 0.0


def ref_mode_fractions(records):
    granted = [r for r in records if r.granted and r.mode]
    if not granted:
        return {}
    out = {}
    for r in granted:
        out[r.mode] = out.get(r.mode, 0) + 1
    return {k: v / len(granted) for k, v in sorted(out.items())}


def ref_per_cell_drop_rates(records):
    by_cell = {}
    for r in records:
        by_cell.setdefault(r.cell, []).append(r.granted)
    return {cell: 1.0 - sum(grants) / len(grants) for cell, grants in sorted(by_cell.items())}


def ref_summary(records):
    """``summary()`` as the parent's accessors (and, for the two
    statistics that had none, its one-pass loop) computed it."""
    offered = len(records)
    granted = sum(1 for r in records if r.granted)
    times = ref_acquisition_times(records)
    waits = np.array([r.queue_wait for r in records])
    tries = [r.attempts for r in records]
    per_cell = ref_per_cell_drop_rates(records)
    return {
        "offered": offered,
        "granted": granted,
        "dropped": offered - granted,
        "drop_rate": (offered - granted) / offered if offered else 0.0,
        "new_call_block_rate": ref_drop_rate_of(records, "new"),
        "handoff_failure_rate": ref_drop_rate_of(records, "handoff"),
        "mean_acquisition_time": float(times.mean()) if times.size else 0.0,
        "p95_acquisition_time": ref_percentile(records, 95),
        "max_acquisition_time": float(times.max()) if times.size else 0.0,
        "mean_queue_wait": float(waits.mean()) if waits.size else 0.0,
        "mean_attempts": ref_mean_attempts(records),
        "max_attempts": max(tries) if tries else 0,
        "mode_fractions": ref_mode_fractions(records),
        "fairness_index": _jain([1.0 - d for d in per_cell.values()]),
        "per_cell_drop_rates": per_cell,
    }


KINDS = ["new", "handoff", "data", "video", "k5"]
MODES = [None, "", "local", "update", "search", "down", "queue_timeout", "guard_blocked", "m9"]
finite = st.floats(min_value=-1e6, max_value=1e9, allow_nan=False)
rows = st.tuples(
    st.integers(-3, 200), st.sampled_from(KINDS), st.booleans(), finite, finite,
    st.integers(0, 40), st.sampled_from(MODES), st.floats(min_value=0.0, max_value=1e9),
)
logs = st.one_of(
    st.lists(rows, max_size=60),
    st.lists(rows.map(lambda r: r[:2] + (False,) + r[3:]), max_size=20),  # all denied
    st.lists(rows.map(lambda r: (7,) + r[1:6] + (None,) + r[7:]), max_size=20),  # one cell, no path
)


def collector_of(rows_):
    m = MetricsCollector()
    for row in rows_:
        m.record_acquisition(*row)
    return m


def assert_builtin(value):
    assert type(value) in (int, float, dict), type(value)
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) in (int, str) and type(item) is float, (key, item)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(logs)
def test_every_statistic_equals_the_list_of_tuples_formula(rows_):
    m = collector_of(rows_)
    records = [AcquisitionRecord(*row) for row in rows_]
    expected = ref_summary(records)
    summary = m.summary()
    assert list(summary) == list(expected)
    for name, value in expected.items():
        assert summary[name] == value, name
        assert_builtin(summary[name])
    accessors = {
        "offered": m.offered,
        "granted": m.granted,
        "dropped": m.dropped,
        "drop_rate": m.drop_rate,
        "mean_acquisition_time": m.mean_acquisition_time(),
        "p95_acquisition_time": m.acquisition_time_percentile(95),
        "max_acquisition_time": m.max_acquisition_time(),
        "mean_queue_wait": m.mean_queue_wait(),
        "mean_attempts": m.mean_attempts(),
        "max_attempts": m.max_attempts(),
        "mode_fractions": m.mode_fractions(),
        "fairness_index": m.fairness_index(),
        "per_cell_drop_rates": m.per_cell_drop_rates(),
    }
    for name, value in accessors.items():
        assert value == expected[name], name
        assert_builtin(value)
    for kind in KINDS + ["local", "never seen"]:  # "local": a label, but of a mode
        assert m.drop_rate_of(kind) == ref_drop_rate_of(records, kind)
        assert type(m.drop_rate_of(kind)) is float
    assert m.acquisition_time_percentile(50) == ref_percentile(records, 50)
    ours, theirs = m.acquisition_times(), ref_acquisition_times(records)
    assert ours.dtype == np.float64 and ours.tolist() == theirs.tolist()
    assert m.queue_waits().tolist() == [r.queue_wait for r in records]
    # The arrays handed out are copies: holding one must not pin a column.
    held = m.queue_waits(), m.acquisition_times()
    m.record_acquisition(0, "new", True, 0.0, 0.0, 1, "local", 1.0)
    assert len(held[0]) == len(records) and m.offered == len(records) + 1


def granted_with_times(times):
    """A collector whose granted rows have these acquisition times, and
    one denied row that the percentile must not see."""
    m = collector_of([(0, "new", False, 0.0, -1e300, 1, None, 1.0)])
    m.records.extend((i % 7, "new", True, 0.0, t, 1, "local", 1.0) for i, t in enumerate(times))
    return m


QS = [0, 5, 50, 95, 99.9, 100]
rng = np.random.default_rng(30)
EDGE_TIMES = {
    "n=1": [3.25],
    "n=2": [4.0, 1.5],
    "all equal": [2.0] * 9,
    "ties and zeros": [0.0, 2.0, 0.0, 1.0, 2.0, 2.0, 0.0, 1.0],
    "1e5 rows": (rng.exponential(3.0, 100_003) * (rng.random(100_003) < 0.8)).tolist(),
}


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("times", list(EDGE_TIMES.values()), ids=list(EDGE_TIMES))
def test_percentile_edge_cases_equal_numpy(times, q):
    m = granted_with_times(times)
    ours = m.acquisition_time_percentile(q)
    assert ours == float(np.percentile(np.array(times), q)) and type(ours) is float
    if len(times) < 100:
        assert ours == ref_percentile(list(m.records), q)


@pytest.mark.parametrize("q", QS)
def test_a_nan_time_gives_a_nan_percentile_as_numpy_does(q):
    times = [1.0, float("nan"), 0.5, 2.0]
    assert np.isnan(np.percentile(np.array(times), q))
    assert np.isnan(granted_with_times(times).acquisition_time_percentile(q))


def test_per_cell_drop_rates_with_negative_and_gapped_cell_ids():
    feed = [
        (cell, "new", granted, 0.0, 0.0, 1, "local", 1.0)
        for cell, granted in [(1000, True), (-5, False), (7, True), (-5, True), (0, False),
                              (7, False), (-1, True), (1000, True), (-5, False), (7, True)]
    ]
    ours = collector_of(feed).per_cell_drop_rates()
    expected = ref_per_cell_drop_rates([AcquisitionRecord(*row) for row in feed])
    assert list(ours.items()) == list(expected.items())
    assert list(ours) == [-5, -1, 0, 7, 1000] and ours[-5] == 1.0 - 1 / 3
    assert all(type(cell) is int for cell in ours)
    assert collector_of([]).per_cell_drop_rates() == {}


# ------------------------------------------------------ (b) sequence-ness --
ROW = (0, "new", True, 0.0, 0.0, 1, "local", 10.0)


def test_reads_as_the_sequence_of_records_it_replaced():
    m = MetricsCollector(warmup=10.0)
    records = m.records
    assert records == [] and not records and len(records) == 0
    with pytest.raises(IndexError):
        records[0]
    m.record_acquisition(*ROW[:7], 9.0)  # inside the warm-up: nothing kept
    assert records == []
    m.record_acquisition(*ROW)
    m.record_acquisition(3, "handoff", False, 1.5, 0.0, 0, None, 11.0)
    m.record_acquisition(4, "new", 1, 2, 3, 2, "search", 12)  # ints where floats go
    assert records and len(records) == 3
    assert records == [ROW, (3, "handoff", False, 1.5, 0.0, 0, None, 11.0),
                       (4, "new", True, 2.0, 3.0, 2, "search", 12.0)]
    assert records != [ROW] and records != [ROW] * 3 and records != "abc"
    assert records[0] == ROW and records[-1].mode == "search" and records[-2].mode is None
    assert records[1:] == list(records)[1:] and records[:0] == [] and records[::2] == [records[0], records[2]]
    for record in list(records) + [records[-1]] + records[2:]:
        assert type(record) is AcquisitionRecord
        assert [type(v) for v in tuple(record)[:6]] == [int, str, bool, float, float, int]
        assert type(record.mode) in (str, type(None)) and type(record.time) is float
    assert repr(tuple(records[2])) == "(4, 'new', True, 2.0, 3.0, 2, 'search', 12.0)"
    assert records.rows()[1] == [3, "handoff", False, 1.5, 0.0, 0, None, 11.0]
    with pytest.raises(TypeError):
        hash(records)


def test_equality_pickling_and_two_collectors_fed_the_same_calls():
    feed = [ROW, (3, "handoff", False, 1.5, 0.25, 0, "queue_timeout", 11.0), (3, "new", True, 0.0, 2.0, 3, None, 12.0)]
    a, b = collector_of(feed), collector_of(feed)
    assert a.records == b.records and a.summary() == b.summary()
    b.record_acquisition(*ROW)
    assert a.records != b.records
    clone = pickle.loads(pickle.dumps(a))
    assert clone.records == a.records and clone.summary() == a.summary()
    clone.record_acquisition(9, "data", True, 0.0, 0.0, 1, "m9", 13.0)  # still appendable
    assert len(clone.records) == len(a.records) + 1 and clone.records[-1].kind == "data"
    restored = MetricsCollector()
    restored.load_state(json.loads(json.dumps(a.state_dict())))
    assert restored.records == a.records and restored.state_dict() == a.state_dict()


def test_a_value_a_column_cannot_hold_leaves_the_log_whole():
    m = collector_of([ROW])
    for bad in [(2**40,) + ROW[1:], ROW[:5] + ("many",) + ROW[6:], ROW[:7] + (None,)]:
        with pytest.raises((OverflowError, TypeError)):
            m.record_acquisition(*bad)
    assert m.records == [ROW] and m.summary()["offered"] == 1
    assert {len(getattr(m.records, name)) for name in AcquisitionRecord._fields} == {1}


# --------------------------------------------------------- (c) label limit --
def test_the_257th_label_raises_and_the_log_stays_usable():
    log = AcquisitionLog()
    for i in range(127):
        log.append(i, f"kind{i}", True, 0.0, 0.0, 1, f"mode{i}", 1.0)
    log.append(127, "kind127", True, 0.0, 0.0, 1, None, 1.0)  # None is a label too
    assert len(log.labels) == 256 and log[-1].mode is None and log[5].kind == "kind5"
    with pytest.raises(LabelTableFull, match="256"):
        log.append(0, "one too many", True, 0.0, 0.0, 1, None, 1.0)
    with pytest.raises(ValueError):  # what LabelTableFull is
        log.append(0, "kind0", True, 0.0, 0.0, 1, "another", 1.0)
    assert len(log) == 128 and len(log.labels) == 256
    log.append(0, "kind0", False, 0.0, 0.0, 1, "mode3", 2.0)  # known labels still go in
    assert log[-1] == (0, "kind0", False, 0.0, 0.0, 1, "mode3", 2.0)


# ------------------------------------------------------------- (d) guards --
N = 20_000


def feed_many(m, n=N):
    record = m.record_acquisition
    for i in range(n):
        record(i % 49, "handoff" if i % 5 == 0 else "new", i % 7 != 0, 0.5 * (i % 3),
               0.125 * (i % 11), 1 + i % 4, "search" if i % 9 == 0 else "local", 100.0 + i)


def test_a_record_costs_under_64_bytes():
    """184 B as a named tuple and its three floats; 35 B of columns."""
    m = MetricsCollector(warmup=50.0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        feed_many(m)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.offered == N
    assert (after - before) / N < 64


def test_a_report_pickles_as_buffers():
    """What every ``run_cells`` worker and cache hit pays: the tuple
    list was 44 B and ~3 µs a record on the wire."""
    m = MetricsCollector()
    feed_many(m)
    report = Report(
        scenario=Scenario(), **m.summary(), messages_total=0, messages_by_kind={},
        messages_per_acquisition=0.0, violations=0, mode_changes=0, calls_started=N,
        calls_completed=N, duration=1.0, metrics=m,
    )
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        blob = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
        clone = pickle.loads(blob)
        best = min(best, time.perf_counter() - t0)
    assert clone.metrics.records == m.records and clone.offered == N
    assert len(blob) < 40 * N + 4096  # the tuple list: 880 kB
    assert best < 0.02  # the tuple list: 0.07 s here; the columns: 0.001 s


# ------------------------------------------- (e) the parent's snapshots ----
FIXTURES = pathlib.Path(__file__).parent / "data" / "snapshots_b425d78"
EXPECTED = json.loads((FIXTURES / "rows.json").read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_snapshot_written_by_the_parent_commit_restores_and_recheckpoints(name):
    expected = EXPECTED[name]
    data = gzip.decompress((FIXTURES / f"{name}.snap.gz").read_bytes())
    snap = Snapshot.from_bytes(data)
    assert len(snap.state["metrics"]["records"]) == expected["records_in_snapshot"] > 50
    sim = restore(snap)
    assert sim.metrics.records.rows() == snap.state["metrics"]["records"]
    assert checkpoint(sim).to_bytes() == data
    report = run_from_snapshot(snap)
    # The fixture rows predate the removal of two Report columns that were always null here.
    row = dict(expected["row"])
    assert row.pop("regret_vs_oracle") is None and row.pop("fastlane") is None
    assert json.loads(json.dumps(report_row(report))) == row
    records = [tuple(r) for r in report.metrics.records]
    assert len(records) == expected["offered"]
    assert hashlib.sha256(repr(records).encode()).hexdigest()[:16] == expected["records_digest"]
