"""Tests for replication statistics (CIs and paired comparisons).

``summarize`` and ``compare`` read report fields only, so they are fed
synthetic ``Report``s: one real report, copied with the fields and
seeds set by hand.  Whether adaptive beats fixed is an experiment, not
a property of the interval code: ``benchmarks/test_load_sweep.py``
asserts ``adaptive < fixed`` on the drop rate at 5 and 7 Erlang.
"""

import dataclasses
import math

import pytest

from repro.harness import CI, Scenario, compare, run_scenario, summarize
from repro.harness.stats import _interval, _t95


def test_interval_known_values():
    ci = _interval([1.0, 2.0, 3.0])
    assert ci.mean == pytest.approx(2.0)
    # s = 1, t(2, .95) = 4.303 → half = 4.303/sqrt(3)
    assert ci.half_width == pytest.approx(4.303 / math.sqrt(3), rel=1e-3)
    assert ci.n == 3
    assert ci.low < 2.0 < ci.high


def test_interval_single_sample_infinite():
    ci = _interval([5.0])
    assert ci.mean == 5.0
    assert math.isinf(ci.half_width)


def test_interval_empty_rejected():
    with pytest.raises(ValueError):
        _interval([])


def test_t95_table_and_normal_tail():
    assert _t95(1) == pytest.approx(12.706)
    assert _t95(30) == pytest.approx(2.042)
    assert _t95(100) == pytest.approx(1.96)
    with pytest.raises(ValueError):
        _t95(0)


def test_ci_str():
    text = str(CI(0.5, 0.1, 4))
    assert "0.5" in text and "n=4" in text


@pytest.fixture(scope="module")
def real_report():
    return run_scenario(
        Scenario(scheme="fixed", offered_load=8.0, duration=200.0, warmup=50.0, seed=5)
    )


def replications(report, scheme, seeds, **fields):
    """Copies of ``report`` as replications of ``scheme`` at ``seeds``;
    each keyword gives one field's value per replication."""
    return [
        dataclasses.replace(
            report,
            scenario=report.scenario.with_(scheme=scheme, seed=seed),
            **{name: values[i] for name, values in fields.items()},
        )
        for i, seed in enumerate(seeds)
    ]


def test_summarize_over_replications(real_report):
    reps = replications(
        real_report, "fixed", [5, 6, 7], drop_rate=[0.1, 0.2, 0.3], offered=[90, 100, 110]
    )
    stats = summarize(reps, ["drop_rate", "offered"])
    assert set(stats) == {"drop_rate", "offered"}
    assert stats["drop_rate"] == _interval([0.1, 0.2, 0.3])
    assert stats["drop_rate"].n == 3 and stats["drop_rate"].mean == pytest.approx(0.2)
    assert stats["offered"].mean == 100.0
    assert stats["offered"].half_width == pytest.approx(4.303 * 10 / math.sqrt(3), rel=1e-3)


def test_compare_paired_by_seed(real_report):
    fixed = replications(real_report, "fixed", [5, 6, 7], drop_rate=[0.30, 0.25, 0.35])
    adaptive = replications(real_report, "adaptive", [5, 6, 7], drop_rate=[0.10, 0.12, 0.08])
    diff = compare(fixed, adaptive, "drop_rate")
    assert diff.n == 3
    assert diff == _interval([0.30 - 0.10, 0.25 - 0.12, 0.35 - 0.08])
    assert diff.mean == pytest.approx(0.2) and diff.low > 0
    assert compare(adaptive, fixed, "drop_rate").mean == pytest.approx(-0.2)


def test_compare_unpaired_rejected(real_report):
    fixed = replications(real_report, "fixed", [5, 6])
    adaptive = replications(real_report, "adaptive", [99, 100])
    with pytest.raises(ValueError, match="paired"):
        compare(fixed, adaptive, "drop_rate")
    with pytest.raises(ValueError, match="length"):
        compare(fixed[:1], adaptive, "drop_rate")
