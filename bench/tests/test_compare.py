"""The compare verdict table, including the unresolved case."""

import json

import pytest

from bench import compare, spec
from bench.runner import summarize

CONTRACT = spec.load_contract()
BOUND = 0.10


def verdict(a, b, better="lower"):
    return compare.verdict(summarize(a), summarize(b), BOUND, better)


TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02]


@pytest.mark.parametrize("b, expected", [
    ([1.01, 1.02, 1.00, 1.01, 1.03], "same"),          # +1 %, inside the bound
    ([1.20, 1.21, 1.19, 1.20, 1.22], "worse"),         # +20 %
    ([0.80, 0.81, 0.79, 0.80, 0.82], "better"),        # -20 %
    ([0.70, 1.60, 0.95, 1.30, 1.05], "unresolved"),    # wide spread, runs overlap
    ([1.30, 1.70, 2.50, 2.20, 1.90], "worse"),         # wide spread, but every run loses
])
def test_verdicts_lower_is_better(b, expected):
    assert verdict(TIGHT, b) == expected


def test_verdict_respects_direction():
    faster = [x * 1.2 for x in TIGHT]
    assert verdict(TIGHT, faster, better="higher") == "better"
    assert verdict(TIGHT, faster, better="lower") == "worse"


def test_wide_spread_on_the_baseline_side_is_unresolved_too():
    assert verdict([0.70, 1.60, 0.95, 1.30, 1.05], TIGHT) == "unresolved"


def _results(run_wall, quick=False, failed=0, events=10, offered=1, stats=True):
    workloads = {}
    for w in CONTRACT["workloads"]:
        summaries = {m["name"]: summarize(TIGHT) for m in CONTRACT["end_to_end"]}
        summaries["run_wall_s"] = summarize(run_wall)
        workloads[w["name"]] = {
            "attempted": 7, "failed": failed, "stats": summaries if stats else {},
            "exact": {"sim.engine.events": events}, "fingerprint": {"offered": offered},
        }
    return {"provenance": {"quick": quick}, "workloads": workloads}


def test_compare_passes_on_same_and_fails_on_worse(tmp_path, capsys):
    paths = {}
    for name, data in {
        "a": _results(TIGHT),
        "same": _results([1.01, 1.02, 1.00, 1.01, 1.03]),
        "worse": _results([1.40, 1.41, 1.39, 1.40, 1.42]),  # beyond any bound the contract may fix
        "failing": _results(TIGHT, failed=1),
        "other_count": _results(TIGHT, events=11),
        "other_print": _results(TIGHT, offered=2),
        "no_samples": _results(TIGHT, stats=False),
        "quick": _results(TIGHT, quick=True),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    assert compare.main(paths["a"], paths["same"], CONTRACT) == 0
    out = capsys.readouterr().out
    assert "worse" not in out and "unresolved" not in out
    assert "counts identical, fingerprint identical" in out
    assert compare.main(paths["a"], paths["worse"], CONTRACT) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(paths["a"], paths["failing"], CONTRACT) == 1
    assert compare.main(paths["a"], paths["other_count"], CONTRACT) == 1
    assert "counts DIFFER, fingerprint identical" in capsys.readouterr().out
    assert compare.main(paths["a"], paths["other_print"], CONTRACT) == 1
    assert "counts identical, fingerprint DIFFERS" in capsys.readouterr().out
    assert compare.main(paths["a"], paths["no_samples"], CONTRACT) == 1
    assert "no samples in B" in capsys.readouterr().out
    assert compare.main(paths["a"], paths["quick"], CONTRACT) == 2
    assert "--quick" in capsys.readouterr().out
