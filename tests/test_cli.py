"""Tests for the python -m repro command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main, scenario_from_args


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.scheme == "adaptive"
    assert args.load == 5.0
    assert not args.all_schemes


def test_scenario_from_args_roundtrip():
    args = build_parser().parse_args(
        ["--scheme", "fixed", "--load", "3", "--rows", "7", "--seed", "9"]
    )
    s = scenario_from_args(args, args.scheme)
    assert s.scheme == "fixed"
    assert s.offered_load == 3.0
    assert s.seed == 9
    assert s.pattern is None


def test_scenario_with_hotspot_builds_pattern():
    args = build_parser().parse_args(
        ["--hotspot", "3", "4", "--hot-load", "15", "--load", "2"]
    )
    s = scenario_from_args(args, "adaptive")
    assert s.pattern is not None
    assert s.pattern.rate(3, 0) == pytest.approx(15 / 180)
    assert s.pattern.rate(0, 0) == pytest.approx(2 / 180)


def test_main_single_scheme_text(capsys):
    rc = main(
        ["--scheme", "fixed", "--load", "2", "--duration", "500",
         "--warmup", "100", "--seed", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheme=fixed" in out
    assert "drop rate" in out


def test_main_json_output(capsys):
    rc = main(
        ["--scheme", "fixed", "--load", "2", "--duration", "500",
         "--warmup", "100", "--json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert payload[0]["scheme"] == "fixed"
    assert payload[0]["violations"] == 0
    assert 0 <= payload[0]["drop_rate"] <= 1


def test_main_all_schemes_table(capsys):
    rc = main(
        ["--all-schemes", "--load", "1.5", "--duration", "400",
         "--warmup", "100"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for scheme in ["fixed", "adaptive", "basic_search", "prakash"]:
        assert scheme in out


def test_invalid_scheme_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--scheme", "bogus"])


def test_negative_workers_is_a_usage_error(capsys, nothing_constructed):
    # 0 means one per CPU; below that is not a count.
    with pytest.raises(SystemExit) as exited:
        main(["--workers", "-2"])
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --workers: must be 0 (one per CPU) or a positive count, got -2" in err
    assert build_parser().parse_args(["--workers", "0"]).workers == 0


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--load", "-3"], "offered_load must be >= 0, got -3"),
        (["--duration", "100", "--warmup", "200"], "duration 100 must exceed warmup 200"),
        (["snapshot", "inspect", "missing.snap"], "missing.snap"),
        (["snapshot", "inspect", "garbage.snap"], "garbage.snap: corrupt snapshot"),
        (["--from-checkpoint", "missing.snap"], "missing.snap"),
    ],
    ids=["load", "warmup", "inspect-missing", "inspect-garbage", "from-checkpoint"],
)
def test_bad_input_is_a_usage_error_not_a_traceback(
    argv, named, capsys, monkeypatch, tmp_path, nothing_constructed
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "garbage.snap").write_text("not a snapshot")
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "error: " in err.splitlines()[-1] and named in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--rows", "0"], "rows and cols must be >= 1"),
        (["--window", "0"], "window W must be positive"),
        (["--alpha", "-1"], "alpha must be >= 0"),
        (["--cluster", "5"], "5 is not a valid reuse cluster size"),
        (["--latency", "-1"], "latency must be positive"),
        (["--dwell", "0"], "mean_dwell must be positive"),
        (["--theta-low", "5", "--theta-high", "1"], "need theta_low <= theta_high"),
        (["--channels", "3"], "cell 3 has 0 primary channels"),
    ],
    ids=["rows", "window", "alpha", "cluster", "latency", "dwell", "theta", "channels"],
)
def test_a_failed_run_is_one_line_per_run_not_a_traceback(argv, named, capsys):
    assert main(argv + ["--duration", "50", "--warmup", "10", "--no-cache"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: 1 of 1 runs failed:")
    assert f"ValueError: {named}" in err


def test_shards_flag_is_gone_not_ignored(capsys, nothing_constructed):
    # One scenario runs on one kernel: a stale script must fail loudly.
    with pytest.raises(SystemExit) as exited:
        main(["--shards", "2"])
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --shards 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--scheme", "basic_update", "--fastlane"],
        ["--fastlane", "--faults", "0.05"],
        ["--fastlane", "--checkpoint-at", "100"],
        # Four of the six cells are not runnable: none may be simulated.
        ["--all-schemes", "--fastlane"],
    ],
    ids=" ".join,
)
def test_rejected_combination_is_one_error_line_not_a_traceback(
    argv, capsys, monkeypatch, tmp_path, nothing_constructed
):
    monkeypatch.chdir(tmp_path)
    rc = main(argv + ["--duration", "300", "--warmup", "50", "--no-cache"])
    assert rc == 2  # argparse's own code for a bad command line
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())
