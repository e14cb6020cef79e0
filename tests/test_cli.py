"""Tests for the python -m repro command-line interface."""

import json

import pytest

from repro import Scenario
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
    assert out.startswith("load=1.5 Erlang/cell, seed=1\n")


def test_all_schemes_title_names_the_scenario_that_ran(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(Scenario(offered_load=9.0, seed=4, duration=60.0, warmup=10.0).to_json())
    assert main(["--config", str(config), "--all-schemes", "--no-cache"]) == 0
    assert capsys.readouterr().out.startswith("load=9.0 Erlang/cell, seed=4\n")


def test_the_flags_that_apply_next_to_a_source_still_apply(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(Scenario(scheme="fixed", rows=14, cols=14, seed=4).to_json())

    def dumped(*argv):
        assert main([*argv, "--dump-config"]) == 0
        return json.loads(capsys.readouterr().out)

    def fields(data, *names):
        return [data[name] for name in names]

    # Without the flags the source's own scheme and seed run.
    assert fields(dumped("--config", str(config)), "scheme", "rows", "seed") == ["fixed", 14, 4]
    assert fields(dumped("--preset", "low_load"), "scheme", "offered_load", "seed") == [
        "adaptive", 1.0, 1
    ]
    flags = ["--scheme", "prakash", "--faults", "0.1", "--policy", "quantile"]
    for source in (["--config", str(config)], ["--preset", "low_load", "--seed", "9"]):
        data = dumped(*source, *flags)
        assert fields(data, "scheme", "policy") == ["prakash", "quantile"]
        assert data["faults"]["drop_prob"] == 0.1
    assert fields(data, "seed", "offered_load") == [9, 1.0]


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
        (["snapshot", "run", "missing.snap"], "missing.snap"),
        (["--load", "nan"], "offered_load must be a number, got nan"),
        (["--latency", "nan"], "latency_T must be a number, got nan"),
        (["--theta-low", "nan"], "theta_low must be a number, got nan"),
        (["--duration", "inf"], "duration must be finite, got inf"),
        (["--load", "inf"], "offered_load must be finite, got inf"),
        (["--duration", "nan"], "duration must be a number, got nan"),
        (["--warmup", "-5"], "warmup must be >= 0, got -5"),
        (["--warmup", "nan"], "warmup must be a number, got nan"),
        (["snapshot", "take", "--at", "nan"], "checkpoint time must lie in [0, 3000), got nan"),
        # A flag that means nothing to the subcommand is no longer dropped.
        (["snapshot", "take", "--at", "100", "--trace", "d"], "unrecognized arguments: --trace d"),
        (["snapshot", "take", "--at", "100", "--dump-config"], "unrecognized arguments: --dump-config"),
        (["snapshot", "run", "x.snap", "--scheme", "fixed"], "unrecognized arguments: --scheme fixed"),
        (["snapshot", "run", "x.snap", "--workers", "2"], "unrecognized arguments: --workers 2"),
        (["--checkpoint-at", "100"], "unrecognized arguments: --checkpoint-at 100"),
        (["--scheme", "fixed", "--policy", "bogus"], "argument --policy: invalid choice: 'bogus'"),
        # A scenario flag the whole-scenario source would ignore.
        (["--config", "cfg.json", "--rows", "5"], "--rows not allowed with --config"),
        (["--preset", "low_load", "--seed", "3", "--duration", "100"],
         "--duration not allowed with --preset"),
        (["snapshot", "take", "--at", "10", "--config", "cfg.json", "--seed", "3"],
         "--seed not allowed with --config"),
    ],
    ids=[
        "load", "warmup", "inspect-missing", "inspect-garbage", "from-checkpoint", "load-nan",
        "latency-nan", "theta-nan", "duration-inf", "load-inf", "duration-nan", "warmup-negative",
        "warmup-nan", "take-at-nan", "take-trace", "take-dump-config", "run-scheme", "run-workers",
        "checkpoint-at-gone", "policy-bogus", "config-rows", "preset-duration", "take-config-seed",
    ],
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
    assert [path.name for path in tmp_path.iterdir()] == ["garbage.snap"]


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


def test_fastlane_is_gone_as_a_flag_and_as_a_config_key(capsys, tmp_path, nothing_constructed):
    config = tmp_path / "lane.json"
    config.write_text(json.dumps(dict(json.loads(Scenario().to_json()), fastlane=True)))
    for argv, said in (["--fastlane"], "unrecognized arguments: --fastlane"), (
        ["--config", str(config)], "fast lane was removed"
    ):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and said in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "UNORDERED"],
        ["snapshot", "take", "--at", "100", "--config", "UNORDERED"],
        # Five of the six cells are runnable: none may be simulated.
        ["--all-schemes", "--config", "UNORDERED"],
    ],
    ids=" ".join,
)
def test_rejected_combination_is_one_error_line_not_a_traceback(
    argv, capsys, monkeypatch, tmp_path_factory, nothing_constructed
):
    # Unordered links with the adaptive scheme: a --config file is the
    # one way to say fifo=False on the command line.
    config = tmp_path_factory.mktemp("config") / "unordered.json"
    config.write_text(Scenario(fifo=False, duration=300.0, warmup=50.0).to_json())
    cwd = tmp_path_factory.mktemp("cwd")
    monkeypatch.chdir(cwd)
    rc = main([str(config) if arg == "UNORDERED" else arg for arg in argv])
    assert rc == 2  # argparse's own code for a bad command line
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "FIFO" in err and "Traceback" not in err
    assert not list(cwd.iterdir())
