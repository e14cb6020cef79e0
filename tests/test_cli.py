"""Tests for the python -m repro command-line interface."""

import dataclasses
import json

import pytest

from repro import Scenario
from repro.__main__ import build_parser, main
from repro.faults import FaultPlan
from repro.snap import load_snapshot
from repro.traffic import HotspotLoad

#: The scenario the command line sets its flags on without --config / --preset.
CLI_BASE = Scenario(duration=3000.0, warmup=400.0)

#: Every scenario flag: its arguments, the field it sets and the value
#: it sets there (given the source scenario, where that matters).
SETS = {
    "--scheme": (["prakash"], "scheme", "prakash"),
    "--rows": (["9"], "rows", 9),
    "--cols": (["9"], "cols", 9),
    "--channels": (["49"], "num_channels", 49),
    "--cluster": (["4"], "cluster_size", 4),
    "--no-wrap": ([], "wrap", False),
    "--load": (["3.5"], "offered_load", 3.5),
    "--holding": (["90"], "mean_holding", 90.0),
    "--dwell": (["60"], "mean_dwell", 60.0),
    "--hotspot": (["3", "4"], "pattern", lambda source: HotspotLoad(
        source.arrival_rate, [3, 4], 20.0 / source.mean_holding)),
    "--duration": (["1000"], "duration", 1000.0),
    "--warmup": (["100"], "warmup", 100.0),
    "--seed": (["9"], "seed", 9),
    "--latency": (["2"], "latency_T", 2.0),
    "--alpha": (["3"], "alpha", 3),
    "--theta-low": (["0.5"], "theta_low", 0.5),
    "--theta-high": (["4"], "theta_high", 4.0),
    "--window": (["20"], "window", 20.0),
    "--policy": (["quantile"], "policy", "quantile"),
    "--faults": (["0.1"], "faults", FaultPlan.uniform_loss(0.1)),
}


def dumped(capsys, *argv):
    assert main([*argv, "--dump-config"]) == 0
    return json.loads(capsys.readouterr().out)


def test_parser_defaults(capsys):
    # A flag not given sets nothing: the namespace holds no scenario
    # field, and the scenario is the command line's base.
    args = build_parser().parse_args([])
    assert not {f.name for f in dataclasses.fields(Scenario)} & set(vars(args))
    assert not args.all_schemes
    assert dumped(capsys) == json.loads(CLI_BASE.to_json())


def test_every_scenario_flag_is_in_the_table():
    names = {f.name for f in dataclasses.fields(Scenario)}
    flags = {a.option_strings[0] for a in build_parser()._actions if a.dest in names}
    assert flags == set(SETS)


@pytest.mark.parametrize("flag", sorted(SETS))
@pytest.mark.parametrize("source", ["cli", "config"])
def test_each_scenario_flag_sets_the_field_it_names(flag, source, capsys, tmp_path):
    if source == "config":
        base = Scenario(scheme="fixed", rows=14, cols=14, offered_load=3.0, mean_holding=120.0,
                        duration=500.0, warmup=50.0, seed=4)
        config = tmp_path / "cfg.json"
        config.write_text(base.to_json())
        argv = ["--config", str(config)]
    else:
        base, argv = CLI_BASE, []
    args, name, value = SETS[flag]
    before = dumped(capsys, *argv)
    assert before == json.loads(base.to_json())
    after = dumped(capsys, *argv, flag, *args)
    value = value(base) if callable(value) else value
    assert after == json.loads(base.with_(**{name: value}).to_json())
    assert [key for key in after if after[key] != before[key]] == [name]


def test_scenario_with_hotspot_builds_pattern(capsys, tmp_path):
    s = Scenario.from_dict(dumped(capsys, "--hotspot", "3", "4", "--hot-load", "15", "--load", "2"))
    assert s.pattern is not None
    assert s.pattern.rate(3, 0) == pytest.approx(15 / 180)
    assert s.pattern.rate(0, 0) == pytest.approx(2 / 180)
    # The rates come from the scenario the flags make, not the base's.
    config = tmp_path / "cfg.json"
    config.write_text(Scenario(offered_load=6.0, mean_holding=90.0).to_json())
    s = Scenario.from_dict(dumped(capsys, "--config", str(config), "--hotspot", "3", "--load", "3"))
    assert s.pattern.rate(3, 0) == pytest.approx(20 / 90)
    assert s.pattern.rate(0, 0) == pytest.approx(3 / 90)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--config", "cfg.json", "--rows", "5"], {"rows": 5, "cols": 14}),
        (["--preset", "low_load", "--seed", "3", "--duration", "1000"],
         {"seed": 3, "duration": 1000.0, "offered_load": 1.0}),
        (["snapshot", "take", "--at", "10", "--config", "cfg.json", "--seed", "3"],
         {"seed": 3, "rows": 14}),
    ],
    ids=["config-rows", "preset-duration", "take-config-seed"],
)
def test_a_flag_next_to_a_source_sets_its_field(argv, named, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    config = Scenario(scheme="fixed", rows=14, cols=14, seed=4, duration=60.0, warmup=10.0)
    (tmp_path / "cfg.json").write_text(config.to_json())
    if argv[0] == "snapshot":
        assert main(argv) == 0
        scenario = load_snapshot("checkpoint.snap").scenario()
    else:
        scenario = Scenario.from_dict(dumped(capsys, *argv))
    assert {name: getattr(scenario, name) for name in named} == named


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

    def fields(data, *names):
        return [data[name] for name in names]

    # Without the flags the source's own scheme and seed run.
    assert fields(dumped(capsys, "--config", str(config)), "scheme", "rows", "seed") == ["fixed", 14, 4]
    assert fields(dumped(capsys, "--preset", "low_load"), "scheme", "offered_load", "seed") == [
        "adaptive", 1.0, 1
    ]
    flags = ["--scheme", "prakash", "--faults", "0.1", "--policy", "quantile"]
    for source in (["--config", str(config)], ["--preset", "low_load", "--seed", "9"]):
        data = dumped(capsys, *source, *flags)
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
        # A flag that cannot apply.
        (["--all-schemes", "--scheme", "fixed"],
         "argument --scheme: not allowed with argument --all-schemes"),
        (["--hot-load", "30"], "argument --hot-load: not allowed without argument --hotspot"),
        (["--hotspot"], "argument --hotspot: expected at least one argument"),
        (["--config", "cfg.json", "--preset", "low_load"],
         "argument --preset: not allowed with argument --config"),
    ],
    ids=[
        "load", "warmup", "inspect-missing", "inspect-garbage", "from-checkpoint", "load-nan",
        "latency-nan", "theta-nan", "duration-inf", "load-inf", "duration-nan", "warmup-negative",
        "warmup-nan", "take-at-nan", "take-trace", "take-dump-config", "run-scheme", "run-workers",
        "checkpoint-at-gone", "policy-bogus", "all-schemes-scheme", "hot-load-alone", "hotspot-bare",
        "config-preset",
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
