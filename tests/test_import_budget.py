"""What a run imports, read off ``sys.modules`` in a fresh interpreter.

A run imports only the packages it executes, and each optional package
loads at the build step that switches its feature on (DESIGN.md, "What
a run imports"): the fault layer with an enabled plan, the
observability layer with ``Scenario.obs``, the sanitizers under a
default policy, the adaptive scheme's core and mode policies with that
scheme, and one scheme module per scheme.  The conftest imports most of
the package, so every case runs in a child interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.faults import FaultPlan

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
SNAPSHOTS = pathlib.Path(__file__).parent / "data" / "snapshots_b425d78"

#: What a plain ``fixed`` run never executes.
DEFERRED = (
    "repro.faults",
    "repro.obs",
    "repro.verify",
    "repro.snap",
    "repro.core",
    "repro.policies",
    "repro.protocols.basic_search",
    "repro.protocols.basic_update",
    "repro.protocols.advanced_update",
    "repro.protocols.prakash",
    "repro.harness.cache",
    "repro.harness.parallel",
    "repro.harness.presets",
    "repro.harness.stats",
    "repro.harness.tables",
    "repro.harness.ascii_viz",
)

#: The features a scenario or the process switches on.
FEATURES = ("repro.faults", "repro.obs", "repro.verify")

_RUN = """
import json, sys
{setup}
from repro.harness import Scenario, run_scenario
run_scenario(Scenario.from_dict({scenario!r}))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

_CLI = """
import json, sys
from repro.__main__ import main
main({argv!r})
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

_RESTORE = """
import gzip, json, sys
from repro.snap import Snapshot, run_from_snapshot
report = run_from_snapshot(Snapshot.from_bytes(gzip.decompress(open({path!r}, "rb").read())))
row = {{k: v for k, v in vars(report).items() if k not in ("scenario", "obs", "metrics")}}
print(json.dumps(row))
"""


def child(code):
    """The last stdout line of ``code`` run in a fresh interpreter, as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "REPRO_CACHE": "off"},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded(scheme, setup="", **fields):
    scenario = dict(scheme=scheme, offered_load=8.0, duration=60.0, warmup=10.0, **fields)
    return set(child(_RUN.format(setup=setup, scenario=scenario)))


def under(modules, package):
    return {m for m in modules if m == package or m.startswith(package + ".")}


def test_a_fixed_run_loads_none_of_what_it_does_not_execute():
    cli = ["--scheme", "fixed", "--load", "8", "--duration", "60", "--warmup", "10",
           "--json", "--no-cache"]
    # The command line runs every scenario through run_cells.
    for modules, runs in (
        (loaded("fixed"), ()),
        (set(child(_CLI.format(argv=cli))), ("repro.harness.parallel",)),
    ):
        assert "repro.protocols.fixed" in modules
        assert [p for p in DEFERRED if p not in runs and under(modules, p)] == []
        assert "repro.protocols.messages" not in modules  # it sends none


def test_an_adaptive_run_loads_its_scheme_and_policies_only():
    modules = loaded("adaptive")
    assert {"repro.core.adaptive", "repro.policies.linear"} <= modules
    others = [p for p in DEFERRED if not p.startswith(("repro.core", "repro.policies"))]
    assert [p for p in others if under(modules, p)] == []
    assert "repro.protocols.fixed" not in modules


@pytest.mark.parametrize(
    "feature, setup, fields",
    [
        ("repro.faults", "", {"faults": FaultPlan.uniform_loss(0.05).to_dict()}),
        ("repro.obs", "", {"obs": 10.0}),
        (
            "repro.verify",
            "from repro.verify import set_default_policy; set_default_policy('raise')",
            {},
        ),
    ],
    ids=["fault plan", "obs", "sanitizer policy"],
)
def test_a_feature_loads_its_package_where_it_is_switched_on(feature, setup, fields):
    modules = loaded("fixed", setup, **fields)
    assert [p for p in FEATURES if under(modules, p)] == [feature]
    if feature == "repro.verify":
        assert "repro.verify.suite" in modules  # the checkers, not only the policy


@pytest.mark.parametrize("name", ["adaptive-faults", "prakash"])
def test_a_fresh_interpreter_restores_a_parent_snapshot_row_identically(name):
    # Decoding an in-flight Ack or PollResponse finds its class among
    # the message classes already imported: the build imports them.
    row = child(_RESTORE.format(path=str(SNAPSHOTS / f"{name}.snap.gz")))
    expected = dict(json.loads((SNAPSHOTS / "rows.json").read_text())[name]["row"])
    # The rows predate the removal of two Report columns that were always null here.
    assert expected.pop("regret_vs_oracle") is None and expected.pop("fastlane") is None
    assert row == expected
