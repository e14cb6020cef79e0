"""Unit tests for the engine, SIM001–SIM012, ANA301 and ANA401 (``tools.check``).

Each rule gets a firing fixture and a silent fixture, plus noqa
suppression; finally the real tree must be clean.
"""

import pathlib
import re
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tools.check import RULES, STALE_NOQA_CODE, check_file, check_paths  # noqa: E402


def write(tmp_path, relpath, source):
    """Write ``source`` under a scope-matching relative path."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return str(path)


def codes(findings):
    return [f.code for f in findings]


# ------------------------------------------------------------------ SIM001 ----
def test_sim001_fires_on_wall_clock(tmp_path):
    path = write(
        tmp_path,
        "src/repro/sim/x.py",
        """
        import time
        from datetime import datetime

        def f():
            return time.time(), datetime.now()
        """,
    )
    assert codes(check_file(path)) == ["SIM001", "SIM001"]


def test_sim001_resolves_aliases(tmp_path):
    path = write(
        tmp_path,
        "src/repro/core/x.py",
        """
        import time as clock
        from time import monotonic as mono

        def f():
            return clock.perf_counter() + mono()
        """,
    )
    assert codes(check_file(path)) == ["SIM001", "SIM001"]


def test_sim001_silent_outside_scope_and_on_env_now(tmp_path):
    in_scope = write(
        tmp_path,
        "src/repro/protocols/x.py",
        """
        def f(env):
            return env.now  # simulated time: fine
        """,
    )
    out_of_scope = write(
        tmp_path,
        "src/repro/harness/x.py",
        """
        import time

        def wall():
            return time.time()  # harness timing a real run: allowed
        """,
    )
    assert check_file(in_scope) == []
    assert codes(check_file(out_of_scope)) == []


# ------------------------------------------------------------------ SIM002 ----
def test_sim002_fires_on_global_rng(tmp_path):
    path = write(
        tmp_path,
        "src/repro/traffic/x.py",
        """
        import random
        import numpy as np

        def f():
            return random.random() + np.random.rand()
        """,
    )
    assert codes(check_file(path)) == ["SIM002", "SIM002"]


def test_sim002_allows_seeded_generator_construction(tmp_path):
    path = write(
        tmp_path,
        "src/repro/traffic/x.py",
        """
        import numpy as np

        def f(seed):
            rng = np.random.default_rng(seed)
            return rng.random()
        """,
    )
    # SIM002 has no objection; *where* one may be built is ANA301's call.
    assert codes(check_file(path)) == ["ANA301"]


def test_sim002_exempts_rng_module(tmp_path):
    path = write(
        tmp_path,
        "src/repro/sim/rng.py",
        """
        import numpy as np

        def f(seed):
            return np.random.SeedSequence(seed)
        """,
    )
    assert check_file(path) == []


# ------------------------------------------------------------------ ANA301 ----
#: constructor -> a call of it (bare form; ``Generator`` needs a ``PCG64``).
ANA301_CALLS = {
    "default_rng": "default_rng(7)",
    "Generator": "Generator(PCG64(7))",
    "PCG64": "PCG64(7).random_raw()",
    "SeedSequence": "SeedSequence(7).entropy",
}


def ana301_imports(name):
    return "Generator, PCG64" if name == "Generator" else name


@pytest.mark.parametrize("name", sorted(ANA301_CALLS))
def test_ana301_fires_on_each_generator_constructor_dotted_and_bare(tmp_path, name):
    call = ANA301_CALLS[name]
    dotted = write(
        tmp_path,
        "src/repro/faults/x.py",
        f"""
        import numpy as np

        def f():
            return np.random.{call.replace("(PCG64", "(np.random.PCG64")}
        """,
    )
    bare = write(
        tmp_path,
        "src/repro/traffic/x.py",
        f"""
        from numpy.random import {ana301_imports(name)}

        def f():
            return {call}
        """,
    )
    nested = 2 if name == "Generator" else 1  # Generator(PCG64(7)) is two
    assert codes(check_file(dotted)) == ["ANA301"] * nested
    findings = check_file(bare)
    assert codes(findings) == ["ANA301"] * nested
    assert findings[0].message.startswith(f"{name}(...)")
    assert "streams.uniforms(...)" in findings[0].message


@pytest.mark.parametrize("name", sorted(ANA301_CALLS))
def test_ana301_takes_its_pragma_per_constructor(tmp_path, name):
    path = write(
        tmp_path,
        "src/repro/obs/x.py",
        f"""
        from numpy.random import {ana301_imports(name)}

        x = {ANA301_CALLS[name]}  # repro: noqa(ANA301)
        """,
    )
    assert check_file(path) == []


# ------------------------------------------------------------------ SIM003 ----
def test_sim003_fires_on_direct_use_mutation(tmp_path):
    path = write(
        tmp_path,
        "src/repro/core/x.py",
        """
        class P:
            def grab(self, ch):
                self.use.add(ch)

            def reset(self):
                self.use = set()
        """,
    )
    assert codes(check_file(path)) == ["SIM003", "SIM003"]


def test_sim003_silent_in_base_and_for_other_attrs(tmp_path):
    base = write(
        tmp_path,
        "src/repro/protocols/base.py",
        """
        class MSS:
            def _grab(self, ch):
                self.use.add(ch)  # the owner: allowed
        """,
    )
    other = write(
        tmp_path,
        "src/repro/protocols/x.py",
        """
        class P:
            def note(self, ch):
                self.pending.add(ch)  # not channel-use state
                other.use.add(ch)  # not *self* use
        """,
    )
    assert check_file(base) == []
    assert check_file(other) == []


# ------------------------------------------------------------------ SIM004 ----
def test_sim004_fires_on_direct_handler_call(tmp_path):
    path = write(
        tmp_path,
        "src/repro/protocols/x.py",
        """
        class P:
            def shortcut(self, msg, peer):
                self._on_Request(msg)
                peer.on_message(msg)
        """,
    )
    assert codes(check_file(path)) == ["SIM004", "SIM004"]


def test_sim004_silent_on_definitions_and_sends(tmp_path):
    path = write(
        tmp_path,
        "src/repro/protocols/x.py",
        """
        class P:
            def _on_Request(self, msg):
                self._send(msg.sender, msg)
        """,
    )
    assert check_file(path) == []


# ------------------------------------------------------------------ SIM005 ----
def test_sim005_fires_on_bare_except_in_handler(tmp_path):
    path = write(
        tmp_path,
        "src/repro/protocols/x.py",
        """
        class P:
            def _on_Request(self, msg):
                try:
                    self.grant(msg)
                except:
                    pass

            def on_message(self, env):
                try:
                    self.dispatch(env)
                except Exception:
                    pass
        """,
    )
    assert codes(check_file(path)) == ["SIM005", "SIM005"]


def test_sim005_silent_on_specific_and_handled_exceptions(tmp_path):
    path = write(
        tmp_path,
        "src/repro/core/x.py",
        """
        class P:
            def _on_Request(self, msg):
                try:
                    self.grant(msg)
                except ValueError:
                    self.reject(msg)

            def on_message(self, env):
                try:
                    self.dispatch(env)
                except Exception:
                    self.log(env)  # not swallowed: acted upon
                    raise
        """,
    )
    assert check_file(path) == []


def test_sim005_silent_outside_handlers(tmp_path):
    path = write(
        tmp_path,
        "src/repro/protocols/x.py",
        """
        def helper():
            try:
                risky()
            except:
                pass
        """,
    )
    assert check_file(path) == []


# ------------------------------------------------------------------ SIM010 ----
def test_sim010_fires_on_unguarded_and_mismatched_emits(tmp_path):
    path = write(
        tmp_path,
        "src/repro/core/x.py",
        """
        class P:
            def bare(self):
                self.env.emit("mode.change", (self.cell,))

            def typo(self):
                if "mode.chnage" in self._probes:
                    self.env.emit("mode.change", (self.cell,))

            def not_directly_under(self):
                if "wait.block" in self._probes:
                    for j in self.IN:
                        self.env.emit("wait.block", (self.cell, j))

            def wrong_table(self, listeners):
                if "mode.change" in listeners:
                    self.env.emit("mode.change", (self.cell,))

            def computed(self, kind, other):
                if other in self._probes:
                    self.env.emit(kind, None)
        """,
    )
    findings = check_file(path)
    assert codes(findings) == ["SIM010"] * 5
    assert [f.line for f in findings] == [4, 8, 13, 17, 21]
    assert "guard on 'mode.chnage'" in findings[1].message
    assert "unguarded emit" in findings[0].message


def test_sim010_silent_on_guarded_emits_and_outside_scope(tmp_path):
    in_scope = write(
        tmp_path,
        "src/repro/faults/x.py",
        """
        class P:
            def literal(self, network):
                if "net.send" in network._probes:
                    network.env.emit("net.send", self)
                    self.count += 1

            def computed(self, kind):
                key = f"fault.{kind}"
                if key in self._probes:
                    self.env.emit(key, None)
                if f"fault.{kind}" in self._probes:
                    self.env.emit(f"fault.{kind}", None)

            def emit(self, kind, payload=None):  # a definition, not a site
                return self._probes.get(kind)
        """,
    )
    out_of_scope = write(
        tmp_path,
        "src/repro/obs/x.py",
        """
        def replay(env):
            env.emit("mode.change", None)
        """,
    )
    assert check_file(in_scope) == []
    assert check_file(out_of_scope) == []


def test_sim010_honours_noqa_and_flags_a_stale_one(tmp_path):
    path = write(
        tmp_path,
        "src/repro/harness/x.py",
        """
        def f(env, probes):
            env.emit("cell.halt", None)  # repro: noqa(SIM010)
            if "cell.resume" in env._probes:
                env.emit("cell.resume", None)  # repro: noqa(SIM010)
        """,
    )
    findings = check_file(path)
    assert codes(findings) == ["SIM100"]
    assert findings[0].line == 5


# ------------------------------------------------------------------ SIM011 ----
def test_sim011_fires_on_direct_send_and_bare_done_wait(tmp_path):
    path = write(
        tmp_path,
        "src/repro/protocols/x.py",
        """
        class P:
            def _request(self, ts):
                self.network.send(self.cell, 3, ts)
                replies = yield self._transfer_collector.done
                self.network.multicast(self.cell, self.IN, replies)
        """,
    )
    findings = check_file(path)
    assert codes(findings) == ["SIM011"] * 3
    assert [f.line for f in findings] == [4, 5, 6]


def test_sim011_silent_in_base_and_on_the_base_api(tmp_path):
    base = write(
        tmp_path,
        "src/repro/protocols/base.py",
        """
        class MSS:
            def _send(self, dst, payload):
                self.network.send(self.cell, dst, payload)

            def _await_round(self, collector):
                yield collector.done
        """,
    )
    scheme = write(
        tmp_path,
        "src/repro/core/x.py",
        """
        class P:
            def _request(self, ts):
                collector = self._open_round(self.IN)
                self._broadcast(ts)
                self._link.send(3, ts)  # not the fabric
                replies, complete = yield from self._await_round(collector)
                yield self._gate.wait()
        """,
    )
    out_of_scope = write(
        tmp_path,
        "src/repro/faults/x.py",
        """
        class Link:
            def send(self, dst, payload):
                self.network.send(self.cell, dst, payload)
        """,
    )
    assert check_file(base) == []
    assert check_file(scheme) == []
    assert check_file(out_of_scope) == []


# ------------------------------------------------------------------ SIM012 ----
def test_sim012_fires_on_bit_count_and_takes_its_pragma(tmp_path):
    path = write(
        tmp_path,
        "src/repro/cellular/x.py",
        """
        def free(m):
            return m.bit_count(), (m & 7).bit_count()  # repro: noqa(SIM012)

        def held(m):
            return int.bit_count(m), bin(m).count("1")
        """,
    )
    findings = check_file(path)
    assert codes(findings) == ["SIM012"]
    assert findings[0].line == 6
    outside = write(tmp_path, "tools/x.py", "n = (5).bit_count()\n")
    assert check_file(outside) == []


# ------------------------------------------------------------- suppression ----
def test_noqa_suppresses_named_rule(tmp_path):
    path = write(
        tmp_path,
        "src/repro/sim/x.py",
        """
        import time

        def f():
            return time.time()  # repro: noqa(SIM001)
        """,
    )
    assert check_file(path) == []


def test_noqa_only_suppresses_named_rules(tmp_path):
    path = write(
        tmp_path,
        "src/repro/core/x.py",
        """
        import time

        def f(self):
            self.use.add(time.time())  # repro: noqa(SIM003)
        """,
    )
    assert codes(check_file(path)) == ["SIM001"]


def test_bare_noqa_suppresses_everything(tmp_path):
    path = write(
        tmp_path,
        "src/repro/core/x.py",
        """
        import time

        def f(self):
            self.use.add(time.time())  # repro: noqa
        """,
    )
    assert check_file(path) == []


def test_stale_bare_noqa_flagged(tmp_path):
    path = write(
        tmp_path,
        "src/repro/sim/x.py",
        """
        def f(x):
            return x + 1  # repro: noqa
        """,
    )
    findings = check_file(path)
    assert codes(findings) == ["SIM100"]
    assert "bare" in findings[0].message


def test_stale_named_noqa_flagged(tmp_path):
    path = write(
        tmp_path,
        "src/repro/sim/x.py",
        """
        def f(x):
            return x + 1  # repro: noqa(SIM001)
        """,
    )
    findings = check_file(path)
    assert codes(findings) == ["SIM100"]
    assert "SIM001" in findings[0].message


def test_used_noqa_is_not_stale(tmp_path):
    path = write(
        tmp_path,
        "src/repro/sim/x.py",
        """
        import time

        def f():
            return time.time()  # repro: noqa(SIM001)

        def g():
            return time.time()  # repro: noqa
        """,
    )
    assert check_file(path) == []


def test_foreign_runner_codes_not_judged_stale(tmp_path):
    # A pragma for a rule scoped elsewhere (SIM003: protocols, core) or
    # left out of ``rules=`` is not judged by a run that never evaluates it.
    path = write(
        tmp_path,
        "src/repro/sim/x.py",
        """
        def f(self, d):
            self.use = d  # repro: noqa(SIM003)
            return d.popitem()  # repro: noqa(SIM008)
        """,
    )
    assert check_file(path) == []
    assert check_file(path, rules=[r for r in RULES if r.code != "SIM008"]) == []


def test_stale_noqa_cannot_suppress_itself(tmp_path):
    path = write(
        tmp_path,
        "src/repro/sim/x.py",
        """
        def f(x):
            return x + 1  # repro: noqa(SIM100)
        """,
    )
    assert codes(check_file(path)) == ["SIM100"]


# ----------------------------------------------------------- shared schema ----
def test_finding_to_dict_schema(tmp_path):
    path = write(
        tmp_path,
        "src/repro/sim/x.py",
        """
        import time
        t = time.time()
        """,
    )
    payload = check_file(path)[0].to_dict()
    assert payload["code"] == "SIM001"
    assert payload["path"] == path
    assert payload["line"] == 3
    assert payload["col"] == 4
    assert payload["url"] == "docs/CHECKS.md#sim001"
    assert "time.time()" in payload["message"]


def test_cli_json_format(tmp_path, capsys):
    import json

    from tools.check.__main__ import main as check_main

    path = write(
        tmp_path,
        "src/repro/sim/x.py",
        """
        import time
        t = time.time()
        """,
    )
    assert check_main([path, "--format", "json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [f["code"] for f in out] == ["SIM001"]
    assert set(out[0]) == {"code", "path", "line", "col", "message", "url"}


# ------------------------------------------------------------------ ANA401 ----
def package(tmp_path, module, consumers=()):
    """A tmp tree laid out like the repo: the package, one module, consumers."""
    write(tmp_path, "src/repro/__init__.py", "")
    for relpath, source in consumers:
        write(tmp_path, relpath, source)
    return write(tmp_path, "src/repro/mod.py", module)


def test_ana401_flags_a_def_only_tests_use(tmp_path):
    path = package(
        tmp_path,
        """
        def helper():
            return 1
        """,
        [("tests/test_mod.py", "from repro.mod import helper\nassert helper()\n")],
    )
    findings = check_file(path)
    assert codes(findings) == ["ANA401"] and findings[0].line == 2
    assert "helper" in findings[0].message


@pytest.mark.parametrize("consumer", ["benchmarks/test_x.py", "examples/demo.py"])
def test_ana401_silent_when_benchmarks_or_examples_use_it(tmp_path, consumer):
    path = package(
        tmp_path,
        "def helper():\n    return 1\n",
        [(consumer, "from repro.mod import helper\nprint(helper())\n")],
    )
    assert check_file(path) == []


def test_ana401_all_entry_and_reexport_are_not_uses(tmp_path):
    path = package(tmp_path, "def helper():\n    return 1\n")
    write(
        tmp_path,
        "src/repro/__init__.py",
        """
        from .mod import helper

        __all__ = ["helper"]
        _HARNESS_EXPORTS = ("helper",)
        """,
    )
    assert codes(check_file(path)) == ["ANA401"]


def test_ana401_exempts_registered_defs_and_dunders_but_checks_properties(tmp_path):
    path = package(
        tmp_path,
        """
        def register(fn):
            return fn

        @register
        def plugin():
            pass

        class Thing:
            def __init__(self):
                self.n = 0

            def __len__(self):
                return self.n

            @property
            def size(self):
                return self.n

            @size.setter
            def size(self, n):
                self.n = n
        """,
        [("examples/demo.py", "from repro.mod import Thing\nThing()\n")],
    )
    assert [(f.code, f.line) for f in check_file(path)] == [("ANA401", 17), ("ANA401", 21)]


def test_ana401_pragma_silences_and_goes_stale_once_src_calls_it(tmp_path):
    path = package(
        tmp_path,
        "def helper():  # repro: noqa(ANA401) tests/test_mod.py\n    return 1\n",
    )
    assert check_file(path) == []
    write(tmp_path, "src/repro/user.py", "from .mod import helper\n\nVALUE = helper()\n")
    assert codes(check_file(path)) == ["SIM100"]


def test_ana401_verdict_does_not_depend_on_the_paths_given(tmp_path):
    path = package(
        tmp_path,
        """
        def helper():
            return 1

        def unused():
            return helper()
        """,
        [("tools/report.py", "from repro.mod import helper\nprint(helper())\n")],
    )
    whole = [f for f in check_paths([str(tmp_path)]) if f.path == path]
    assert check_file(path) == whole and codes(whole) == ["ANA401"]
    events = str(ROOT / "src/repro/sim/events.py")
    assert check_file(events) == [f for f in check_paths([str(ROOT / "src")]) if f.path == events]


def test_every_ana401_keeper_names_a_consumer_that_uses_it():
    pragma = re.compile(r"(?:def|class) (\w+)\b.*# repro: noqa\(ANA401\) (\S+)")
    keepers = [
        m.groups()
        for path in (ROOT / "src/repro").rglob("*.py")
        for m in pragma.finditer(path.read_text())
    ]
    assert keepers
    for name, consumer in keepers:
        assert re.search(rf"\b{name}\b", (ROOT / consumer).read_text()), (name, consumer)


# ------------------------------------------------------------------ engine ----
def test_syntax_error_reported_not_raised(tmp_path):
    path = write(tmp_path, "src/repro/sim/x.py", "def broken(:\n")
    assert codes(check_file(path)) == ["SIM000"]


def test_finding_format_and_location(tmp_path):
    path = write(
        tmp_path,
        "src/repro/sim/x.py",
        """
        import time
        t = time.time()
        """,
    )
    finding = check_file(path)[0]
    assert str(finding) == (
        f"{path}:3:4: SIM001 wall-clock call time.time() in simulation "
        "code; simulated time must come from env.now"
    )


def test_registry_codes_unique_and_documented():
    seen = [rule.code for rule in RULES]
    assert seen == sorted(set(seen))
    headings = re.findall(r"^### ((?:SIM|ANA)\d{3}) ", (ROOT / "docs/CHECKS.md").read_text(), re.M)
    assert sorted(headings) == sorted(seen + [STALE_NOQA_CODE]) and len(headings) == 22
    for rule in RULES:
        assert rule.description
        assert rule.paths


def test_repository_tree_is_clean():
    findings = check_paths(
        [str(ROOT / p) for p in ("src", "tools", "benchmarks", "examples", "bench")]
    )
    assert findings == [], "\n".join(str(f) for f in findings)
