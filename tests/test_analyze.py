"""Tests for the ANA rule families and SIM006–SIM009 (``tools.check``).

Every rule gets a firing fixture module and a silent one, all run
through the full registry; the CLI and the real tree's cleanliness
are covered at the end.  Fixture trees mimic the ``src/repro`` layout
because every rule is path-scoped.
"""

import ast
import json
import pathlib
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import pytest  # noqa: E402

from tools.check import RULES, check_file, check_paths, iter_python_files  # noqa: E402
from tools.check.__main__ import main as check_main  # noqa: E402


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return str(path)


def codes(findings):
    return [f.code for f in findings]


#: A minimal protocol tree: base class, messages, one scheme.
_BASE = """
    class MSS:
        def _send(self, dst, payload):
            pass

        def _broadcast(self, payload, dsts=None):
            pass
"""

_MESSAGES = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Ping:
        sender: int
        channel: int
        note: str = ""

        def to_dict(self):
            return {"sender": self.sender}

    @dataclass(frozen=True)
    class Pong:
        sender: int
"""


def flow_findings(tmp_path, scheme_source):
    write(tmp_path, "src/repro/protocols/base.py", _BASE)
    write(tmp_path, "src/repro/protocols/messages.py", _MESSAGES)
    write(tmp_path, "src/repro/protocols/scheme.py", scheme_source)
    return check_paths([str(tmp_path / "src")])


# ------------------------------------------------------------------ ANA101 ----
def test_ana101_fires_on_sent_but_unhandled(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class LonelyMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))
        """,
    )
    assert codes(findings) == ["ANA101"]
    assert "_on_Ping" in findings[0].message


def test_ana101_silent_when_handler_exists(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class PairedMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))

            def _on_Ping(self, msg):
                return msg.channel
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ ANA102 ----
def test_ana102_fires_on_handler_never_sent(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS

        class DeafMSS(MSS):
            def _on_Pong(self, msg):
                return msg.sender
        """,
    )
    assert codes(findings) == ["ANA102"]


def test_ana102_silent_when_ancestor_sends(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Pong

        class ParentMSS(MSS):
            def reply(self):
                self._send(0, Pong(1))

            def _on_Pong(self, msg):
                pass

        class ChildMSS(ParentMSS):
            def _on_Pong(self, msg):
                return msg.sender
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ ANA103 ----
def test_ana103_fires_on_misfielded_access(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class TypoMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))

            def _on_Ping(self, msg):
                return msg.chanel  # typo'd field
        """,
    )
    assert codes(findings) == ["ANA103"]
    assert "chanel" in findings[0].message


def test_ana103_tolerates_fields_methods_and_annotated_helpers(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class FineMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))

            def _on_Ping(self, msg):
                self._log(msg)
                return msg.channel

            def _log(self, msg: Ping):
                return msg.to_dict(), msg.note
        """,
    )
    assert findings == []


def test_ana103_fires_inside_annotated_helper(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class HelperMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))

            def _on_Ping(self, msg):
                self._log(msg)

            def _log(self, msg: Ping):
                return msg.payload  # Ping has no payload
        """,
    )
    assert codes(findings) == ["ANA103"]


# ------------------------------------------------------------------ ANA104 ----
def test_ana104_fires_on_missing_required_field(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class ShortMSS(MSS):
            def poke(self):
                self._send(1, Ping(0))

            def _on_Ping(self, msg):
                pass
        """,
    )
    assert codes(findings) == ["ANA104"]
    assert "channel" in findings[0].message


def test_ana104_fires_on_unknown_keyword_and_duplicate(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class KwMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5, color="red"))
                self._send(1, Ping(0, 5, sender=2))

            def _on_Ping(self, msg):
                pass
        """,
    )
    assert codes(findings) == ["ANA104", "ANA104"]


def test_ana104_silent_on_star_args_and_defaults(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class StarMSS(MSS):
            def poke(self, args, kw):
                self._send(1, Ping(*args))
                self._send(1, Ping(0, 5, note="hi"))
                self._send(1, Ping(channel=5, sender=0))

            def _on_Ping(self, msg):
                pass
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ ANA201 ----
def file_findings(tmp_path, relpath, source):
    return check_file(write(tmp_path, relpath, source))


def test_ana201_fires_on_cross_cell_access(tmp_path):
    findings = file_findings(
        tmp_path,
        "src/repro/protocols/leaky.py",
        """
        class LeakyMSS:
            def peek(self, j):
                return self.network.node(j).use  # cross-cell state leak

            def poke(self, j):
                self.network._nodes[j].use.add(1)
        """,
    )
    assert codes(findings) == ["ANA201", "ANA201"]


def test_ana201_silent_in_allowlisted_files(tmp_path):
    findings = file_findings(
        tmp_path,
        "src/repro/sim/network.py",
        """
        ROUTES = {}

        class Network:
            def _deliver(self, msg):
                self._nodes[msg.dst].on_message(msg)
        """,
    )
    # The fabric may touch its own registry; nothing else is exempt there.
    assert [(f.code, f.line) for f in findings] == [("ANA203", 2)]


# ------------------------------------------------------------------ ANA202 ----
def test_ana202_fires_on_mutable_class_attribute(tmp_path):
    findings = file_findings(
        tmp_path,
        "src/repro/protocols/shared.py",
        """
        class SharedMSS:
            registry = {}
            peers: list = []
        """,
    )
    assert codes(findings) == ["ANA202", "ANA202"]


def test_ana202_silent_on_instance_state_and_immutables(tmp_path):
    findings = file_findings(
        tmp_path,
        "src/repro/protocols/clean.py",
        """
        class CleanMSS:
            MODES = ("local", "borrow")
            LIMIT = 3

            def __init__(self):
                self.registry = {}
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ ANA203 ----
def test_ana203_fires_on_mutable_module_global(tmp_path):
    findings = file_findings(
        tmp_path,
        "src/repro/core/globals.py",
        """
        ACTIVE_CELLS = set()
        __all__ = ["ACTIVE_CELLS"]
        """,
    )
    assert codes(findings) == ["ANA203"]


def test_ana203_silent_outside_sim_scope(tmp_path):
    findings = file_findings(
        tmp_path,
        "src/repro/harness/registry.py",
        "CACHE = {}\n",
    )
    assert findings == []


# ------------------------------------------------------------------ SIM006 ----
def det_findings(tmp_path, source, relpath="src/repro/protocols/x.py"):
    return file_findings(tmp_path, relpath, source)


def test_sim006_fires_on_dict_iteration_fanout(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        class X:
            def fan_out(self, verdicts):
                for j, verdict in verdicts.items():
                    self._send(j, verdict)
        """,
    )
    assert codes(findings) == ["SIM006"]


def test_sim006_silent_on_sorted_or_effect_free_iteration(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        class X:
            def fan_out(self, verdicts):
                for j in sorted(verdicts):
                    self._send(j, verdicts[j])

            def tally(self, verdicts):
                total = 0
                for j, verdict in verdicts.items():
                    total += verdict
                return total
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ SIM007 ----
def test_sim007_fires_on_identity_ordering(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        def pick(items):
            items.sort(key=id)
            return min(items, key=lambda x: hash(x))
        """,
    )
    assert codes(findings) == ["SIM007", "SIM007"]


def test_sim007_silent_on_domain_keys(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        def pick(items):
            return sorted(items, key=lambda x: x.cell)
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ SIM008 ----
def test_sim008_fires_on_popitem(tmp_path):
    findings = det_findings(tmp_path, "def f(d):\n    return d.popitem()\n")
    assert codes(findings) == ["SIM008"]


def test_sim008_silent_on_explicit_pop(tmp_path):
    findings = det_findings(tmp_path, "def f(d):\n    return d.pop(min(d))\n")
    assert findings == []


# ------------------------------------------------------------------ SIM009 ----
def test_sim009_fires_on_env_reads(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        import os

        def f():
            if os.getenv("FAST"):
                return 1
            return os.environ["MODE"]
        """,
    )
    assert codes(findings) == ["SIM009", "SIM009"]


def test_sim009_silent_outside_sim_scope(tmp_path):
    findings = det_findings(
        tmp_path,
        "import os\n\ndef f():\n    return os.getenv('FAST')\n",
        relpath="src/repro/harness/runner.py",
    )
    assert findings == []


# --------------------------------------------------------------------- CLI ----
def test_cli_end_to_end(tmp_path, capsys):
    write(tmp_path, "src/repro/protocols/base.py", _BASE)
    write(tmp_path, "src/repro/protocols/messages.py", _MESSAGES)
    write(
        tmp_path,
        "src/repro/protocols/scheme.py",
        """
        from .base import MSS
        from .messages import Ping

        class LonelyMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))
        """,
    )
    tree = str(tmp_path / "src")
    dot = tmp_path / "flow.dot"

    # A finding: exit 1, JSON output is the list of finding rows.
    rc = check_main([tree, "--format", "json", "--dot", str(dot)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert [f["code"] for f in out] == ["ANA101"]
    assert out[0]["url"] == "docs/CHECKS.md#ana101"
    assert "LonelyMSS" in dot.read_text()

    # Missing path: exit 2.
    assert check_main([str(tmp_path / "nope")]) == 2


def test_list_rules(capsys):
    assert check_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [out.count(rule.code) for rule in RULES] == [1] * 21


# ------------------------------------------------------------------ ANA3xx ----
def test_ana301_fires_on_unregistered_randomness(tmp_path):
    findings = file_findings(
        tmp_path,
        "src/repro/faults/sloppy.py",
        """
        import random
        import numpy as np
        from numpy.random import default_rng

        def jitter():
            return random.random() + np.random.rand()

        def fresh():
            return default_rng(7).random()
        """,
    )
    # The two global draws are SIM002's; the unregistered generator is ANA301's.
    assert codes(findings) == ["SIM002", "SIM002", "ANA301"]


def test_ana301_fires_on_from_random_import(tmp_path):
    findings = file_findings(
        tmp_path,
        "src/repro/traffic/sloppy.py",
        """
        from random import expovariate
        """,
    )
    assert codes(findings) == ["SIM002"]


def test_ana301_silent_in_allowlisted_files(tmp_path):
    # The registry itself and the adaptive tie-breaker are the
    # sanctioned generator factories (captured by the state codec).
    for relpath in ("src/repro/sim/rng.py", "src/repro/core/adaptive.py"):
        findings = file_findings(
            tmp_path,
            relpath,
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert findings == []


def test_ana202_and_ana203_fire_on_metrics_state(tmp_path):
    findings = file_findings(
        tmp_path,
        "src/repro/metrics/sloppy.py",
        """
        TALLIES = {}

        class Collector:
            shared = []
        """,
    )
    assert codes(findings) == ["ANA203", "ANA202"]


def test_snapshot_pass_ignores_out_of_scope_and_private_names(tmp_path):
    # A ``_`` prefix hides nothing from a snapshot: only dunders and
    # immutables are exempt (the stricter of the two merged rules).
    findings = file_findings(
        tmp_path,
        "src/repro/obs/tidy.py",
        """
        _PRIVATE_CACHE = {}
        FROZEN = frozenset({1, 2})
        __all__ = ["FROZEN"]
        """,
    )
    assert [(f.code, f.line) for f in findings] == [("ANA203", 2)]
    assert file_findings(tmp_path, "tools/bench_helper.py", "import random\n") == []


# ------------------------------------- one defect, one code, everywhere ----
#: code -> a file with that one defect; ``{noqa}`` sits on the defect's line.
_DEFECTS = {
    "ANA203": "TABLE = {{}}{noqa}\n",
    "ANA202": "class C:\n    seen = []{noqa}\n",
    "SIM002": "import random\nx = random.random(){noqa}\n",
    "ANA301": "import numpy as np\nrng = np.random.default_rng(7){noqa}\n",
    "ANA201": "def peek(net, j):\n    return net.node(j).use{noqa}\n",
}
#: Files the deleted allowlists hid from one pass or both.
_NAMED = ("sim/network.py", "protocols/monitor.py", "protocols/tracing.py", "policies/extra.py")
#: The only exemptions among those files and each rule's directories.
_EXEMPT = {
    "ANA201": {"src/repro/sim/network.py"},
    "ANA202": {"src/repro/sim/x.py", "src/repro/sim/network.py"},
}


@pytest.mark.parametrize("code", sorted(_DEFECTS))
def test_one_defect_one_code_suppressible_nowhere_invisible(tmp_path, code):
    rule = next(r for r in RULES if r.code == code)
    relpaths = [f"{d}/x.py" for d in rule.paths] + [f"src/repro/{name}" for name in _NAMED]
    exempt = {p for p in relpaths if any(e in p for e in rule.excludes)}
    assert exempt == _EXEMPT.get(code, set())
    for relpath in sorted(set(relpaths) - exempt):
        defect = _DEFECTS[code]
        fired = file_findings(tmp_path, relpath, defect.format(noqa=""))
        assert codes(fired) == [code], relpath
        pragma = f"  # repro: noqa({code})"
        assert file_findings(tmp_path, relpath, defect.format(noqa=pragma)) == [], relpath
        stale = file_findings(tmp_path, relpath, f"y = 1{pragma}\n")
        assert codes(stale) == ["SIM100"], relpath


# ---------------------------------------------------------------- ANA401 ----
def surface_findings(tmp_path, consumer_source, consumer="src/repro/user.py"):
    """ANA401 on a package whose one public def, ``spawn``, only ``consumer`` may use."""
    write(tmp_path, "src/repro/__init__.py", "")
    write(tmp_path, consumer, consumer_source)
    path = write(tmp_path, "src/repro/rng.py", "def spawn():\n    return 1\n")
    return codes(check_file(path))


def test_ana401_a_string_argument_is_not_a_reference(tmp_path):
    # A start-method name once kept a method of the same name alive.
    source = 'import multiprocessing\nctx = multiprocessing.get_context("spawn")\n'
    assert surface_findings(tmp_path, source) == ["ANA401"]


@pytest.mark.parametrize("builtin", ["getattr", "hasattr", "delattr"])
def test_ana401_an_attribute_builtins_name_is_a_reference(tmp_path, builtin):
    assert surface_findings(tmp_path, f'import repro.rng\n{builtin}(repro.rng, "spawn")\n') == []


def test_ana401_setattrs_name_is_a_reference(tmp_path):
    assert surface_findings(tmp_path, 'import repro.rng\nsetattr(repro.rng, "spawn", 1)\n') == []


def test_ana401_any_string_under_bench_is_a_reference(tmp_path):
    # The benchmark's tracer binds methods from tuples of their names.
    source = 'for attr in ("spawn", "other"):\n    print(attr)\n'
    assert surface_findings(tmp_path, source, consumer="bench/trace.py") == []


def test_ana401_an_export_table_entry_keeps_no_name(tmp_path):
    source = """
        from repro import lazy_exports

        __all__ = ["spawn"]
        _HARNESS_EXPORTS = ("spawn",)
        __getattr__, __dir__ = lazy_exports(__name__, {".rng": ("spawn",)})
    """
    assert surface_findings(tmp_path, source, consumer="src/repro/pkg/__init__.py") == ["ANA401"]


# ------------------------------------------------------------- real tree ----
def test_real_tree_has_no_unbaselined_findings(tmp_path, monkeypatch):
    """Clean under every rule — and each file is parsed once, ``--dot`` included."""
    parsed = []
    real_parse = ast.parse
    monkeypatch.setattr(
        ast, "parse", lambda *a, **kw: parsed.append(kw["filename"]) or real_parse(*a, **kw)
    )
    assert check_main(["src", "tools", "--dot", str(tmp_path / "flow.dot")]) == 0
    # ANA401 reads the rest of the program from disk, each file once too.
    consumers = [
        p for p in iter_python_files(["benchmarks", "examples", "bench"])
        if "tests" not in pathlib.Path(p).parts
    ]
    assert sorted(parsed) == sorted([*iter_python_files(["src", "tools"]), *consumers])


def test_real_tree_dot_covers_all_schemes(tmp_path):
    dot = tmp_path / "flow.dot"
    check_main(["src/repro", "--dot", str(dot)])
    for scheme in ("Adaptive", "AdvancedUpdate", "BasicSearch", "BasicUpdate", "Fixed", "Prakash"):
        assert f'"{scheme}MSS"' in dot.read_text()
