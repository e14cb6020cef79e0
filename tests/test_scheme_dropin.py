"""A scheme is one file: a toy scheme nothing under ``src/`` has heard of.

``ToyMSS`` is fixed allocation that holds its last free primary in
reserve: a cell takes it only with the permission of one neighbour (its
*buddy*), who grants while it has primaries to spare itself.  Only own
primaries are ever used, so Theorem 1 holds by construction; the
permission round, the ``ToyNotice`` that follows a reserved grab, the
``ToyThanks`` that answers it (a reply type of the toy's own) and the
two counters are there to meet every layer a real scheme meets —
``MSS._open_round`` / ``_await_round`` and the hardened round deadline,
the ARQ payload codec, the causality sanitizer and its end-of-run round audit, the
snapshot walker, the CLI and the capability table.

The whole footprint is this module plus one entry in ``SCHEMES``, which
the ``toy`` fixture adds to the registry for one test at a time.  The
rounds' snapshot obstacle is ``MSS``'s own, so the ``SNAPSHOT`` tuple is
all the class declares.  Serial only: a spawned worker imports
``repro`` afresh and would not see the patch.
"""

import json
from dataclasses import dataclass

import pytest

from repro.__main__ import build_parser, main
from repro.harness import SCHEMES, CompatibilityError, Scenario, build_simulation, run_scenario
from repro.protocols import MSS, NO_CHANNEL, ReqType, Request, ResType, Response
from repro.sim.network import Message
from repro.snap import checkpoint, restore, run_from_snapshot, run_to_checkpoint

from conftest import HOSTILE_FAULTS, assert_drains_under_hostile_faults, drain, report_row

STOCK = ["adaptive", "advanced_update", "basic_search", "basic_update", "fixed", "prakash"]


@dataclass(frozen=True)
class ToyNotice(Message):
    """"I took my reserved primary ``channel``", told to the buddy."""

    sender: int
    channel: int
    round_id: int


@dataclass(frozen=True)
class ToyThanks(Message):
    """The buddy's answer to a ToyNotice: a reply type nothing under
    ``src/repro/verify`` names, known to the causality sanitizer by its mark."""

    is_reply = True

    sender: int
    round_id: int


class ToyMSS(MSS):
    """Fixed allocation; the last free primary needs the buddy's GRANT."""

    scheme = "toy"
    SNAPSHOT = ("heard", "refused")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.buddy = self.IN[0]
        self.heard = 0  # ToyNotices received
        self.refused = 0  # rounds that ended without a GRANT

    def _request(self, ts):
        self._attempts = 1
        self._grant_mode = "local"
        free = self.PR - self.use
        if len(free) > 1:
            channel = min(free)
            self._grab(channel)
            return channel
        if not free:
            return None
        self._grant_mode = "update"
        collector = self._open_round((self.buddy,))
        round_id = self._collector_round
        self._send(self.buddy, Request(ReqType.UPDATE, NO_CHANNEL, ts, self.cell, round_id))
        verdicts, complete = yield from self._await_round(collector)
        if not complete or verdicts[self.buddy] is not ResType.GRANT:
            self.refused += 1  # a silent buddy counts as a refusal
            return None
        channel = min(self.PR - self.use)  # requests are serialized: none was taken
        self._grab(channel)
        self._send(self.buddy, ToyNotice(self.cell, channel, round_id))
        return channel

    def _release(self, channel):
        self._drop_from_use(channel)

    def _on_Request(self, msg):
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        verdict = ResType.GRANT if len(self.PR - self.use) > 1 else ResType.REJECT
        self._send(msg.sender, Response(verdict, self.cell, msg.channel, msg.round_id))

    def _on_Response(self, msg):
        if self._awaited(msg, self._collector, self._collector_round):
            self._collector.deliver(msg.sender, msg.res_type)

    def _on_ToyNotice(self, msg):
        self.heard += 1
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        self._send(msg.sender, ToyThanks(self.cell, msg.round_id))

    def _on_ToyThanks(self, msg):
        pass


@pytest.fixture
def toy(monkeypatch):
    monkeypatch.setitem(SCHEMES, "toy", ToyMSS)


def busy(**overrides):
    """Loaded, and turning over fast, so that cells are at their last
    primary — and find their buddy there too — well before t = 80."""
    fields = dict(scheme="toy", offered_load=8.0, mean_holding=30.0, duration=200.0,
                  warmup=40.0, seed=5)
    fields.update(overrides)
    return Scenario(**fields)


def test_the_patch_is_undone_with_the_fixture():
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(SCHEMES, "toy", ToyMSS)
        assert sorted(SCHEMES) == sorted(STOCK + ["toy"])
    assert sorted(SCHEMES) == STOCK


def test_an_undeclared_scheme_is_refused_over_unordered_links(toy, nothing_constructed):
    # Unordered links need evidence: the toy declares no requires_fifo,
    # so it gets the default, True, and the capability table refuses.
    assert ToyMSS.requires_fifo
    with pytest.raises(CompatibilityError, match="scheme that requires FIFO links"):
        run_scenario(busy(fifo=False))


def test_toy_runs_clean_and_uses_both_paths(toy):
    report = run_scenario(busy())
    assert report.violations == 0
    assert report.offered == report.granted + report.dropped
    assert report.xi["local"] > 0 and report.xi["update"] > 0
    assert {"Request", "Response", "ToyNotice"} <= set(report.messages_by_kind)
    assert report.mode_changes == 0 and report.measured_n_borrow == 0.0


def test_toy_passes_the_trace_audits_when_drained(toy):
    sim = drain(build_simulation(busy()))
    sent = sim.network.sent_by_kind
    assert sent["Request"] == sent["Response"] > 0
    assert sum(s.heard for s in sim.stations.values()) == sent["ToyNotice"]
    assert sent["ToyThanks"] == sent["ToyNotice"]


def test_toy_reply_before_request_is_caught_by_its_mark(toy):
    sim = build_simulation(busy())
    station = sim.stations[0]
    with pytest.raises(AssertionError, match="reply_before_request"):
        sim.network.send(station.node_id, station.buddy, ToyThanks(station.cell, 99))


def test_toy_is_a_cli_scheme(toy, capsys):
    assert build_parser().parse_args(["--scheme", "toy"]).scheme == "toy"
    code = main(["--all-schemes", "--json", "--no-cache", "--load", "8", "--holding", "30",
                 "--duration", "120", "--warmup", "30"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["scheme"] for r in reports] == sorted(STOCK + ["toy"])
    assert all(r["violations"] == 0 for r in reports)


@pytest.mark.parametrize(
    "at, overrides",
    [(0.0, {}), (80.0, {}), (100.0, dict(offered_load=5.0, faults=HOSTILE_FAULTS))],
    ids=["cold", "warm", "warm-faults"],
)
def test_toy_snapshots_restore_exactly(toy, at, overrides):
    scenario = busy(**overrides)
    snap = run_to_checkpoint(scenario, at)
    assert snap.started == (at > 0.0)
    assert report_row(run_from_snapshot(snap)) == report_row(run_scenario(scenario))
    assert checkpoint(restore(snap)).to_bytes() == snap.to_bytes()
    if at > 0.0:
        stations = snap.state["stations"].values()
        assert any(s["heard"] for s in stations) and any(s["refused"] for s in stations)
    if overrides:
        # Unacknowledged in an ARQ window: the payload codec met the type.
        assert b"ToyNotice" in snap.to_bytes()


def test_toy_traces_without_an_analytical_model(toy, tmp_path, capsys):
    out = tmp_path / "trace"
    code = main(["--scheme", "toy", "--no-cache", "--load", "8", "--holding", "30",
                 "--duration", "120", "--warmup", "30", "--trace", str(out)])
    assert code == 0
    capsys.readouterr()
    (entry,) = json.loads((out / "manifest.json").read_text())["cells"]
    run_dir = out / entry["dir"]
    assert sorted(p.name for p in run_dir.iterdir()) == entry["files"]
    assert {"trace.json", "timeseries.csv", "kernel.json", "report.md"} <= set(entry["files"])
    assert "(no analytical model" in (run_dir / "report.md").read_text()
    events = json.loads((run_dir / "trace.json").read_text())["traceEvents"]
    assert any(e["name"] == "round.begin" for e in events)  # MSS._await_round's probe


def test_toy_requests_end_under_hostile_faults(toy):
    assert_drains_under_hostile_faults("toy")
