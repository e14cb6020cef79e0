"""Request-path tests for the adaptive scheme's Fig. 2 branches —
especially the waiting-gate and guarded-primary paths added by D3 and
the deadlock fix (DESIGN.md)."""

import pytest

from repro.cellular.spectrum import channels
from repro.core import AdaptiveMSS, Mode
from repro.protocols import Acquisition, AcqType, NO_CHANNEL, ReqType, Request

from conftest import drive, make_stack


def test_direct_local_acquire_when_not_waiting():
    env, net, topo, stations, monitor, metrics = make_stack(AdaptiveMSS)
    s = stations[0]
    ch = drive(env, s.request_channel())
    assert ch in topo.PR(0)
    rec = metrics.records[-1]
    assert rec.mode == "local"
    assert rec.acquisition_time == 0.0


def test_parks_behind_older_search(monkeypatch):
    env, net, topo, stations, monitor, metrics = make_stack(AdaptiveMSS)
    s = stations[0]
    searcher = sorted(topo.IN(0))[0]
    # We owe an ack to an OLDER search: request must park on the gate.
    # (The emit registers round 99 with the causality sanitizer, since
    # _respond_search is driven below the handler layer here.)
    env.emit("proto.request", (s.cell, searcher, 99))
    s._respond_search(searcher, (0.5, searcher), 99)
    assert s.waiting == 1

    result = {}

    def requester():
        # Starts at t=1 → ts (1.0, 0) which is younger than the owed
        # search at ts 0.5 → parking is allowed and must happen.
        yield env.timeout(1.0)
        ch = yield from s.request_channel()
        result["channel"] = ch
        result["done_at"] = env.now

    def acker():
        yield env.timeout(5.0)
        s._on_Acquisition(Acquisition(AcqType.SEARCH, searcher, NO_CHANNEL))

    env.process(requester())
    env.process(acker())
    env.run()
    assert result["channel"] in topo.PR(0)
    assert result["done_at"] == pytest.approx(5.0)  # woke exactly at ack


def test_guarded_round_when_owed_ack_is_younger():
    env, net, topo, stations, monitor, metrics = make_stack(AdaptiveMSS)
    s = stations[0]
    searcher = sorted(topo.IN(0))[0]

    result = {}

    def requester():
        yield env.timeout(1.0)
        # Before our request starts, we answered a YOUNGER search
        # (ts 10); parking would create an increasing wait-for edge, so
        # the request must run a guarded update round instead of
        # parking — completing in one round trip (2T), NOT waiting for
        # the searcher's ack.
        ch = yield from s.request_channel()
        result["channel"] = ch
        result["done_at"] = env.now

    def late_search():
        yield env.timeout(0.5)
        env.emit("proto.request", (s.cell, searcher, 99))
        s._respond_search(searcher, (10.0, searcher), 99)

    env.process(late_search())
    env.process(requester())
    env.run(until=20)
    assert result["channel"] in topo.PR(0)
    assert result["done_at"] == pytest.approx(3.0)  # 1.0 + 2T round
    assert metrics.records[-1].mode == "update"  # guarded, not local
    # The searcher's ack never arrived — and wasn't needed.
    assert s.waiting == 1


def test_guarded_round_grant_recorded_by_younger_searcher():
    # The safety half of the guarded path: all IN receive the REQUEST,
    # so any in-flight searcher records granted_out and avoids the
    # channel.
    env, net, topo, stations, monitor, metrics = make_stack(AdaptiveMSS)
    s = stations[0]
    j = sorted(topo.IN(0))[0]
    sj = stations[j]
    sj.mode = Mode.BORROW_SEARCH
    sj._req_ts = (10.0, j)  # younger than the requester below
    ch = min(s.PR)
    sj._handle_update_request(
        Request(ReqType.UPDATE, ch, (1.0, 0), 0, 5)
    )
    assert ch in channels(sj.granted_out[0])
    assert ch in sj.interfered()  # its later pick will skip ch
    sj.mode = Mode.LOCAL
    sj._req_ts = None


def test_borrow_retry_uses_same_timestamp():
    env, net, topo, stations, monitor, metrics = make_stack(AdaptiveMSS)
    s = stations[0]
    seen_ts = []
    orig = s._update_round

    def spy(channel, ts):
        seen_ts.append(ts)
        return orig(channel, ts)

    s._update_round = spy
    # Exhaust primaries, then force at least one borrow.
    for _ in range(len(topo.PR(0))):
        drive(env, s.request_channel())
    drive(env, s.request_channel())
    env.run()
    assert seen_ts  # at least one borrow round ran
    assert len({ts for ts in seen_ts}) <= len(
        [r for r in metrics.records if r.mode != "local"]
    ) or len(set(seen_ts)) == 1


def test_alpha_zero_goes_straight_to_search():
    env, net, topo, stations, monitor, metrics = make_stack(
        AdaptiveMSS, alpha=0
    )
    s = stations[0]
    for _ in range(len(topo.PR(0))):
        drive(env, s.request_channel())
    ch = drive(env, s.request_channel())
    assert ch is not None
    assert metrics.records[-1].mode == "search"


def test_request_while_mid_request_rejected():
    env, net, topo, stations, monitor, metrics = make_stack(AdaptiveMSS)
    s = stations[0]
    s.mode = Mode.BORROW_SEARCH
    with pytest.raises(AssertionError, match="concurrent"):
        drive(env, s._request((1.0, 0)))
    s.mode = Mode.LOCAL
