"""Handler-level edge tests for the baseline schemes' state machines."""

import pytest

from repro.cellular.spectrum import channels
from repro.protocols import (
    Acquisition,
    AcqType,
    AdvancedUpdateMSS,
    BasicSearchMSS,
    BasicUpdateMSS,
    NO_CHANNEL,
    Release,
    ReqType,
    Request,
    ResType,
    Response,
)

from conftest import drive, make_stack


# ------------------------------------------------------------ basic search ----
def test_search_responder_snapshot_is_frozen():
    env, net, topo, stations, monitor, metrics = make_stack(BasicSearchMSS)
    s = stations[0]
    j = sorted(topo.IN(0))[0]
    ch = drive(env, s.request_channel())
    sent = []
    env.subscribe(
        "net.send",
        lambda now, e: sent.append(e.payload)
        if isinstance(e.payload, Response)
        else None,
    )
    s._on_Request(Request(ReqType.SEARCH, NO_CHANNEL, (99.0, j), j, 1))
    snapshot = sent[-1].payload
    # Mutating use after responding must not affect the sent snapshot.
    s.use.add(55)
    assert 55 not in snapshot
    assert snapshot == frozenset({ch})
    s.use.discard(55)


def test_search_stale_response_is_ignored():
    env, net, topo, stations, monitor, metrics = make_stack(BasicSearchMSS)
    s = stations[0]
    # A response for a round that does not exist must not crash.
    s._on_Response(Response(ResType.SEARCH, 5, frozenset({1}), round_id=777))
    assert s._collector is None


def test_search_request_from_equal_ts_impossible_but_defended():
    env, net, topo, stations, monitor, metrics = make_stack(BasicSearchMSS)
    s = stations[0]
    j = sorted(topo.IN(0))[0]
    s._searching = True
    s._search_ts = (5.0, 0)
    # Older request (smaller ts) answered immediately even mid-search.
    s._on_Request(Request(ReqType.SEARCH, NO_CHANNEL, (1.0, j), j, 2))
    assert not s._deferred
    # Younger request deferred.
    s._on_Request(Request(ReqType.SEARCH, NO_CHANNEL, (9.0, j), j, 3))
    assert s._deferred == [(j, 3)]
    s._searching = False
    s._search_ts = None
    s._deferred.clear()


def test_search_rejects_update_requests():
    env, net, topo, stations, monitor, metrics = make_stack(BasicSearchMSS)
    s = stations[0]
    with pytest.raises(AssertionError):
        s._on_Request(Request(ReqType.UPDATE, 4, (1.0, 2), 2, 1))


# ------------------------------------------------------------ basic update ----
def test_update_grant_without_pending_conflict():
    env, net, topo, stations, monitor, metrics = make_stack(BasicUpdateMSS)
    s = stations[0]
    j = sorted(topo.IN(0))[0]
    s._on_Request(Request(ReqType.UPDATE, 9, (1.0, j), j, 4))
    env.run()
    # Granted (we don't use 9, no pending conflict): check via message
    # counters — exactly one Response was sent.
    assert net.sent_by_kind.get("Response") == 1


def test_update_pending_same_channel_older_wins():
    env, net, topo, stations, monitor, metrics = make_stack(BasicUpdateMSS)
    s = stations[0]
    j = sorted(topo.IN(0))[0]
    s._pending = (9, (5.0, 0))
    s._abort = False
    # Their request is older → we grant and abort our own attempt.
    s._on_Request(Request(ReqType.UPDATE, 9, (1.0, j), j, 4))
    assert s._abort is True
    # A younger competitor is rejected and does not abort us.
    s._abort = False
    s._on_Request(Request(ReqType.UPDATE, 9, (9.0, j), j, 5))
    assert s._abort is False
    s._pending = None


def test_update_mirrors_follow_acquisition_release():
    env, net, topo, stations, monitor, metrics = make_stack(BasicUpdateMSS)
    s = stations[0]
    j = sorted(topo.IN(0))[0]
    s._on_Acquisition(Acquisition(AcqType.NON_SEARCH, j, 13))
    assert 13 in channels(s.U[j])
    assert 13 in s.interfered()
    s._on_Release(Release(j, 13))
    assert 13 not in s.interfered()


def test_update_stale_response_ignored():
    env, net, topo, stations, monitor, metrics = make_stack(BasicUpdateMSS)
    s = stations[0]
    s._on_Response(Response(ResType.GRANT, 4, 9, round_id=321))
    assert s._collector is None


# --------------------------------------------------------- advanced update ----
def test_advanced_rejects_arbitration_for_foreign_channel():
    env, net, topo, stations, monitor, metrics = make_stack(AdvancedUpdateMSS)
    s = stations[0]
    foreign = min(set(range(70)) - set(topo.PR(0)))
    with pytest.raises(AssertionError, match="non-primary"):
        s._on_Request(Request(ReqType.UPDATE, foreign, (1.0, 2), 2, 1))


def test_advanced_same_requester_refreshes_grant():
    env, net, topo, stations, monitor, metrics = make_stack(AdvancedUpdateMSS)
    s = stations[0]
    ch = min(topo.PR(0))
    j = sorted(topo.IN(0))[0]
    assert s._arbitrate(ch, j, (1.0, j)) is ResType.GRANT
    # Retry from the same requester (e.g. lost release race) re-grants.
    assert s._arbitrate(ch, j, (2.0, j)) is ResType.GRANT
    assert s.outstanding[ch] == (j, (2.0, j))


def test_advanced_interference_aware_rejection_scope():
    env, net, topo, stations, monitor, metrics = make_stack(AdvancedUpdateMSS)
    s = stations[0]
    ch = min(topo.PR(0))
    user = sorted(topo.IN(0))[0]
    s._on_Acquisition(Acquisition(AcqType.NON_SEARCH, user, ch))
    # A requester far from the user may still be granted.
    far = next(
        c for c in topo.IN(0)
        if c != user and c not in topo.IN(user)
    )
    assert s._arbitrate(ch, far, (1.0, far)) is ResType.GRANT


def test_advanced_notify_sets_cover_arbiters():
    env, net, topo, stations, monitor, metrics = make_stack(AdvancedUpdateMSS)
    s = stations[0]
    for ch in range(0, 70, 17):
        if ch in topo.PR(0):
            continue
        notify = set(s._notify[ch])
        assert set(s.arbiters(ch)) <= notify
        assert set(topo.IN(0)) <= notify
