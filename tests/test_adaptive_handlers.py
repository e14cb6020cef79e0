"""Handler-level tests for the adaptive scheme's Fig. 4/5/7/8 cases.

Each test puts one MSS into a precise mode/state and feeds it a single
message, asserting the exact response the pseudocode prescribes.
"""

import pytest

from repro.cellular.spectrum import channels
from repro.core import AdaptiveMSS, Mode
from repro.protocols import (
    Acquisition,
    AcqType,
    ChangeMode,
    NO_CHANNEL,
    Release,
    ReqType,
    Request,
    ResType,
    Response,
)

from conftest import make_stack


@pytest.fixture
def stack():
    return make_stack(AdaptiveMSS)


def station(stack):
    return stack[3][0]  # cell 0's MSS


def sent_responses(stack):
    """(dst, Response) pairs sent by any node, in order."""
    env, net = stack[0], stack[1]
    out = []
    orig = net.send

    def spy(src, dst, payload, **kw):
        if isinstance(payload, Response):
            out.append((src, dst, payload))
        return orig(src, dst, payload, **kw)

    net.send = spy
    return out


def neighbor_of(stack, i=0):
    topo = stack[2]
    return sorted(topo.IN(0))[i]


# ---------------------------------------------- Fig. 4, update requests ----
def test_update_request_local_mode_grants_free_channel(stack):
    s = station(stack)
    log = sent_responses(stack)
    j = neighbor_of(stack)
    ch = min(s.PR)
    s._on_Request(Request(ReqType.UPDATE, ch, (1.0, j), j, 5))
    assert log[-1][2].res_type is ResType.GRANT
    assert ch in channels(s.granted_out[j])
    assert ch in s.interfered()


def test_update_request_local_mode_rejects_used_channel(stack):
    env = stack[0]
    s = station(stack)
    log = sent_responses(stack)
    j = neighbor_of(stack)
    ch = env.run(until=env.process(s.request_channel()))
    s._on_Request(Request(ReqType.UPDATE, ch, (1.0, j), j, 5))
    assert log[-1][2].res_type is ResType.REJECT
    assert ch not in channels(s.granted_out[j])


def test_update_request_mode2_rejects_younger(stack):
    s = station(stack)
    log = sent_responses(stack)
    j = neighbor_of(stack)
    s.mode = Mode.BORROW_UPDATE
    s._req_ts = (1.0, 0)  # our pending request is older
    free_ch = max(s.spectrum)
    s._on_Request(Request(ReqType.UPDATE, free_ch, (2.0, j), j, 6))
    assert log[-1][2].res_type is ResType.REJECT


def test_update_request_mode2_grants_older(stack):
    s = station(stack)
    log = sent_responses(stack)
    j = neighbor_of(stack)
    s.mode = Mode.BORROW_UPDATE
    s._req_ts = (5.0, 0)
    free_ch = max(s.spectrum)
    s._on_Request(Request(ReqType.UPDATE, free_ch, (2.0, j), j, 6))
    assert log[-1][2].res_type is ResType.GRANT
    assert free_ch in channels(s.granted_out[j])


def test_update_request_mode3_defers_younger(stack):
    s = station(stack)
    j = neighbor_of(stack)
    s.mode = Mode.BORROW_SEARCH
    s._req_ts = (1.0, 0)
    s._on_Request(Request(ReqType.UPDATE, 40, (2.0, j), j, 6))
    assert len(s.DeferQ) == 1
    assert s.DeferQ[0][0] is ReqType.UPDATE


def test_update_request_mode3_rejects_older_for_used_channel(stack):
    # Deviation D4: safety check the pseudocode omits.
    env = stack[0]
    s = station(stack)
    log = sent_responses(stack)
    j = neighbor_of(stack)
    ch = env.run(until=env.process(s.request_channel()))
    s.mode = Mode.BORROW_SEARCH
    s._req_ts = (9.0, 0)
    s._on_Request(Request(ReqType.UPDATE, ch, (2.0, j), j, 6))
    assert log[-1][2].res_type is ResType.REJECT
    s.mode = Mode.LOCAL
    s._req_ts = None


# ---------------------------------------------- Fig. 4, search requests ----
def test_search_request_answered_with_use_set(stack):
    env = stack[0]
    s = station(stack)
    log = sent_responses(stack)
    j = neighbor_of(stack)
    ch = env.run(until=env.process(s.request_channel()))
    s._on_Request(Request(ReqType.SEARCH, NO_CHANNEL, (1.0, j), j, 7))
    resp = log[-1][2]
    assert resp.res_type is ResType.SEARCH
    assert ch in resp.payload
    assert s.waiting == 1


def test_search_request_deferred_by_older_pending_search(stack):
    s = station(stack)
    j = neighbor_of(stack)
    s.mode = Mode.BORROW_SEARCH
    s._req_ts = (1.0, 0)
    s._on_Request(Request(ReqType.SEARCH, NO_CHANNEL, (2.0, j), j, 7))
    assert len(s.DeferQ) == 1
    assert s.waiting == 0


def test_search_request_answered_when_ours_is_younger(stack):
    s = station(stack)
    log = sent_responses(stack)
    j = neighbor_of(stack)
    s.mode = Mode.BORROW_SEARCH
    s._req_ts = (9.0, 0)
    s._on_Request(Request(ReqType.SEARCH, NO_CHANNEL, (2.0, j), j, 7))
    assert log[-1][2].res_type is ResType.SEARCH
    assert s.waiting == 1


def test_search_request_deferred_by_parked_local_request(stack):
    s = station(stack)
    j = neighbor_of(stack)
    s.pending = True
    s._req_ts = (1.0, 0)
    s._on_Request(Request(ReqType.SEARCH, NO_CHANNEL, (2.0, j), j, 7))
    assert len(s.DeferQ) == 1
    s.pending = False
    s._req_ts = None


# ------------------------------------------------------- Fig. 5 / 7 / 8 ----
def test_change_mode_updates_membership_and_answers(stack):
    s = station(stack)
    log = sent_responses(stack)
    j = neighbor_of(stack)
    s._on_ChangeMode(ChangeMode(1, j, 9))
    assert j in s.UpdateS
    assert log[-1][2].res_type is ResType.STATUS
    s._on_ChangeMode(ChangeMode(0, j, 10))
    assert j not in s.UpdateS
    assert log[-1][2].res_type is ResType.STATUS


def test_acquisition_updates_mirror_and_ack(stack):
    s = station(stack)
    j = neighbor_of(stack)
    s._owed_acks[j] = (1.0, j)
    s._on_Acquisition(Acquisition(AcqType.SEARCH, j, 12))
    assert 12 in channels(s.U[j])
    assert s.waiting == 0


def test_failed_search_acquisition_still_acks(stack):
    s = station(stack)
    j = neighbor_of(stack)
    s._owed_acks[j] = (1.0, j)
    s._on_Acquisition(Acquisition(AcqType.SEARCH, j, NO_CHANNEL))
    assert s.waiting == 0
    assert NO_CHANNEL not in channels(s.U[j])


def test_unexpected_search_ack_raises(stack):
    s = station(stack)
    j = neighbor_of(stack)
    with pytest.raises(AssertionError, match="without an owed response"):
        s._on_Acquisition(Acquisition(AcqType.SEARCH, j, 12))


def test_release_clears_mirror_and_grant(stack):
    s = station(stack)
    j = neighbor_of(stack)
    s._mirror_add(s.U, j, 7)
    s._mirror_add(s.granted_out, j, 8)
    s._on_Release(Release(j, 7))
    s._on_Release(Release(j, 8))
    assert 7 not in channels(s.U[j])
    assert 8 not in channels(s.granted_out[j])
    assert 7 not in s.interfered() and 8 not in s.interfered()


def test_mirrors_cover_the_whole_region(stack):
    # One mask per neighbour of IN, in IN's order, and no other key.
    s = station(stack)
    j = neighbor_of(stack)
    s._mirror_add(s.U, j, 7)
    for mirrors in (s.U, s.granted_out):
        assert tuple(mirrors) == s.IN and s.cell not in mirrors
        with pytest.raises(KeyError):
            s._mirror_add(mirrors, s.cell, 7)
    assert [channels(m) for m in s.U.values()].count([7]) == 1
    assert channels(s.U[j]) == [7] and s.interfered() == {7}
    assert not any(s.granted_out.values())


def test_double_search_response_to_same_searcher_raises(stack):
    s = station(stack)
    j = neighbor_of(stack)
    # Register the rounds with the causality sanitizer: this test calls
    # _respond_search below the handler layer, so no request was seen.
    s.env.emit("proto.request", (s.cell, j, 1))
    s.env.emit("proto.request", (s.cell, j, 2))
    s._respond_search(j, (1.0, j), 1)
    with pytest.raises(AssertionError, match="second search response"):
        s._respond_search(j, (2.0, j), 2)
