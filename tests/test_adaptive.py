"""Unit tests for the adaptive hybrid scheme (the paper's contribution)."""

import pytest

from repro.cellular.spectrum import channels
from repro.core import AdaptiveMSS, Mode
from repro.protocols import Acquisition, AcqType, ChangeMode, Release

from conftest import drive, drive_all, make_stack


def adaptive_stack(**kw):
    kw.setdefault("alpha", 2)
    kw.setdefault("theta_low", 1.0)
    kw.setdefault("theta_high", 3.0)
    kw.setdefault("window", 30.0)
    return make_stack(AdaptiveMSS, **kw)


# ------------------------------------------------------------- local mode ----
def test_local_acquisition_zero_time_zero_messages():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    ch = drive(env, stations[0].request_channel())
    assert ch in topo.PR(0)
    assert env.now == 0.0
    assert net.total_sent == 0  # nobody is borrowing: fully silent


def test_local_release_is_silent_without_borrowers():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    ch = drive(env, stations[0].request_channel())
    stations[0].release_channel(ch)
    assert net.total_sent == 0


def test_parameter_validation():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    with pytest.raises(ValueError):
        adaptive_stack(alpha=-1)
    with pytest.raises(ValueError):
        adaptive_stack(theta_low=5, theta_high=1)
    with pytest.raises(ValueError):
        adaptive_stack(window=0)


# ------------------------------------------------------- mode transitions ----
def test_enters_borrowing_when_primaries_deplete():
    env, net, topo, stations, monitor, metrics = adaptive_stack(
        theta_low=2.0, theta_high=4.0
    )
    s = stations[0]
    assert s.mode is Mode.LOCAL
    # Consume primaries quickly: the NFC predictor sees the crash.
    for _ in range(len(topo.PR(0))):
        drive(env, s.request_channel())
    assert s.mode is not Mode.LOCAL
    assert net.sent_by_kind.get("ChangeMode", 0) == len(topo.IN(0))


def test_neighbors_track_updates_set():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    s = stations[0]
    for _ in range(len(topo.PR(0))):
        drive(env, s.request_channel())
    env.run()
    for j in topo.IN(0):
        assert 0 in stations[j].UpdateS


def test_returns_to_local_when_load_clears():
    env, net, topo, stations, monitor, metrics = adaptive_stack(
        theta_low=1.0, theta_high=3.0, window=10.0
    )
    s = stations[0]
    channels = [drive(env, s.request_channel()) for _ in range(len(topo.PR(0)))]
    env.run()
    assert s.mode is Mode.BORROW_IDLE

    def unload():
        for ch in channels:
            yield env.timeout(20)
            s.release_channel(ch)

    drive(env, unload())
    env.run()
    assert s.mode is Mode.LOCAL
    for j in topo.IN(0):
        assert 0 not in stations[j].UpdateS


def test_acquisition_notifies_only_borrowing_neighbors():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    # Put one neighbor into borrowing mode.
    b = sorted(topo.IN(0))[0]
    for _ in range(len(topo.PR(b))):
        drive(env, stations[b].request_channel())
    env.run()
    assert b in stations[0].UpdateS
    before = net.sent_by_kind.get("Acquisition", 0)
    drive(env, stations[0].request_channel())
    sent = net.sent_by_kind.get("Acquisition", 0) - before
    assert sent == 1  # only to the single borrowing neighbor


# --------------------------------------------------------------- borrowing ----
def saturate(env, topo, stations, cell):
    """Use up every primary of a cell (entering borrowing mode)."""
    got = []
    for _ in range(len(topo.PR(cell))):
        ch = drive(env, stations[cell].request_channel())
        assert ch is not None
        got.append(ch)
    env.run()
    return got


def test_borrows_neighbor_primary_via_update():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    saturate(env, topo, stations, 0)
    ch = drive(env, stations[0].request_channel())
    assert ch is not None and ch not in topo.PR(0)
    owners = [j for j in topo.IN(0) if ch in topo.PR(j)]
    assert owners  # borrowed from somebody's primary set in the region
    rep = metrics.records[-1]
    assert rep.mode == "update"
    # 2T for the permission round trip.
    assert rep.acquisition_time == pytest.approx(2.0)


def test_borrow_update_message_cost_is_3N():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    saturate(env, topo, stations, 0)
    before = net.total_sent
    ch = drive(env, stations[0].request_channel())
    env.run()
    N = len(topo.IN(0))
    # N requests + N responses (grants); release comes at call end.
    sent = net.total_sent - before
    # Some grant-triggered check_mode chatter (CHANGE_MODE/STATUS) can
    # add messages; the core round is exactly 2N.
    assert sent >= 2 * N
    stations[0].release_channel(ch)
    assert net.sent_by_kind["Release"] >= N  # borrowed: release to all IN


def test_granters_record_borrow():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    saturate(env, topo, stations, 0)
    ch = drive(env, stations[0].request_channel())
    env.run()
    for j in topo.IN(0):
        assert ch in channels(stations[j].U[0] | stations[j].granted_out[0])
        assert ch in stations[j].interfered()


def test_best_prefers_fewest_common_borrowers():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    s = stations[0]
    # Mark some neighbors as borrowing.
    borrowers = sorted(topo.IN(0))[:3]
    for b in borrowers:
        s.UpdateS.add(b)
    free = set(range(70)) - set(topo.PR(0))
    best = s._best(free)
    assert best is not None
    assert best not in borrowers
    # The chosen target minimizes |UpdateS ∩ IN_j| over eligible js.
    def common(j):
        return len(s.UpdateS & set(topo.IN(j)))
    eligible = [
        j for j in s.IN
        if j not in s.UpdateS and (topo.PR(j) & free)
    ]
    assert common(best) == min(common(j) for j in eligible)


def test_best_returns_none_when_all_neighbors_borrowing():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    s = stations[0]
    s.UpdateS = set(topo.IN(0))
    assert s._best(set(range(70))) is None


def test_search_after_alpha_failed_rounds():
    env, net, topo, stations, monitor, metrics = adaptive_stack(alpha=0)
    saturate(env, topo, stations, 0)
    # α = 0: goes straight to borrowing search.
    ch = drive(env, stations[0].request_channel())
    assert ch is not None
    assert metrics.records[-1].mode == "search"
    env.run()  # flush the ACQUISITION broadcast
    for j in topo.IN(0):
        assert ch in channels(stations[j].U[0])


def test_search_failure_drops_and_unblocks_waiters():
    env, net, topo, stations, monitor, metrics = adaptive_stack(alpha=0)
    # Saturate the whole region of cell 0 so no channel is free.
    region = [0] + sorted(topo.IN(0))
    for cell in region:
        saturate(env, topo, stations, cell)
    # Everything both free and legal is gone now; next request searches
    # and must drop.
    before_drops = metrics.dropped
    ch = drive(env, stations[0].request_channel())
    env.run()
    assert ch is None
    assert metrics.dropped == before_drops + 1
    # Failed search still broadcast ACQUISITION(-1): nobody's waiting
    # counter leaks.
    assert all(s.waiting == 0 for s in stations.values())
    assert stations[0].mode is Mode.BORROW_IDLE
    assert stations[0].rounds == 0


def test_concurrent_interfering_borrows_distinct_channels():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    a, b = 0, sorted(topo.IN(0))[0]
    saturate(env, topo, stations, a)
    saturate(env, topo, stations, b)
    got = drive_all(
        env, [stations[a].request_channel(), stations[b].request_channel()]
    )
    granted = [g for g in got if g is not None]
    assert len(set(granted)) == len(granted)
    assert not monitor.violations


def test_search_sequentialization_two_searchers():
    env, net, topo, stations, monitor, metrics = adaptive_stack(alpha=0)
    a, b = 0, sorted(topo.IN(0))[0]
    saturate(env, topo, stations, a)
    saturate(env, topo, stations, b)
    got = drive_all(
        env, [stations[a].request_channel(), stations[b].request_channel()]
    )
    assert None not in got
    assert got[0] != got[1]
    assert not monitor.violations
    env.run()  # flush ACQUISITION broadcasts so acks land everywhere
    assert all(s.waiting == 0 for s in stations.values())


# ------------------------------------------------------ regression: races ----
def test_status_refresh_does_not_wipe_pending_grant():
    """Regression for deviation D6: a STATUS snapshot must not erase a
    grant for a borrow still in flight."""
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    s = stations[0]
    grantee = sorted(topo.IN(0))[0]
    ch = min(topo.PR(0))
    # We grant `ch` to the neighbor...
    s._mirror_add(s.granted_out, grantee, ch)
    # ...then a STATUS response from it arrives without the channel
    # (it hasn't completed its round yet).
    from repro.protocols import Response, ResType

    s._on_Response(Response(ResType.STATUS, grantee, frozenset(), 999))
    assert ch in s.interfered()  # still protected
    got = drive(env, s.request_channel())
    assert got != ch


def test_release_clears_pending_grant():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    s = stations[0]
    grantee = sorted(topo.IN(0))[0]
    ch = min(topo.PR(0))
    s._mirror_add(s.granted_out, grantee, ch)
    s._on_Release(Release(grantee, ch))
    assert ch not in s.interfered()


def test_acquisition_confirms_pending_grant():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    s = stations[0]
    grantee = sorted(topo.IN(0))[0]
    ch = min(topo.PR(0))
    s._mirror_add(s.granted_out, grantee, ch)
    s._on_Acquisition(Acquisition(AcqType.NON_SEARCH, grantee, ch))
    assert ch not in channels(s.granted_out[grantee])
    assert ch in channels(s.U[grantee])
    assert ch in s.interfered()


def test_high_load_no_deadlock_no_violation():
    """Regression for the wait-for-cycle deadlock found at saturation."""
    from repro import Scenario, run_scenario

    rep = run_scenario(
        Scenario(
            scheme="adaptive",
            offered_load=12.0,
            duration=900.0,
            warmup=200.0,
            seed=7,
        )
    )
    assert rep.offered > 1000  # requests actually completed post-warmup
    assert rep.violations == 0
    assert rep.drop_rate > 0  # overloaded: some calls must drop


# ------------------------------------------------------------ change mode ----
def test_change_mode_always_answered_with_status():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    s = stations[0]
    sender = sorted(topo.IN(0))[0]
    before = net.sent_by_kind.get("Response", 0)
    s._on_ChangeMode(ChangeMode(1, sender, 1))
    s._on_ChangeMode(ChangeMode(0, sender, 2))
    assert net.sent_by_kind["Response"] - before == 2
    assert sender not in s.UpdateS


def test_stale_status_responses_counted_not_crashing():
    env, net, topo, stations, monitor, metrics = adaptive_stack()
    s = stations[0]
    from repro.protocols import Response, ResType

    s._on_Response(Response(ResType.STATUS, sorted(topo.IN(0))[0], frozenset({3}), 12345))
    assert s.stale_responses == 1
    assert 3 in channels(s.U[sorted(topo.IN(0))[0]])


def test_hysteresis_reduces_flapping():
    # With θ_l == θ_h the mode oscillates more than with a gap.
    def run(theta_l, theta_h):
        env, net, topo, stations, monitor, metrics = adaptive_stack(
            theta_low=theta_l, theta_high=theta_h, window=10.0
        )
        s = stations[0]

        def churn():
            for _ in range(12):
                chans = []
                for _ in range(len(topo.PR(0))):
                    ch = yield from s.request_channel()
                    if ch is not None:
                        chans.append(ch)
                yield env.timeout(15)
                for ch in chans:
                    s.release_channel(ch)
                yield env.timeout(15)

        drive(env, churn())
        env.run()
        return s.mode_changes

    assert run(2.0, 2.0) >= run(1.0, 4.0)
