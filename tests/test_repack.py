"""Tests for the channel-reassignment (repack) extension."""


from repro.cellular.spectrum import channels
from repro.core import AdaptiveMSS
from repro.harness import Scenario, run_scenario

from conftest import drive, make_stack


def repack_stack():
    return make_stack(AdaptiveMSS, repack=True)


def saturate(env, topo, stations, cell):
    got = [
        drive(env, stations[cell].request_channel())
        for _ in range(len(topo.PR(cell)))
    ]
    env.run()
    return got


def borrow_one(env, topo, stations, cell):
    ch = drive(env, stations[cell].request_channel())
    assert ch is not None and ch not in topo.PR(cell)
    env.run()
    return ch


def test_primary_release_retires_borrowed_channel():
    env, net, topo, stations, monitor, metrics = repack_stack()
    s = stations[0]
    primaries = saturate(env, topo, stations, 0)
    borrowed = borrow_one(env, topo, stations, 0)

    s.release_channel(primaries[0])
    env.run()
    # The borrowed channel was retired instead; the primary stays busy.
    assert borrowed not in s.use
    assert primaries[0] in s.use
    assert s.repacks == 1
    # The owners saw the release of the borrowed channel.
    for j in topo.IN(0):
        assert borrowed not in channels(stations[j].U[0])
        assert borrowed not in channels(stations[j].granted_out[0])


def test_alias_resolves_when_borrow_holder_releases():
    env, net, topo, stations, monitor, metrics = repack_stack()
    s = stations[0]
    primaries = saturate(env, topo, stations, 0)
    borrowed = borrow_one(env, topo, stations, 0)
    s.release_channel(primaries[0])  # moves borrowed call onto primary
    env.run()
    # The call that held `borrowed` ends: its release must resolve to
    # the primary it was moved to.
    s.release_channel(borrowed)
    env.run()
    assert primaries[0] not in s.use
    assert not s._alias
    assert monitor.channels_used_by(0) == set(s.use)


def test_chained_repacks_resolve():
    env, net, topo, stations, monitor, metrics = repack_stack()
    s = stations[0]
    primaries = saturate(env, topo, stations, 0)
    b1 = borrow_one(env, topo, stations, 0)
    b2 = borrow_one(env, topo, stations, 0)
    # Two primary releases retire both borrowed channels (highest first).
    s.release_channel(primaries[0])
    s.release_channel(primaries[1])
    env.run()
    assert b1 not in s.use and b2 not in s.use
    assert s.repacks == 2
    # Releasing the original borrow ids unwinds onto the primaries.
    s.release_channel(b1)
    s.release_channel(b2)
    env.run()
    assert primaries[0] not in s.use and primaries[1] not in s.use
    assert monitor.in_use == sum(len(x.use) for x in stations.values())


def test_no_repack_without_flag():
    env, net, topo, stations, monitor, metrics = make_stack(
        AdaptiveMSS, repack=False
    )
    s = stations[0]
    primaries = saturate(env, topo, stations, 0)
    borrowed = borrow_one(env, topo, stations, 0)
    s.release_channel(primaries[0])
    env.run()
    assert borrowed in s.use  # borrowed call untouched
    assert primaries[0] not in s.use


def test_repack_full_simulation_safe_and_helpful():
    base = Scenario(
        scheme="adaptive",
        offered_load=8.5,
        duration=1500.0,
        warmup=300.0,
        seed=93,
    )
    plain = run_scenario(base)
    packed = run_scenario(base.with_(extra_params={"repack": True}))
    assert packed.violations == 0
    # Repacking returns borrowed channels sooner, so it should never
    # hurt the drop rate materially.
    assert packed.drop_rate <= plain.drop_rate + 0.01
