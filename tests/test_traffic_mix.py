"""Tests for multi-class (voice/data) traffic mixes."""

import numpy as np
import pytest

from repro.protocols import FixedMSS
from repro.sim import StreamRegistry
from repro.traffic import CallConfig, TrafficClass, TrafficMix, TrafficSource, UniformLoad

from conftest import make_stack


def voice_data_mix(voice_weight=0.7):
    return TrafficMix(
        [
            TrafficClass("voice", voice_weight, CallConfig(mean_holding=180.0)),
            TrafficClass("data", 1 - voice_weight, CallConfig(mean_holding=20.0)),
        ]
    )


def test_mix_validation():
    with pytest.raises(ValueError):
        TrafficMix([])
    with pytest.raises(ValueError):
        TrafficClass("", 1.0, CallConfig())
    with pytest.raises(ValueError):
        TrafficClass("x", 0.0, CallConfig())
    with pytest.raises(ValueError):
        TrafficMix(
            [
                TrafficClass("a", 1.0, CallConfig()),
                TrafficClass("a", 1.0, CallConfig()),
            ]
        )


def test_sampling_follows_weights():
    mix = voice_data_mix(0.8)
    rng = np.random.default_rng(0)
    draws = [mix.sample(rng).name for _ in range(4000)]
    voice_frac = draws.count("voice") / len(draws)
    assert voice_frac == pytest.approx(0.8, abs=0.03)


def test_mean_holding_weighted():
    mix = voice_data_mix(0.5)
    assert mix.mean_holding == pytest.approx((180 + 20) / 2)


def test_source_accounts_per_class():
    env, net, topo, stations, monitor, metrics = make_stack(FixedMSS)
    mix = voice_data_mix(0.6)
    src = TrafficSource(
        env,
        stations,
        UniformLoad(0.02),
        mix,
        StreamRegistry(seed=4),
        horizon=1500.0,
    )
    src.start()
    env.run()  # drain
    voice, data = mix.logs["voice"], mix.logs["data"]
    assert voice.started > 0 and data.started > 0
    assert voice.started + data.started == src.log.started
    assert voice.completed + data.completed == src.log.completed
    # All calls resolved one way or the other.
    assert src.log.completed + src.log.blocked == src.log.started
    # Every channel returned.
    assert all(not s.use for s in stations.values())


def test_single_config_path_unchanged():
    env, net, topo, stations, monitor, metrics = make_stack(FixedMSS)
    src = TrafficSource(
        env,
        stations,
        UniformLoad(0.02),
        CallConfig(mean_holding=30.0),
        StreamRegistry(seed=4),
        horizon=500.0,
    )
    src.start()
    env.run()
    assert src.mix is None
    assert src.log.started > 0
    assert src.log.completed + src.log.blocked == src.log.started
