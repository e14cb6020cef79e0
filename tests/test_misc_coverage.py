"""Assorted edge-case coverage across small APIs."""


from repro.cellular import CellularTopology, HexGrid
from repro.harness import Scenario, render_table, run_scenario
from repro.sim import DeterministicLatency, Environment, Network


def test_run_until_current_time_is_noop():
    env = Environment()
    env.timeout(5)
    env.run(until=5)
    env.run(until=5)  # boundary: until == now
    assert env.now == 5


def test_network_node_accessors():
    env = Environment()
    net = Network(env, DeterministicLatency(1.0))

    class N:
        def __init__(self, i):
            self.node_id = i

        def on_message(self, e):
            pass

    a, b = N(1), N(2)
    net.attach(a)
    net.attach(b)
    assert net.node(1) is a


def test_ring_on_planar_edge_cell():
    g = HexGrid(4, 4, wrap=False)
    corner = 0
    ring1 = g.disk(corner, 1)
    assert 0 < len(ring1) < 6  # boundary cuts the ring
    assert all(g.distance(corner, c) == 1 for c in ring1)


def test_describe_weighted_partition():
    weights = {0: 16, 1: 9, 2: 9, 3: 9, 4: 9, 5: 9, 6: 9}
    topo = CellularTopology(
        7, 7, num_channels=70, wrap=True, channels_per_color=weights
    )
    text = topo.describe()
    assert "9-16 primaries/cell" in text


def test_render_table_no_rows():
    out = render_table(["a", "b"], [])
    assert "a" in out and "b" in out


def test_report_handoff_rate_without_mobility_is_zero():
    rep = run_scenario(
        Scenario(scheme="fixed", offered_load=2.0, duration=400.0,
                 warmup=100.0, mean_holding=60.0)
    )
    assert rep.handoff_failure_rate == 0.0
    assert rep.measured_n_borrow == 0.0


def test_report_mode_changes_zero_for_fixed():
    rep = run_scenario(
        Scenario(scheme="fixed", offered_load=2.0, duration=400.0,
                 warmup=100.0, mean_holding=60.0)
    )
    assert rep.mode_changes == 0


def test_adaptive_measured_n_borrow_populated():
    rep = run_scenario(
        Scenario(scheme="adaptive", offered_load=8.0, duration=600.0,
                 warmup=100.0, mean_holding=60.0, seed=4)
    )
    assert rep.measured_n_borrow > 0.0


def test_summary_mentions_all_key_metrics():
    rep = run_scenario(
        Scenario(scheme="adaptive", offered_load=4.0, duration=400.0,
                 warmup=100.0, mean_holding=60.0)
    )
    text = rep.summary()
    for needle in ("drop rate", "acquisition time", "messages",
                   "xi(local/update/search)", "fairness"):
        assert needle in text
