"""Property-based tests (hypothesis) on core data structures and the
end-to-end safety/liveness invariants."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import erlang_b
from repro.cellular import Hex, HexGrid, ReusePattern, Spectrum, hex_distance
from repro.core import NFCWindow
from repro.harness import SCHEMES, Scenario, run_scenario
from repro.sim import Environment

hexes = st.builds(
    Hex, st.integers(-30, 30), st.integers(-30, 30)
)


# ------------------------------------------------------------ hex geometry ----
@given(hexes, hexes)
def test_hex_distance_symmetric(a, b):
    assert hex_distance(a, b) == hex_distance(b, a)


@given(hexes, hexes, hexes)
def test_hex_distance_triangle_inequality(a, b, c):
    assert hex_distance(a, c) <= hex_distance(a, b) + hex_distance(b, c)


@given(hexes)
def test_hex_distance_identity(a):
    assert hex_distance(a, a) == 0


@given(hexes, hexes)
def test_hex_distance_translation_invariant(a, b):
    shift = Hex(3, -7)
    assert hex_distance(a + shift, b + shift) == hex_distance(a, b)


@given(st.integers(2, 9), st.integers(2, 9))
def test_planar_grid_neighbor_symmetry(rows, cols):
    g = HexGrid(rows, cols, wrap=False)
    for cell in g:
        for n in g.neighbors(cell):
            assert cell in g.neighbors(n)


@given(st.sampled_from([3, 4, 7, 9, 12, 13]))
def test_reuse_coloring_separation(k):
    # Any same-colored pair is at least the lattice co-channel distance
    # apart — on a plane large enough to contain several clusters.
    g = HexGrid(10, 10, wrap=False)
    p = ReusePattern(g, k)
    d_min = p.min_cochannel_distance()
    for a in g:
        for b in g:
            if a < b and p.color(a) == p.color(b):
                assert g.distance(a, b) >= d_min


@given(st.integers(1, 200), st.sampled_from([3, 4, 7, 9, 12]))
def test_spectrum_partition_is_exact(n, k):
    s = Spectrum(n)
    sets = [s.channels_of_color(c, k) for c in range(k)]
    assert sum(len(x) for x in sets) == n
    union = frozenset().union(*sets) if sets else frozenset()
    assert union == s.all_channels
    sizes = sorted(len(x) for x in sets)
    assert sizes[-1] - sizes[0] <= 1  # balanced


# ----------------------------------------------------------------- NFC ----
@given(
    st.lists(
        st.tuples(st.floats(0, 1e5), st.integers(0, 50)),
        min_size=1,
        max_size=60,
    ),
    st.floats(1, 1000),
)
def test_nfc_get_matches_reference_step_function(samples, window):
    samples = sorted(samples, key=lambda p: p[0])
    w = NFCWindow(window, initial=0)
    reference = []
    for t, s in samples:
        if reference and reference[-1][0] == t:
            reference.pop()
        reference.append((t, s))
        w.add(t, s)
    t_latest = samples[-1][0]
    horizon = t_latest - window

    def ref_get(t):
        value = 0
        for when, s in reference:
            if when <= t:
                value = s
        return value

    # Within the window (and at its boundary) the pruned structure must
    # agree exactly with the unpruned reference.
    for frac in (0.0, 0.25, 0.5, 1.0):
        t = horizon + frac * window
        if t >= horizon:
            assert w.get(t) == ref_get(t)


@given(st.integers(0, 30), st.integers(0, 30), st.floats(0.1, 100))
def test_nfc_predict_linear_in_horizon(s0, s1, horizon):
    w = NFCWindow(10.0, initial=s0)
    w.add(0, s0)
    w.add(10, s1)
    predicted = w.predict(10, horizon)
    assert predicted == pytest.approx(s1 + horizon * (s1 - s0) / 10.0)


# --------------------------------------------------------------- Erlang-B ----
@given(st.floats(0.01, 50), st.integers(1, 60))
def test_erlang_b_is_probability(a, c):
    b = erlang_b(a, c)
    assert 0 <= b <= 1


@given(st.floats(0.01, 50), st.integers(1, 59))
def test_erlang_b_decreasing_in_servers(a, c):
    assert erlang_b(a, c + 1) <= erlang_b(a, c) + 1e-12


@given(st.floats(0.01, 25), st.integers(1, 40))
def test_erlang_b_recurrence_identity(a, c):
    # B(A, c) = A·B(A, c-1) / (c + A·B(A, c-1))
    prev = erlang_b(a, c - 1)
    expected = a * prev / (c + a * prev)
    assert erlang_b(a, c) == pytest.approx(expected, rel=1e-9)


# ------------------------------------------------------------- sim engine ----
@given(st.lists(st.floats(0, 100), min_size=1, max_size=30))
def test_engine_processes_timeouts_in_order(delays):
    env = Environment()
    fired = []
    for i, d in enumerate(delays):
        def proc(d=d, i=i):
            yield env.timeout(d)
            fired.append((env.now, i))
        env.process(proc())
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_engine_clock_never_goes_backwards(seed):
    import numpy as np

    env = Environment()
    rng = np.random.default_rng(seed)
    observed = []

    def worker():
        for _ in range(20):
            yield env.timeout(float(rng.exponential(1.0)))
            observed.append(env.now)

    for _ in range(3):
        env.process(worker())
    env.run()
    assert observed == sorted(observed)


# --------------------------------------------- end-to-end safety property ----
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheme=st.sampled_from(sorted(SCHEMES)),
    load=st.floats(0.5, 14.0),
    seed=st.integers(0, 10_000),
    spread=st.sampled_from([0.0, 0.7, 2.0]),
    mobility=st.booleans(),
)
def test_no_scheme_ever_violates_reuse_invariant(
    scheme, load, seed, spread, mobility
):
    """Theorem 1, empirically: random loads, seeds, latency jitter and
    mobility, with the monitor raising on any co-channel conflict."""
    rep = run_scenario(
        Scenario(
            scheme=scheme,
            offered_load=load,
            duration=400.0,
            warmup=50.0,
            seed=seed,
            mean_holding=60.0,
            mean_dwell=120.0 if mobility else None,
            latency_model="uniform" if spread else "deterministic",
            latency_spread=spread,
        )
    )
    assert rep.violations == 0
    assert rep.offered == rep.granted + rep.dropped


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    alpha=st.integers(0, 5),
    theta_low=st.floats(0.0, 2.0),
    gap=st.floats(0.0, 3.0),
    seed=st.integers(0, 1000),
)
def test_adaptive_parameters_never_break_liveness(alpha, theta_low, gap, seed):
    """All requests complete (grant or drop) for any α/θ configuration."""
    rep = run_scenario(
        Scenario(
            scheme="adaptive",
            offered_load=10.0,
            duration=400.0,
            warmup=50.0,
            seed=seed,
            mean_holding=60.0,
            alpha=alpha,
            theta_low=theta_low,
            theta_high=theta_low + gap,
        )
    )
    assert rep.violations == 0
    assert rep.offered > 50  # requests flowed and completed
