"""E2 — §6 claim: the adaptive scheme tracks the best regime everywhere.

Sweeps uniform load across the three regimes the paper's conclusion
describes and checks the scheme's behavioral signature in each:

* uniformly low load — "optimal ... all cells are in the local mode and
  no messaging is required": ξ1 = 1, zero messages, zero latency;
* moderate/hot load — behaves like the update scheme (ξ2 > 0, bounded
  attempts);
* uniformly high load — "switches to searching and thus provides a
  bounded allocation time" (ξ3 grows, max acquisition time respects
  Table 3's (2αN+1)T bound while basic update's latency keeps growing).

Also prints the Erlang-B analytic reference for the FCA column.
"""

from repro.analysis import erlang_b

from _common import (
    N_REGION,
    Scenario,
    print_banner,
    render_table,
    run_grid,
)

LOADS = [1.0, 3.0, 5.0, 7.0, 9.0, 12.0]
SCHEMES = ["fixed", "basic_update", "basic_search", "adaptive"]


def test_load_sweep_regimes():
    base = Scenario(duration=2500.0, warmup=400.0, seed=41)
    grid = run_grid(
        {
            (load, s): base.with_(scheme=s, offered_load=load)
            for load in LOADS
            for s in SCHEMES
        }
    )
    results = {load: {s: grid[load, s] for s in SCHEMES} for load in LOADS}

    rows = []
    for load in LOADS:
        reps = results[load]
        ada = reps["adaptive"]
        xi = ada.xi
        rows.append(
            [
                load,
                erlang_b(load, 10),
                reps["fixed"].drop_rate,
                reps["basic_update"].drop_rate,
                reps["basic_search"].drop_rate,
                ada.drop_rate,
                f"{xi['local']:.2f}/{xi['update']:.2f}/{xi['search']:.2f}",
                round(ada.messages_per_acquisition, 1),
                round(ada.mean_acquisition_time, 2),
            ]
        )

    print_banner("E2", "uniform load sweep: drop rates and adaptive regime")
    print(
        render_table(
            [
                "load (E)",
                "ErlangB",
                "fixed",
                "b.update",
                "b.search",
                "adaptive",
                "adaptive xi l/u/s",
                "ada msgs",
                "ada acq T",
            ],
            rows,
            note="drop-rate columns; ErlangB = analytic FCA blocking "
            "(10 channels/cell)",
        )
    )

    # Regime 1: low load — silent and instant.
    low = results[1.0]["adaptive"]
    assert low.xi["local"] == 1.0
    assert low.messages_per_acquisition == 0.0
    assert low.mean_acquisition_time == 0.0

    # Regime 2: moderate load — borrowing kicks in, drops well below FCA.
    assert results[5.0]["adaptive"].drop_rate < results[5.0]["fixed"].drop_rate / 2
    mid = results[7.0]
    assert mid["adaptive"].xi["update"] > 0.01
    assert mid["adaptive"].drop_rate < mid["fixed"].drop_rate * 0.7

    # Regime 3: high load — search active, acquisition time bounded.
    high = results[12.0]["adaptive"]
    assert high.xi["search"] > 0.05
    bound = (2 * base.alpha * N_REGION + 1) * base.latency_T
    assert high.max_acquisition_time <= bound

    # FCA simulation tracks Erlang-B across the sweep.
    for load in LOADS:
        assert abs(results[load]["fixed"].drop_rate - erlang_b(load, 10)) < 0.05
