"""T1 — Paper Table 1: message complexity & channel acquisition time.

The paper's Table 1 gives closed-form costs per channel acquisition
under a general load, parameterized by the measured quantities m
(average update attempts), ξ1/ξ2/ξ3 (acquisition-path fractions),
N_borrow and N_search.  We run every scheme on the same moderate mixed
load, measure those parameters from the simulation, evaluate the
formulas with them, and print predicted-vs-measured side by side.

Expected shape: the formula predictions and measurements agree within
tens of percent for every scheme (the formulas ignore CHANGE_MODE
chatter and per-call release accounting), and the adaptive scheme's
measured message count sits well below basic update's.
"""

from repro.analysis import MODELS

from _common import (
    N_REGION,
    PAPER_LABELS,
    Scenario,
    print_banner,
    render_table,
    run_schemes,
)

SCHEMES = ["basic_search", "basic_update", "advanced_update", "adaptive"]


def test_table1_general_load():
    base = Scenario(offered_load=7.5, duration=2500.0, warmup=400.0, seed=13)
    reports = run_schemes(SCHEMES, base)

    rows = []
    shapes = {}
    for scheme in SCHEMES:
        rep = reports[scheme]
        model = MODELS[scheme]
        params = model.measured_params(rep, N_REGION)
        pred_msgs = model.message_complexity(params)
        pred_time = model.acquisition_time(params)
        rows.append(
            [
                PAPER_LABELS[scheme],
                round(pred_msgs, 1),
                round(rep.messages_per_acquisition, 1),
                round(pred_time, 2),
                round(rep.mean_acquisition_time, 2),
                round(params.m, 2),
                f"{params.xi1:.2f}/{params.xi2:.2f}/{params.xi3:.2f}",
            ]
        )
        shapes[scheme] = (rep.messages_per_acquisition, rep.mean_acquisition_time)

    print_banner(
        "T1 (Table 1)",
        "message complexity & acquisition time, general load "
        f"({base.offered_load} Erlang/cell)",
    )
    print(
        render_table(
            [
                "scheme",
                "msgs (model)",
                "msgs (sim)",
                "time (model)",
                "time (sim)",
                "m",
                "xi1/xi2/xi3",
            ],
            rows,
            note="model rows evaluate the paper's Table 1 formulas at the "
            "simulation-measured parameters; N=18, T=1",
        )
    )

    # Shape assertions: adaptive uses fewer messages than basic update,
    # and its acquisition time sits below basic search's.
    assert shapes["adaptive"][0] < shapes["basic_update"][0]
    assert shapes["adaptive"][1] < shapes["basic_search"][1]
    # Everybody ran clean.
    assert all(reports[s].violations == 0 for s in SCHEMES)
