"""T2 — Paper Table 2: comparison under uniformly low load.

At low load every cell stays in local mode (ξ1 = 1, m → minimal):

    Basic Search     2N msgs, 2T    — still polls the whole region
    Basic Update     4N msgs, 2T    — permission round + broadcasts
    Advanced Update  2N msgs, 0     — local pick, ACQ+REL broadcasts
    Adaptive         0 msgs,  0     — the headline result

We run all schemes at 10% of primary capacity and check each measured
cost lands near its Table 2 value.
"""

import pytest

from repro.analysis import low_load_table

from _common import (
    N_REGION,
    PAPER_LABELS,
    Scenario,
    print_banner,
    render_table,
    run_schemes,
)

SCHEMES = ["basic_search", "basic_update", "advanced_update", "adaptive"]


def test_table2_low_load():
    base = Scenario(offered_load=1.0, duration=4000.0, warmup=400.0, seed=29)
    reports = run_schemes(SCHEMES, base)
    expected = low_load_table(N=N_REGION, n_p=3, T=base.latency_T)

    rows = []
    for scheme in SCHEMES:
        rep = reports[scheme]
        rows.append(
            [
                PAPER_LABELS[scheme],
                expected[scheme]["messages"],
                round(rep.messages_per_acquisition, 2),
                expected[scheme]["time"],
                round(rep.mean_acquisition_time, 3),
                round(rep.drop_rate, 4),
            ]
        )

    print_banner(
        "T2 (Table 2)", "low-load comparison (1 Erlang/cell, 10% of capacity)"
    )
    print(
        render_table(
            [
                "scheme",
                "msgs (paper)",
                "msgs (sim)",
                "time (paper)",
                "time (sim)",
                "drop rate",
            ],
            rows,
            note="paper columns are Table 2's closed forms at N=18, T=1",
        )
    )

    # Exact paper values at low load:
    assert reports["adaptive"].messages_per_acquisition == 0.0
    assert reports["adaptive"].mean_acquisition_time == 0.0
    assert reports["basic_search"].messages_per_acquisition == pytest.approx(
        2 * N_REGION, rel=0.05
    )
    assert reports["basic_search"].mean_acquisition_time == pytest.approx(
        2.0, rel=0.05
    )
    # Basic update occasionally retries even at low load (m ≈ 1.05):
    # allow that margin over the paper's m = 1 idealization.
    assert reports["basic_update"].messages_per_acquisition == pytest.approx(
        4 * N_REGION, rel=0.15
    )
    assert reports["basic_update"].mean_acquisition_time == pytest.approx(
        2.0, rel=0.15
    )
    assert reports["advanced_update"].messages_per_acquisition == pytest.approx(
        2 * N_REGION, rel=0.05
    )
    assert reports["advanced_update"].mean_acquisition_time == pytest.approx(
        0.0, abs=0.01
    )
    # Nobody drops anything at 10% load.
    assert all(reports[s].drop_rate == 0 for s in SCHEMES)
