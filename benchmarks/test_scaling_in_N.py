"""T1b — The §5 cost models' scaling in N (interference-region size).

Table 1's costs are linear in N, the number of cells in the
interference region.  N is set by the reuse cluster: k=3 gives a
1-ring region (N=6), k=7 a 2-ring region (N=18), k=12 a 3-ring region
(N=36).  We run the same relative load on all three geometries and
check the measured per-acquisition message costs track the predicted
linear growth.

Loads are *blocking-equivalent* across geometries (each set to the
offered load giving 1% Erlang-B blocking on that geometry's primary
pool), so the comparison isolates N.

Expected shape: basic search ≈ 2N at every N; basic update ≈ 2Nm + 2N;
adaptive's low-load cost stays near 0 *independent of N* (its win
grows with denser reuse).
"""

import pytest

from repro.analysis import offered_load_for_blocking

from _common import Scenario, print_banner, render_table, run_grid

#: (cluster k, rows, cols, channels, expected N)
GEOMETRIES = [
    (3, 9, 9, 36, 6),
    (7, 7, 7, 70, 18),
    (12, 12, 12, 72, 36),
]


def _base(k: int, rows: int, cols: int, channels: int) -> Scenario:
    return Scenario(
        rows=rows,
        cols=cols,
        num_channels=channels,
        cluster_size=k,
        # Equal service quality everywhere: 1% Erlang-B blocking.
        offered_load=offered_load_for_blocking(0.01, channels // k),
        mean_holding=120.0,
        duration=1500.0,
        warmup=300.0,
        seed=109,
    )


def test_cost_scaling_in_region_size():
    results = run_grid(
        {
            (k, scheme): _base(k, rows, cols, channels).with_(scheme=scheme)
            for k, rows, cols, channels, _n in GEOMETRIES
            for scheme in ("basic_search", "basic_update", "adaptive")
        }
    )

    rows = []
    for k, _r, _c, channels, n in GEOMETRIES:
        search = results[(k, "basic_search")]
        update = results[(k, "basic_update")]
        ada = results[(k, "adaptive")]
        rows.append(
            [
                k,
                n,
                2 * n,
                round(search.messages_per_acquisition, 1),
                round(update.messages_per_acquisition, 1),
                round(ada.messages_per_acquisition, 2),
            ]
        )

    print_banner(
        "T1b",
        "message-cost scaling with interference-region size N "
        "(1%-blocking-equivalent load on each geometry)",
    )
    print(
        render_table(
            [
                "cluster k",
                "N",
                "2N (model)",
                "b.search msgs",
                "b.update msgs",
                "adaptive msgs",
            ],
            rows,
            note="basic search should track 2N exactly; adaptive stays "
            "near 0 at this load regardless of N",
        )
    )

    for k, _r, _c, _ch, n in GEOMETRIES:
        search = results[(k, "basic_search")]
        assert search.messages_per_acquisition == pytest.approx(
            2 * n, rel=0.06
        )
        assert results[(k, "basic_update")].messages_per_acquisition > 2 * n
        # The adaptive advantage grows with N: cost stays bounded.
        assert results[(k, "adaptive")].messages_per_acquisition < n
        assert results[(k, "adaptive")].violations == 0
