"""E1 — Abstract/§1 claim: hot spots drop calls under static allocation
"even when there are enough idle channels in the interference region".

A persistent spatial hot spot (a few cells far above primary capacity,
neighbors far below it) is offered to every scheme.  Expected shape:

* FCA's drop rate is dominated by the hot cells (they exceed their 10
  primaries; the idle neighbors can't help);
* every dynamic/hybrid scheme cuts the drop rate by a large factor by
  borrowing idle neighbor channels;
* the adaptive scheme achieves that with far fewer messages than basic
  update, because only the hot cells leave local mode.
"""

from repro.traffic import HotspotLoad

from _common import (
    PAPER_LABELS,
    Scenario,
    print_banner,
    render_table,
    run_schemes,
)

SCHEMES = ["fixed", "basic_search", "basic_update", "advanced_update", "prakash", "adaptive"]
HOLDING = 180.0
HOT_CELLS = [24]  # one downtown cell; its 18 neighbors stay cool


def test_hotspot_drop_rates():
    pattern = HotspotLoad(
        base_rate=2.0 / HOLDING, hot_cells=HOT_CELLS, hot_rate=25.0 / HOLDING
    )
    base = Scenario(
        pattern=pattern,
        mean_holding=HOLDING,
        duration=3000.0,
        warmup=500.0,
        seed=37,
    )
    reports = run_schemes(SCHEMES, base)

    rows = []
    for scheme in SCHEMES:
        rep = reports[scheme]
        hot_drop = max(
            rep.per_cell_drop_rates.get(c, 0.0) for c in HOT_CELLS
        )
        rows.append(
            [
                PAPER_LABELS[scheme],
                round(rep.drop_rate, 4),
                round(hot_drop, 4),
                round(rep.mean_acquisition_time, 2),
                round(rep.messages_per_acquisition, 1),
                rep.violations,
            ]
        )

    print_banner(
        "E1",
        "spatial hot spot: 25 Erlang in cell 24, 2 Erlang elsewhere "
        "(10 primaries/cell)",
    )
    print(
        render_table(
            [
                "scheme",
                "drop (all)",
                "drop (hot cell)",
                "acq time (T)",
                "msgs/req",
                "violations",
            ],
            rows,
        )
    )

    fixed = reports["fixed"]
    adaptive = reports["adaptive"]
    # The hot cell under FCA drops a large share of its calls...
    assert fixed.per_cell_drop_rates[24] > 0.3
    # ...while dynamic schemes keep the overall rate several times lower.
    for scheme in ["basic_search", "basic_update", "advanced_update", "adaptive"]:
        assert reports[scheme].drop_rate < fixed.drop_rate / 2
    # Adaptive spends fewer messages than basic update for that result.
    assert (
        adaptive.messages_per_acquisition
        < reports["basic_update"].messages_per_acquisition
    )
    assert all(reports[s].violations == 0 for s in SCHEMES)
