#!/usr/bin/env python
"""Watch the adaptive mechanism work: mode timelines through rush hour.

Samples every cell's mode through a temporal hot spot and renders
ASCII timelines: downtown cells flip to borrowing (b/U/S) when the
burst begins and return to local (.) when it ends, while suburban
cells barely stir — the per-cell, self-tuned adaptivity the paper's
title promises.

Run:  python examples/mode_timeline.py
"""

from repro.harness import Scenario, build_simulation, sparkline
from repro.obs import borrowing_fraction, mode_timeline
from repro.traffic import TemporalHotspot

HOLDING = 180.0
DOWNTOWN = [16, 17, 23, 24, 25, 31, 32]
SUBURBS = [0, 3, 6, 42, 45, 48]


def main() -> None:
    pattern = TemporalHotspot(
        base_rate=2.0 / HOLDING,
        hot_cells=DOWNTOWN,
        hot_rate=14.0 / HOLDING,
        start=1200.0,
        end=2800.0,
    )
    scenario = Scenario(
        scheme="adaptive",
        pattern=pattern,
        mean_holding=HOLDING,
        duration=4000.0,
        warmup=0.0,
        seed=19,
        obs=40.0,  # sample every 40 time units
    )
    report = build_simulation(scenario).run()
    series = report.obs.series
    cells = series["cells"]

    print("Rush hour t in [1200, 2800); sampled every 40 time units.")
    print()
    print("Downtown cells:")
    print("\n".join(mode_timeline(series, DOWNTOWN)))
    print()
    print("Suburban cells:")
    print("\n".join(mode_timeline(series, SUBURBS)))
    print()
    system = [
        borrowing_fraction(sample)
        for sample in zip(*(c["mode"] for c in cells.values()))
    ]
    print(f"System borrowing fraction over time: {sparkline(system)}")
    print()
    hot_frac = sum(borrowing_fraction(cells[c]["mode"]) for c in DOWNTOWN) / len(DOWNTOWN)
    cool_frac = sum(borrowing_fraction(cells[c]["mode"]) for c in SUBURBS) / len(SUBURBS)
    print(
        f"Borrowing-mode occupancy: downtown {hot_frac:.1%}, "
        f"suburbs {cool_frac:.1%}; drop rate {report.drop_rate:.4f}, "
        f"violations {report.violations}."
    )


if __name__ == "__main__":
    main()
