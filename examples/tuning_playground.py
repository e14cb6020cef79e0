#!/usr/bin/env python
"""Tuning the adaptive scheme's knobs: α, θ_l/θ_h and W.

The paper's thresholds are explicitly meant for per-deployment tuning
("these threshold values are used to fine tune the overall performance
of the system", §1).  This script shows how each knob trades the three
objectives — drop rate, acquisition latency, message complexity — on a
moderately hot workload, so an operator can pick a point.

Run:  python examples/tuning_playground.py
"""

from repro import Scenario
from repro.harness import render_table, run_cells
from repro.traffic import HotspotLoad

HOLDING = 180.0


def base_scenario(**kw) -> Scenario:
    pattern = HotspotLoad(
        base_rate=3.0 / HOLDING,
        hot_cells=[24, 25, 31],
        hot_rate=12.0 / HOLDING,
    )
    defaults = dict(
        scheme="adaptive",
        pattern=pattern,
        mean_holding=HOLDING,
        duration=2500.0,
        warmup=400.0,
        seed=17,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def show(title, param_rows):
    reports = run_cells([base_scenario(**kw) for _, kw in param_rows], workers=None)
    rows = [
        [
            label,
            rep.drop_rate,
            rep.mean_acquisition_time,
            rep.p95_acquisition_time,
            rep.messages_per_acquisition,
            rep.mode_changes,
        ]
        for (label, _), rep in zip(param_rows, reports)
    ]
    print(
        render_table(
            ["setting", "drop", "acq mean", "acq p95", "msgs/req", "mode changes"],
            rows,
            title=title,
        )
    )
    print()


def main() -> None:
    show(
        "alpha — borrow attempts before falling back to search",
        [(f"alpha={a}", {"alpha": a}) for a in (0, 1, 2, 4, 8)],
    )
    show(
        "thresholds — hysteresis window (theta_l, theta_h)",
        [
            ("0.5 / 0.5 (no hysteresis)", {"theta_low": 0.5, "theta_high": 0.5}),
            ("1 / 2", {"theta_low": 1.0, "theta_high": 2.0}),
            ("1 / 3 (default)", {"theta_low": 1.0, "theta_high": 3.0}),
            ("2 / 5 (eager borrowing)", {"theta_low": 2.0, "theta_high": 5.0}),
        ],
    )
    show(
        "W — NFC prediction window",
        [(f"W={w:g}", {"window": w}) for w in (5.0, 15.0, 30.0, 60.0, 120.0)],
    )


if __name__ == "__main__":
    main()
