#!/usr/bin/env python
"""Uniform-load sweep: where each scheme wins.

Sweeps the per-cell offered load from well under to well over capacity
(10 primaries per cell) and prints drop rate, mean acquisition time and
message complexity for every scheme, plus the Erlang-B blocking curve
as the analytical reference for fixed allocation.

The shape to look for (paper abstract / §6):

* at low load the adaptive scheme matches FCA — zero latency, zero
  messages — while the dynamic baselines pay full message costs;
* at moderate load dynamic schemes (and adaptive) have far lower drop
  rates than FCA;
* at very high uniform load nothing can beat FCA's drop rate (the
  spectrum is simply full), and adaptive's value is its bounded
  acquisition time versus basic update's unbounded retries.

Run:  python examples/load_sweep.py
"""

from repro import Scenario
from repro.analysis import erlang_b
from repro.harness import render_table, run_cells

LOADS = [1.0, 3.0, 5.0, 7.0, 9.0, 12.0]
SCHEMES = ["fixed", "basic_search", "basic_update", "advanced_update", "prakash", "adaptive"]


def main() -> None:
    cells = {
        (load, scheme): Scenario(
            scheme=scheme, offered_load=load, duration=2500.0, warmup=400.0, seed=11
        )
        for load in LOADS
        for scheme in SCHEMES
    }
    # One grid, one worker per core; rows come back in cell order.
    reports = dict(zip(cells, run_cells(list(cells.values()), workers=None)))
    for load in LOADS:
        rows = []
        for scheme in SCHEMES:
            rep = reports[load, scheme]
            xi = rep.xi
            rows.append(
                [
                    scheme,
                    rep.drop_rate,
                    rep.mean_acquisition_time,
                    rep.messages_per_acquisition,
                    f"{xi['local']:.2f}/{xi['update']:.2f}/{xi['search']:.2f}",
                ]
            )
        print(
            render_table(
                ["scheme", "drop rate", "acq time (T)", "msgs/req", "xi l/u/s"],
                rows,
                title=f"offered load = {load} Erlang/cell "
                f"(Erlang-B reference for FCA: {erlang_b(load, 10):.4f})",
            )
        )
        print()


if __name__ == "__main__":
    main()
