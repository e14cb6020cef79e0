#!/usr/bin/env python
"""Quickstart: simulate the adaptive channel-allocation scheme.

Builds the paper-scale system — a 7x7 toroidal hex grid, 70 channels,
k=7 reuse (10 primary channels per cell, 18-cell interference regions)
— offers 5 Erlangs of Poisson call traffic per cell, and prints the
metrics the paper evaluates: call drop rate, channel acquisition time
(in units of the one-way message latency T), control-message counts and
the fraction of acquisitions served in each mode.

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace run-artifacts

The optional ``--trace DIR`` switches on the observability layer and
writes a self-contained run directory (Chrome trace for Perfetto,
time-series CSV, markdown run report).  docs/TUTORIAL.md walks through
this script, the trace, and reproducing a paper table step by step.
"""

import argparse

from repro import Scenario, run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="write run artifacts (trace, time series, report) to DIR",
    )
    args = parser.parse_args()

    scenario = Scenario(
        scheme="adaptive",      # try: fixed, basic_search, basic_update,
                                #      advanced_update, prakash
        rows=7, cols=7,         # toroidal hex grid
        num_channels=70,        # 10 primaries per cell under k=7 reuse
        offered_load=5.0,       # Erlangs per cell
        mean_holding=180.0,     # mean call duration (time units)
        duration=4000.0,        # simulated horizon
        warmup=500.0,           # statistics discarded before this
        seed=1,
    )
    if args.trace:
        from repro.obs import SAMPLE_INTERVAL

        scenario = scenario.with_(obs=SAMPLE_INTERVAL)
    report = run_scenario(scenario)

    print("Topology:", "7x7 torus, 70 channels, reuse k=7 (|IN| = 18)")
    print()
    print(report.summary())
    print()
    print("Messages by type:")
    for kind, count in report.messages_by_kind.items():
        print(f"  {kind:12s} {count}")
    print()
    print(
        "Safety: the interference monitor verified every acquisition —",
        f"{report.violations} co-channel violations.",
    )
    if args.trace:
        from repro.obs import write_run_artifacts

        files = write_run_artifacts(report, args.trace)
        print()
        print(f"Run artifacts in {args.trace}/: {', '.join(files)}")
        print("Open trace.json at https://ui.perfetto.dev — see "
              "docs/OBSERVABILITY.md for the format.")


if __name__ == "__main__":
    main()
