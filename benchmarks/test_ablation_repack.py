"""E9 — Extension ablation: channel reassignment ("repacking").

The paper cites Cox & Reudink's dynamic channel *reassignment* [1] as
prior art but its own scheme never moves an ongoing call.  The
extension: when a call on an own primary ends while the cell holds
borrowed channels, retire a borrowed channel instead and move the
remaining call onto the freed primary — borrowed channels return to
their owners as soon as possible, shrinking the cell's interference
footprint.

Measured shape (an instructive negative result): repacking keeps the
cell's *primaries* maximally busy, so each newly arriving call finds no
free primary and must run a fresh borrow round — ξ_borrow and the
message bill go *up* (≈ +30%) while the drop rate does not improve.
Early channel return only pays when the owners are themselves starved;
at these loads it is pure overhead.  The benchmark asserts service
never degrades and records the overhead.
"""

from repro.traffic import HotspotLoad

from _common import Scenario, print_banner, render_table, run_grid
from repro.harness import summarize

HOLDING = 180.0
REPACK = {"off (paper)": False, "on (extension)": True}
SEEDS = (97, 98, 99)


def test_repack_ablation():
    pattern = HotspotLoad(
        base_rate=3.0 / HOLDING,
        hot_cells=[16, 24, 32],
        hot_rate=13.0 / HOLDING,
    )
    base = Scenario(
        scheme="adaptive",
        pattern=pattern,
        mean_holding=HOLDING,
        duration=3000.0,
        warmup=500.0,
    )
    grid = run_grid(
        {
            (label, seed): base.with_(seed=seed, extra_params={"repack": repack})
            for label, repack in REPACK.items()
            for seed in SEEDS
        }
    )
    results = {label: [grid[label, seed] for seed in SEEDS] for label in REPACK}

    rows = []
    stats = {}
    for label, reps in results.items():
        ci = summarize(reps, ["drop_rate", "messages_per_acquisition", "mean_acquisition_time"])
        drop = ci["drop_rate"].mean
        msgs = ci["messages_per_acquisition"].mean
        acq = ci["mean_acquisition_time"].mean
        xi_update = sum(r.xi["update"] for r in reps) / len(reps)
        xi_search = sum(r.xi["search"] for r in reps) / len(reps)
        stats[label] = (drop, msgs, acq)
        rows.append(
            [
                label,
                round(drop, 4),
                round(msgs, 1),
                round(acq, 3),
                round(xi_update + xi_search, 3),
            ]
        )

    print_banner(
        "E9",
        "channel-reassignment (repack) extension, 3 hot cells, 3 seeds",
    )
    print(
        render_table(
            ["repack", "drop rate", "msgs/req", "acq time (T)", "xi_borrow"],
            rows,
            note="xi_borrow = fraction of grants needing a borrow; repack "
            "keeps primaries busy, so new calls borrow afresh — overhead "
            "without neighbor starvation",
        )
    )

    off = stats["off (paper)"]
    on = stats["on (extension)"]
    # Repacking must never hurt service.
    assert on[0] <= off[0] + 0.005
    assert all(r.violations == 0 for reps in results.values() for r in reps)
