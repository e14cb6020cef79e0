"""F1 — drop rate and acquisition time vs. message-loss probability.

The paper assumes a reliable FIFO network; this sweep measures what
each scheme pays when that assumption is broken.  A uniform-loss
:class:`~repro.faults.FaultPlan` is swept over {0, 2, 5, 10}% and the
hardened protocol stack (ack/retry/dedup, PR-3) keeps the algorithms
correct.  Expected shape:

* zero loss is the baseline — hardening is wired but nothing fires;
* mutual exclusion holds at every loss rate for every scheme (the
  safety argument of docs/PROTOCOL.md §10);
* losses are overwhelmingly recovered by retransmission, and the
  adaptive scheme's call drop rate degrades gracefully rather than
  collapsing (its local mode needs no messages at all);
* acquisition time for message-passing schemes rises with loss (each
  recovered loss costs at least one retransmission timeout).
"""

from repro.faults import FaultPlan
from repro.traffic import HotspotLoad

from _common import (
    PAPER_LABELS,
    Scenario,
    print_banner,
    render_table,
    run_grid,
)

SCHEMES = ["fixed", "basic_update", "basic_search", "adaptive"]
LOSS_RATES = [0.0, 0.02, 0.05, 0.10]
HOLDING = 60.0


def _base(scheme: str, loss: float) -> Scenario:
    return Scenario(
        scheme=scheme,
        faults=FaultPlan.uniform_loss(loss) if loss > 0 else None,
        pattern=HotspotLoad(
            base_rate=4.0 / HOLDING, hot_cells=[24], hot_rate=16.0 / HOLDING
        ),
        offered_load=4.0,
        mean_holding=HOLDING,
        duration=600.0,
        warmup=100.0,
        seed=11,
    )


def test_fault_sweep():
    reports = run_grid(
        {(scheme, loss): _base(scheme, loss) for scheme in SCHEMES for loss in LOSS_RATES}
    )

    rows = []
    for scheme in SCHEMES:
        for loss in LOSS_RATES:
            rep = reports[(scheme, loss)]
            injected = sum(rep.faults_injected.values())
            recovered = sum(rep.faults_recovered.values())
            rows.append(
                [
                    PAPER_LABELS[scheme],
                    f"{loss:.0%}",
                    round(rep.drop_rate, 4),
                    round(rep.mean_acquisition_time, 3),
                    injected,
                    recovered,
                    rep.retry_exhausted,
                    rep.violations,
                ]
            )

    print_banner(
        "F1",
        "uniform message loss sweep: hot spot (16 E in cell 24, 4 E "
        "elsewhere), hardened stack",
    )
    print(
        render_table(
            [
                "scheme",
                "loss",
                "call drop",
                "acq time (T)",
                "injected",
                "recovered",
                "exhausted",
                "violations",
            ],
            rows,
        )
    )

    # Safety: mutual exclusion holds at every loss rate for every scheme.
    assert all(r.violations == 0 for r in reports.values())

    for scheme in SCHEMES:
        clean = reports[(scheme, 0.0)]
        # Without a plan nothing is injected and nothing retried.
        assert sum(clean.faults_injected.values()) == 0
        assert clean.retries == 0
        if scheme == "fixed":
            continue  # sends no messages: loss cannot touch it
        for loss in LOSS_RATES[1:]:
            rep = reports[(scheme, loss)]
            injected = sum(rep.faults_injected.values())
            recovered = sum(rep.faults_recovered.values())
            assert injected > 0
            # The ARQ layer recovers the bulk of the losses.
            assert recovered > 0.5 * rep.faults_injected.get("drop", 0)

    # Graceful degradation: at 5% loss the adaptive scheme still beats
    # the static allocator's hot-spot drop rate.
    assert (
        reports[("adaptive", 0.05)].drop_rate
        < reports[("fixed", 0.05)].drop_rate
    )
    # Loss costs time: recovered retransmissions push acquisition
    # latency up for the always-messaging scheme.
    assert (
        reports[("basic_update", 0.10)].mean_acquisition_time
        > reports[("basic_update", 0.0)].mean_acquisition_time
    )
