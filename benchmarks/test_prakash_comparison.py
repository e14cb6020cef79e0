"""E7 — §6 comparison with the allocated-set scheme of Prakash et al. [8].

The paper's discussion: [8] adapts to load by letting a cell *keep*
channels (serving transient peaks from its allocated set for free), but
when the allocated set runs dry a channel must be migrated with the
TRANSFER/AGREE/KEEP handshake — potentially "more than one round" —
while the adaptive scheme always moves a channel with a single round of
messaging.

A transient hot spot exposes both behaviours: during the burst the two
schemes borrow/transfer; after it ends, the allocated-set scheme keeps
serving from its (migrated) sets while the adaptive scheme returns to
its static primaries.

Expected shape: comparable drop rates at this load; the allocated-set
scheme pays fewer total messages (its steady state is silent) but its
transfer path needs multiple rounds per acquisition (attempts > 1)
whereas adaptive's search path is single-round by construction.
"""

from repro.traffic import TemporalHotspot

from _common import (
    PAPER_LABELS,
    Scenario,
    print_banner,
    render_table,
    run_schemes,
)

HOLDING = 180.0
SCHEMES = ["prakash", "adaptive"]


def test_allocated_set_comparison():
    pattern = TemporalHotspot(
        base_rate=3.0 / HOLDING,
        hot_cells=[16, 17, 24, 25, 31],
        hot_rate=13.0 / HOLDING,
        start=800.0,
        end=2400.0,
    )
    base = Scenario(
        pattern=pattern,
        mean_holding=HOLDING,
        duration=3600.0,
        warmup=400.0,
        seed=67,
    )
    reports = run_schemes(SCHEMES, base)

    rows = []
    for scheme in SCHEMES:
        rep = reports[scheme]
        remote = [
            r for r in rep.metrics.records if r.granted and r.mode == "search"
        ]
        remote_attempts = (
            sum(r.attempts for r in remote) / len(remote) if remote else 0.0
        )
        rows.append(
            [
                PAPER_LABELS.get(scheme, scheme),
                round(rep.drop_rate, 4),
                round(rep.mean_acquisition_time, 3),
                round(rep.messages_per_acquisition, 1),
                round(rep.xi["local"], 3),
                round(remote_attempts, 2),
                rep.violations,
            ]
        )

    print_banner(
        "E7",
        "transient hot spot: allocated-set scheme [8] vs adaptive",
    )
    print(
        render_table(
            [
                "scheme",
                "drop rate",
                "acq time (T)",
                "msgs/req",
                "xi_local",
                "rounds/remote acq",
                "violations",
            ],
            rows,
            note="rounds/remote acq = poll+transfer rounds ([8]) or "
            "update/search attempts (adaptive) per non-local grant",
        )
    )

    pk, ada = reports["prakash"], reports["adaptive"]
    # Both schemes keep the hot spot serviceable.
    assert pk.drop_rate < 0.15 and ada.drop_rate < 0.15
    # The §6 point: the allocated-set scheme needs multiple rounds per
    # migrated channel, the adaptive scheme's guaranteed path is a
    # single search round (attempts counter ≈ alpha-bounded).
    pk_remote = [
        r for r in pk.metrics.records if r.granted and r.mode == "search"
    ]
    assert pk_remote, "the hot spot must force transfers"
    multi_round = sum(1 for r in pk_remote if r.attempts > 1)
    assert multi_round > 0  # transfers do take extra rounds under churn
    assert all(r.violations == 0 for r in reports.values())
