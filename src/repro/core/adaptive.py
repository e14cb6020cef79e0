"""The paper's contribution: the adaptive hybrid allocation scheme.

Implements Figures 2–10 of Kahol, Khurana, Gupta & Srimani (1998).
Each MSS independently switches between

* **local mode** (``mode = 0``) — serve requests from the static
  primary set ``PR_i``; zero latency, and ACQUISITION/RELEASE
  notifications go only to neighbors currently borrowing
  (``UpdateS_i``), so at uniformly low load no messages flow at all;
* **borrowing mode** (``mode = 1``) — additionally borrow idle primary
  channels of interference neighbors through an update-style unanimous
  permission round (``mode = 2`` while pending), falling back after
  ``α`` failed rounds to a search-style totally-ordered acquisition
  (``mode = 3`` while pending) that is guaranteed to find a channel if
  one exists.

Mode transitions are driven by ``check_mode`` (Fig. 6): a linear
prediction of the free-primary count one round-trip ahead crosses the
low threshold ``θ_l`` (enter borrowing) or the high threshold ``θ_h``
(return to local); ``θ_l < θ_h`` gives hysteresis against flapping.
The decision rule itself is pluggable (``repro.policies``): the
default ``linear`` policy is the paper's predictor, bit-identically;
the ``quantile`` alternative swaps in per scenario without touching
this module — see docs/POLICIES.md.

Documented deviations from the TR pseudocode (see DESIGN.md §5):

* (D1) Fig. 2's borrowing-update test reads ``r ∈ PR_i ∩ …``; taken
  literally it is dead code (own free primaries were handled two lines
  up), so we borrow from the Best() target's primary set ``PR_j``.
* (D2) ``Best()`` requires the candidate to have a *primary* channel
  free for us (``PR_j ∩ Free ≠ ∅``) rather than any channel, so the
  subsequent update round is always meaningful.
* (D3) The "wait until ``waiting_i = 0``" gate guards primary
  acquisitions in borrowing mode as well as local mode; Fig. 2 applies
  it only in local mode, but Theorem 1's case 1(c) argument needs it
  whenever a cell could grab a channel that an in-flight search might
  select.
* (D4) A node in borrowing-search mode replies *reject* (not grant) to
  an older update request for a channel it is currently using — Fig. 4
  case 3 omits the ``r ∈ Use_i`` check that safety requires.
* (D5) Responses/requests carry explicit round ids so deferred and
  stale responses are matched to the right wait (implicit in the
  paper).
* (D6) Channels granted to a neighbor but not yet confirmed acquired
  are tracked in a separate ``granted_out`` overlay instead of being
  merged into the mirrored ``U_j`` sets.  The paper merges them, but a
  STATUS/SEARCH response (which carries the *current* ``Use_j`` and
  replaces the mirror) can then erase a grant for a borrow still in
  flight, after which the granter may locally reacquire its own
  primary — a co-channel violation our interference monitor caught in
  the paper-literal variant.  The overlay is cleared by the grantee's
  RELEASE (failure) or final release (success).
* (D7) A *borrowed* channel (``r ∉ PR_i``) is always released to the
  whole interference region, even from local mode; Fig. 9's
  UpdateS-only release is kept for primaries.  Every granter recorded
  the borrow, so every granter must see the release (D6 depends on
  this; without it the paper's own ``I_j`` sets leak stale entries
  until the next full-state refresh).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Optional, Set, Tuple

from ..cellular.spectrum import channels, mask
from ..policies.base import ModePolicy, make_policy
from ..protocols.base import MSS
from ..protocols.messages import ChangeMode, ReqType, Timestamp
from ..sim import Collector, Gate
from .mode import Mode
from .requester import Requester
from .responder import Responder

__all__ = ["Mode", "AdaptiveMSS"]


class AdaptiveMSS(Requester, Responder, MSS):
    """Adaptive distributed dynamic channel allocation (the paper's scheme).

    Parameters (beyond the :class:`MSS` base):

    alpha:
        Max borrow attempts in update mode before switching to search
        (paper's ``α``).
    theta_low, theta_high:
        Mode-transition thresholds ``θ_l < θ_h`` on the predicted
        free-primary count.
    window:
        Prediction window ``W`` of the NFC history.
    policy, policy_params:
        The mode-switching decision rule, by registry name (see
        :mod:`repro.policies`), plus its policy-specific parameters.
        The default ``"linear"`` is the paper's Fig. 6 predictor and
        is bit-identical to the pre-registry implementation.
    best_policy:
        Borrow-target selection: ``"best"`` (Fig. 10's heuristic —
        fewest borrowing neighbors in common), ``"first"`` (lowest
        eligible cell id) or ``"random"`` (uniform among eligible).
        Non-default values exist for the ablation study of the Best()
        design choice (EXPERIMENTS.md E4).
    guard_channels:
        Extension (classic handoff-priority reservation): a *new* call
        is admitted only while more than this many primaries are free;
        handoffs are exempt and keep the full adaptive machinery
        (primaries plus borrowing).  Redirecting guarded new calls to
        the borrow path instead was tried and measured worse for
        everyone — it floods the region with borrow traffic exactly
        when it is tightest.  Default 0 (the paper's algorithm).
    repack:
        Extension (channel reassignment in the spirit of Cox & Reudink
        [1], which the paper cites as prior art): when a call on an own
        *primary* channel ends while the cell also holds *borrowed*
        channels, retire a borrowed channel instead and move the
        remaining call onto the freed primary.  Borrowed channels
        return to their owners sooner, shrinking the interference
        footprint.  Off by default (the paper's algorithm); the E9
        ablation benchmark measures its effect.
    """

    scheme = "adaptive"
    fluid_model = True
    policy_driven = True
    SCENARIO_FIELDS = ("alpha", "theta_low", "theta_high", "window", "policy", "policy_params")
    #: The plain fields; :meth:`state_dict` adds the ones that are not
    #: (counted mirrors, STATUS collectors, the tie-breaking generator).
    SNAPSHOT = (
        ("mode", "mode", Mode),
        "UpdateS",
        ("owed_acks", "_owed_acks"),
        "rounds",
        ("policy", "policy", ModePolicy),
        ("collector_round", "_collector_round"),
        "mode_changes",
        "stale_responses",
        "local_acquires",
        "local_notify_sum",
        "repacks",
    )

    def __init__(
        self,
        *args,
        alpha: int = 2,
        theta_low: float = 1.0,
        theta_high: float = 3.0,
        window: float = 30.0,
        policy: str = "linear",
        policy_params: Optional[Dict[str, object]] = None,
        best_policy: str = "best",
        repack: bool = False,
        guard_channels: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        if theta_low > theta_high:
            raise ValueError("need theta_low <= theta_high (paper: θ_l < θ_h)")
        if window <= 0:
            raise ValueError("window W must be positive")
        if best_policy not in ("best", "first", "random"):
            raise ValueError(f"unknown best_policy {best_policy!r}")
        self.alpha = alpha
        self.theta_low = theta_low
        self.theta_high = theta_high
        self.window = window
        self.best_policy = best_policy
        self._best_rng = None  # lazily seeded for the "random" policy
        self.repack = repack
        #: Number of reassignments performed (repack diagnostics).
        self.repacks = 0
        self.guard_channels = self._checked_guard(guard_channels)
        #: Max one-way message latency (paper's T); 2T is the round trip
        #: used by the Fig. 6 prediction.
        self.T = self.network.latency.max_delay

        self.mode = Mode.LOCAL
        #: How many mirror bits (over ``U`` and ``granted_out``) each
        #: channel has set; its keys are ``I_i``.  Every mirror write goes
        #: through ``_mirror_*``, which keep it exact, so ``I_i`` is never
        #: recomputed from the mirrors.
        self._icount: Dict[int, int] = {}
        #: Mirrored usage of interference neighbors (paper's U_j sets),
        #: one channel mask each.
        self.U: Dict[int, int] = dict.fromkeys(self.IN, 0)
        #: Channels granted to a neighbor whose borrow is still
        #: unconfirmed (deviation D6); part of the interference view.
        self.granted_out: Dict[int, int] = dict.fromkeys(self.IN, 0)
        #: Neighbors currently in borrowing mode (paper's UpdateS_i).
        self.UpdateS: Set[int] = set()
        #: Deferred requests: (req_type, channel, ts, sender, round_id).
        self.DeferQ: Deque[Tuple[ReqType, int, Timestamp, int, int]] = deque()
        #: Search responses sent but not yet acknowledged by ACQUISITION,
        #: keyed by searcher with the search's timestamp.  ``waiting``
        #: (the paper's counter) is its size; keeping the timestamps lets
        #: the request path prove that parking on the gate cannot close a
        #: wait-for cycle (see ``_request_loop``).
        self._owed_acks: Dict[int, Timestamp] = {}
        #: True while a local request is parked on the waiting gate.
        self.pending = False
        #: Borrow attempts of the in-flight request (paper's ``rounds``).
        self.rounds = 0

        #: The mode-switching decision rule (see ``repro.policies``).
        self.policy = make_policy(
            policy,
            policy_params,
            cell=self.cell,
            theta_low=theta_low,
            theta_high=theta_high,
            window=window,
            horizon=2 * self.T,
            initial=len(self.PR),
        )
        self._gate = Gate(self.env)
        self._req_ts: Optional[Timestamp] = None
        #: STATUS collectors keyed by CHANGE_MODE round id.  Several can
        #: be alive at once (mode flaps while responses are in flight),
        #: and each eventually completes because Fig. 5 answers every
        #: CHANGE_MODE unconditionally.
        self._status_collectors: Dict[int, Collector] = {}
        self._last_status_collector: Optional[Collector] = None
        #: Counters exposed to the metrics layer.
        self.mode_changes = 0
        self.stale_responses = 0
        #: For the §5 analytical comparison: local acquisitions and the
        #: number of borrowing neighbors notified at each (gives the
        #: measured N_borrow of Table 1).
        self.local_acquires = 0
        self.local_notify_sum = 0

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    def interfered(self) -> Set[int]:
        """Channels in use somewhere in IN_i per local info (paper's
        I_i), including unconfirmed outbound grants (D6)."""
        return set(self._icount)

    def free_primary_count(self) -> int:
        """``s = |PR_i − (I_i ∪ Use_i)|`` of Fig. 6."""
        use = self.use
        icount = self._icount
        count = 0
        for channel in self.PR:
            if channel not in use and channel not in icount:
                count += 1
        return count

    @property
    def waiting(self) -> int:
        """Unacknowledged search responses (paper's ``waiting_i``)."""
        return len(self._owed_acks)

    def fastlane_eligible(self) -> bool:
        """Quiescence predicate for the hybrid analytic fast lane.

        An adaptive cell may be advanced analytically only while it is
        a pure M/M/c/c loss system on its own primaries and no protocol
        interaction can implicate it without first sending it a message:

        * local mode, with no borrowing neighbors (empty ``UpdateS`` —
          otherwise acquisitions/releases must be broadcast);
        * nothing deferred, owed, parked or collecting (any of those
          means a round is in flight that will resume via local state,
          not via a message we could promote on);
        * every held channel is an own primary, and per local knowledge
          no neighbor uses one of our primaries (``use ⊆ PR`` and
          ``PR ∩ I_i = ∅``) — so ``c = |PR|`` servers are genuinely
          available to the fluid model.
        """
        if self.down or self.mode is not Mode.LOCAL:
            return False
        if self.UpdateS or self.DeferQ or self._owed_acks:
            return False
        if self.pending or self._req_ts is not None:
            return False
        if self._status_collectors or self._collector is not None:
            return False
        if not self.use <= self.PR:
            return False
        if self.PR & self.interfered():
            return False
        return True

    def fastlane_reconcile(self) -> None:
        """Re-anchor the mode policy at the current free-primary count.

        The pre-demotion samples plus the materialization jump would
        otherwise read as a crash-dive in free channels — the linear
        extrapolation then flips freshly promoted cells straight into
        borrowing mode, flooding the region with phantom borrow traffic
        (observed: a 20× drop-rate inflation at high load).  The fluid
        interval's sample history is fictional anyway; the honest
        predictor state after materialization is "flat at s".
        Materialization may have consumed the cell's headroom, so the
        predictor then gets to react (possibly re-entering borrowing,
        which re-promotes as a no-op)."""
        self.policy.reconcile(self.free_primary_count())
        self._check_mode()

    # ------------------------------------------------------------------
    # Mirror writes: one neighbour's mask, with I_i's counts kept exact
    # ------------------------------------------------------------------
    def _mirror_add(self, mirrors: Dict[int, int], j: int, channel: int) -> None:
        """Set ``channel`` in ``mirrors[j]`` (``U`` or ``granted_out``)."""
        held = mirrors[j]
        bit = 1 << channel
        if not held & bit:
            mirrors[j] = held | bit
            icount = self._icount
            icount[channel] = icount.get(channel, 0) + 1

    def _mirror_discard(self, mirrors: Dict[int, int], j: int, channel: int) -> None:
        """Clear ``channel`` in ``mirrors[j]``."""
        held = mirrors[j]
        bit = 1 << channel
        if held & bit:
            mirrors[j] = held ^ bit
            self._uncount(channel)

    def _mirror_replace(
        self, mirrors: Dict[int, int], j: int, members: Iterable[int]
    ) -> None:
        """Make ``mirrors[j]`` the mask of ``members``."""
        held = mirrors[j]
        new = mask(members)
        if held != new:
            mirrors[j] = new
            for channel in channels(held & ~new):
                self._uncount(channel)
            icount = self._icount
            for channel in channels(new & ~held):
                icount[channel] = icount.get(channel, 0) + 1

    def _uncount(self, channel: int) -> None:
        icount = self._icount
        left = icount[channel] - 1
        if left:
            icount[channel] = left
        else:
            del icount[channel]

    # ------------------------------------------------------------------
    # check_mode (Fig. 6)
    # ------------------------------------------------------------------
    def _check_mode(self) -> None:
        # Runs once per handled message, so ``free_primary_count`` and
        # the borrowing test are spelled out inline (no extra frames).
        use = self.use
        icount = self._icount
        s = 0
        for channel in self.PR:
            if channel not in use and channel not in icount:
                s += 1
        t = self.env._now
        mode = self.mode
        target = self.policy.decide(t, s, mode is not Mode.LOCAL)
        if "policy.decide" in self._probes:
            self.env.emit("policy.decide", (self.cell, t, s, target))
        if target is True:
            if mode is Mode.LOCAL:
                self._enter_borrowing()
        elif target is False:
            if mode is Mode.BORROW_IDLE:
                self._exit_borrowing()
        # Modes 2 and 3 never transition here (a request is in flight).

    def _enter_borrowing(self) -> None:
        if self.fastlane is not None:
            # A fluid cell can reach here through a residual call's
            # release (the predictor crossing θ_l): materialize before
            # the mode change so the CHANGE_MODE broadcast and all
            # subsequent borrowing traffic see discrete state.
            # Materialization re-runs check_mode, which may complete the
            # borrowing entry itself — bail instead of broadcasting twice.
            self.fastlane.notify_borrow(self.cell)
            if self.mode is not Mode.LOCAL:
                return
        self.mode = Mode.BORROW_IDLE
        self.mode_changes += 1
        if "mode.change" in self._probes:
            self.env.emit(
                "mode.change", (self.cell, int(Mode.LOCAL), int(Mode.BORROW_IDLE))
            )
        round_id = self._next_round()
        # Every CHANGE_MODE(1) broadcast registers a STATUS collector so
        # a Fig. 2 local-mode request can wait for the refreshed state.
        self._last_status_collector = self._status_round(round_id, self.IN)
        self._broadcast(ChangeMode(1, self.cell, round_id))

    def _status_round(self, round_id: int, expected: Iterable[int]) -> Collector:
        """Register the STATUS collector of CHANGE_MODE round ``round_id``."""
        collector = self._status_collectors[round_id] = Collector(self.env, expected)
        collector.done.callbacks.append(lambda _ev: self._status_done(round_id))
        return collector

    def _status_done(self, round_id: int) -> None:
        # A completed round is let go: it is in no snapshot, and the
        # request loop awaits only the round it has just opened.
        if self._status_collectors.pop(round_id, None) is self._last_status_collector:
            self._last_status_collector = None

    def _exit_borrowing(self) -> None:
        self.mode = Mode.LOCAL
        self.mode_changes += 1
        if "mode.change" in self._probes:
            self.env.emit(
                "mode.change", (self.cell, int(Mode.BORROW_IDLE), int(Mode.LOCAL))
            )
        round_id = self._next_round()
        self._broadcast(ChangeMode(0, self.cell, round_id))

    # ------------------------------------------------------------------
    # Best() (Fig. 10)
    # ------------------------------------------------------------------
    def _best(self, free: Set[int]) -> Optional[int]:
        """Neighbor to borrow from: not itself borrowing and with a
        primary channel free for us; among those, the Fig. 10 heuristic
        picks the one with the fewest borrowing cells in common (fewest
        potential collisions), deterministic tie-break by cell id.
        Alternative policies exist for the E4 ablation."""
        eligible = [
            j for j in self.IN  # sorted at construction
            if j not in self.UpdateS and (self.topo.PR(j) & free)
        ]
        if not eligible:
            return None
        if self.best_policy == "first":
            return eligible[0]
        if self.best_policy == "random":
            return int(eligible[self._tie_rng().integers(0, len(eligible))])
        best_id: Optional[int] = None
        best_bn = float("inf")
        for j in eligible:
            common_bn = len(self.UpdateS & self.topo.IN(j))
            if common_bn < best_bn:
                best_id = j
                best_bn = common_bn
        return best_id

    def _tie_rng(self):
        """The ``"random"`` Best() policy's generator, seeded on first use."""
        if self._best_rng is None:
            import numpy as np

            self._best_rng = np.random.default_rng(10_000 + self.cell)
        return self._best_rng

    # ------------------------------------------------------------------
    # Snapshot hooks (see repro.snap.state)
    # ------------------------------------------------------------------
    def snapshot_obstacle(self) -> Optional[str]:
        if self._req_ts is not None:
            return "adaptive request in flight"
        if self.DeferQ:
            return "DeferQ non-empty"
        if self.pending or self._gate._waiters:
            return "request parked on the waiting gate"
        return super().snapshot_obstacle()

    def state_dict(self) -> Dict[str, object]:
        collectors = self._status_collectors
        rng = self._best_rng
        return {
            "U": {j: set(channels(m)) for j, m in self.U.items()},
            "granted_out": {j: set(channels(m)) for j, m in self.granted_out.items()},
            "status_collectors": {
                rid: [sorted(c._expected), dict(c._responses)]
                for rid, c in collectors.items()
            },
            "last_status": next(
                (r for r, c in collectors.items() if c is self._last_status_collector),
                None,
            ),
            "best_rng": None if rng is None else rng.bit_generator.state,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        for mirrors, captured in (
            (self.U, state["U"]), (self.granted_out, state["granted_out"])
        ):
            # Most are empty on both sides (a fresh build, idle neighbours).
            if any(mirrors.values()) or any(captured.values()):
                for j in self.IN:
                    self._mirror_replace(mirrors, j, captured[j])
        self._status_collectors = {}
        for rid, (expected, responses) in sorted(state["status_collectors"].items()):
            collector = self._status_round(rid, expected)
            for tag in sorted(responses):
                collector.deliver(tag, responses[tag])
        self._last_status_collector = self._status_collectors.get(state["last_status"])
        if state["best_rng"] is not None:
            self._tie_rng().bit_generator.state = state["best_rng"]
