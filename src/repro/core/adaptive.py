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
alternatives (ewma, quantile, clairvoyant oracle, harvest/trade with
SOLICIT/DONATE donation) swap in per scenario without touching this
module — see docs/POLICIES.md.

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

import enum
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, Optional, Set, Tuple

from ..policies.base import ModePolicy, make_policy
from ..protocols.base import MSS
from ..protocols.messages import (
    Acquisition,
    AcqType,
    ChangeMode,
    Donate,
    NO_CHANNEL,
    Release,
    ReqType,
    Request,
    ResType,
    Response,
    Solicit,
    Timestamp,
)
from ..sim import Collector, Gate

__all__ = ["Mode", "AdaptiveMSS"]


class _CountedSet(set):
    """A set that maintains a shared per-channel reference count.

    The adaptive node derives its interference view ``I_i`` from ~19
    mirrored sets (``U_j`` plus ``granted_out_j``); recomputing that
    union inside ``check_mode`` — which runs on *every* message — was
    the simulator's hottest path (40% of runtime, measured).  Instead,
    every mutation of a mirrored set updates the owner's channel
    refcount, so ``interfered()`` and ``free_primary_count`` become
    O(result) lookups.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Dict[int, int]) -> None:
        super().__init__()
        self._counts = counts

    def add(self, channel: int) -> None:
        if channel not in self:
            super().add(channel)
            self._counts[channel] = self._counts.get(channel, 0) + 1

    def discard(self, channel: int) -> None:
        if channel in self:
            super().discard(channel)
            remaining = self._counts[channel] - 1
            if remaining:
                self._counts[channel] = remaining
            else:
                del self._counts[channel]

    def replace(self, new_members) -> None:
        """Make the set equal ``new_members``, updating counts."""
        new = set(new_members)
        for channel in tuple(self - new):
            self.discard(channel)
        for channel in new - self:
            self.add(channel)

    # Guard against accidental use of bypassing mutators.
    def update(self, *args, **kwargs):  # pragma: no cover - guard
        raise NotImplementedError("use add/replace so refcounts stay exact")

    def remove(self, channel):  # pragma: no cover - guard
        raise NotImplementedError("use discard so refcounts stay exact")

    def clear(self):  # pragma: no cover - guard
        raise NotImplementedError("use replace(()) so refcounts stay exact")


class _Mirrors(dict):
    """``neighbour -> _CountedSet`` over one interference region, each
    set created on first touch.

    Most neighbours never borrow, so most of a station's 2·|IN|
    mirrors stay empty for a whole run — and a snapshot restore
    rebuilds every station per fork.  The mapping is total over the
    region all the same: indexing an untouched neighbour returns (and
    keeps) a fresh empty set, and iteration, ``len``, ``in``, ``get``,
    ``keys``/``values``/``items`` cover every neighbour.  Only
    :meth:`peek` reads without creating.
    """

    __slots__ = ("_cells", "_counts")

    def __init__(self, cells: Tuple[int, ...], counts: Dict[int, int]) -> None:
        super().__init__()
        self._cells = cells
        self._counts = counts

    def __missing__(self, cell: int) -> _CountedSet:
        if cell not in self._cells:
            raise KeyError(cell)
        mirror = self[cell] = _CountedSet(self._counts)
        return mirror

    def peek(self, cell: int) -> Iterable[int]:
        """The mirror for *cell* if it was ever touched, else ``()``."""
        return dict.get(self, cell, ())

    def __iter__(self) -> Iterator[int]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell: object) -> bool:
        return cell in self._cells

    def get(self, cell, default=None):
        return self[cell] if cell in self._cells else default

    def keys(self):
        return self._cells

    def values(self):
        return [self[j] for j in self._cells]

    def items(self):
        return [(j, self[j]) for j in self._cells]


class Mode(enum.IntEnum):
    """Paper §3.1: the four values of ``mode_i``."""

    LOCAL = 0
    BORROW_IDLE = 1
    BORROW_UPDATE = 2
    BORROW_SEARCH = 3

    @property
    def is_borrowing(self) -> bool:
        return self is not Mode.LOCAL


class AdaptiveMSS(MSS):
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
        if guard_channels < 0 or guard_channels >= len(self.PR):
            raise ValueError(
                "guard_channels must be in [0, primaries per cell)"
            )
        self.guard_channels = guard_channels
        #: Max one-way message latency (paper's T); 2T is the round trip
        #: used by the Fig. 6 prediction.
        self.T = self.network.latency.max_delay

        self.mode = Mode.LOCAL
        #: Per-channel count of mirrored entries (see _CountedSet).
        self._icount: Dict[int, int] = {}
        #: Mirrored usage of interference neighbors (paper's U_j sets).
        self.U: Dict[int, Set[int]] = _Mirrors(self.IN, self._icount)
        #: Channels granted to a neighbor whose borrow is still
        #: unconfirmed (deviation D6); part of the interference view.
        self.granted_out: Dict[int, Set[int]] = _Mirrors(
            self.IN, self._icount
        )
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
        #: Only donation-aware policies override ``solicit_need``; for
        #: the rest the mode check skips the call.
        self._solicits = (
            type(self.policy).solicit_need is not ModePolicy.solicit_need
        )
        self._gate = Gate(self.env)
        self._req_ts: Optional[Timestamp] = None
        self._collector: Optional[Collector] = None
        self._collector_round = -1
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
        predictor state after materialization is "flat at s"."""
        self.policy.reconcile(self.free_primary_count())

    # ------------------------------------------------------------------
    # Requesting a channel (Fig. 2)
    # ------------------------------------------------------------------
    def _request(self, ts: Timestamp):
        if self.mode in (Mode.BORROW_UPDATE, Mode.BORROW_SEARCH):
            raise AssertionError("concurrent Request_Channel on one MSS")
        self._req_ts = ts
        try:
            channel = yield from self._request_loop(ts)
        finally:
            self._req_ts = None
        return channel

    def _request_loop(self, ts: Timestamp):
        while True:
            # Sequentialization with in-flight searches we responded to
            # (Fig. 2's "wait UNTIL waiting_i = 0").  Parking is only
            # safe when every owed acknowledgment belongs to a search
            # *older* than this request — then every wait-for edge in
            # the system points to a strictly smaller timestamp and no
            # cycle can form (the paper's Theorem 2 argument).  A search
            # answered while this node was transiently in borrowing mode
            # can be *younger*; parking then would deadlock (we found
            # this empirically), so such requests take the guarded
            # update-round path below instead.
            if self.waiting > 0 and all(
                owed < ts for owed in self._owed_acks.values()
            ):
                self.pending = True
                for searcher, owed_ts in self._owed_acks.items():
                    if "wait.block" in self._probes:
                        self.env.emit(
                            "wait.block", (self.cell, searcher, "gate", owed_ts)
                        )
                while self.waiting > 0:
                    yield self._gate.wait()
                self.pending = False

            # Primary channel free?  Acquire with zero latency — unless
            # an in-flight search might be choosing it right now
            # (waiting > 0), in which case run a full permission round
            # on the primary: older searches defer us and then reject if
            # they took it; younger searches grant and record the grant,
            # excluding the channel from their later pick (D3/D6).
            free_primary = self.PR - self.use - self.interfered()
            if (
                self.guard_channels
                and self._req_kind == "new"
                and len(free_primary) <= self.guard_channels
            ):
                # Guard-channel extension: the last free primaries are
                # reserved for handoffs — the new call is blocked
                # (classic admission control).
                self._grant_mode = "guard_blocked"
                self._attempts += 1
                return None
            if free_primary:
                if self.waiting == 0:
                    channel = min(free_primary)
                    self._grant_mode = "local"
                    self._attempts += 1
                    self._acquire(channel)
                    return channel
                self.rounds += 1
                if self.rounds <= max(self.alpha, 1):
                    channel = yield from self._update_round(
                        min(free_primary), ts
                    )
                    if channel is not None:
                        return channel
                    continue
                channel = yield from self._borrow_search(ts)
                return channel

            if self.mode is Mode.LOCAL:
                # Enter borrowing mode and refresh neighborhood state
                # (Fig. 2 local else-branch: check_mode + wait for the
                # STATUS response of every neighbor, then retry).
                self._check_mode()
                if self.mode is Mode.LOCAL:
                    # Predictor refused (θ_l = 0 configurations); the
                    # request still needs neighbor state — force it.
                    self._enter_borrowing()
                yield from self._await_round(self._last_status_collector)
                continue

            # ---- borrowing mode (Fig. 2 else-branch) ----
            free = self.spectrum - self.use - self.interfered()
            target = self._best(free)
            self.rounds += 1
            if target is not None and self.rounds <= self.alpha:
                channel = yield from self._update_round(
                    min(self.topo.PR(target) & free), ts
                )
                if channel is not None:
                    return channel
                continue  # rejected: retry (Fig. 2 recursion, same ts)

            channel = yield from self._borrow_search(ts)
            return channel  # search is terminal: channel or dropped call

    def _update_round(self, channel: int, ts: Timestamp):
        """One update-style permission round (mode 2) for ``channel``.

        Used both to borrow a Best()-target's primary and to guard the
        acquisition of an own primary while searches are in flight.
        Returns the channel on unanimous grant, else None.
        """
        prev_mode = self.mode
        self.mode = Mode.BORROW_UPDATE
        self._grant_mode = "update"
        self._attempts += 1
        round_id = self._next_round()
        self._collector = Collector(self.env, self.IN)
        self._collector_round = round_id
        self._broadcast(Request(ReqType.UPDATE, channel, ts, self.cell, round_id))
        verdicts, complete = yield from self._await_round(self._collector)
        self._collector = None

        if complete and all(v is ResType.GRANT for v in verdicts.values()):
            self._acquire(channel)  # mode 2 → BORROW_IDLE, drains DeferQ
            if prev_mode is Mode.LOCAL:
                # A guarded own-primary round from local mode is
                # invisible to the neighbors (no CHANGE_MODE was sent),
                # so restore and let the predictor decide.
                self.mode = Mode.LOCAL
                self._check_mode()
            return channel
        # Failure: revert mode and release the granters (Fig. 2).
        self.mode = prev_mode
        if complete:
            for j in sorted(verdicts):
                if verdicts[j] is ResType.GRANT:
                    self._send(j, Release(self.cell, channel))
        else:
            # Round deadline expired: a missing verdict is treated as a
            # rejection (safe — we never acquire), but it may be a GRANT
            # still in flight or already recorded at the responder, so
            # release to *all* of IN.  RELEASE is idempotent and a no-op
            # at anyone who never granted, and it clears both the U
            # mirror entry and the D6 granted_out overlay at granters.
            self._broadcast(Release(self.cell, channel))
        return None

    def _borrow_search(self, ts: Timestamp):
        """One borrowing-search round (mode 3): guaranteed to find a
        channel if one exists in the region (paper §3.5)."""
        self.mode = Mode.BORROW_SEARCH
        self._grant_mode = "search"
        self._attempts += 1
        round_id = self._next_round()
        self._collector = Collector(self.env, self.IN)
        self._collector_round = round_id
        if "search.begin" in self._probes:
            self.env.emit("search.begin", (self.cell, ts))
        self._broadcast(
            Request(ReqType.SEARCH, NO_CHANNEL, ts, self.cell, round_id)
        )
        _responses, complete = yield from self._await_round(self._collector)
        self._collector = None

        if not complete:
            # Some neighbor never answered (lost beyond the retry
            # budget, partitioned, or crashed): the interference view is
            # stale, so picking any channel could collide — abandon.
            # The ACQUISITION(NO_CHANNEL) broadcast below still goes out
            # so every responder's ``waiting`` counter is decremented.
            self._acquire(None)
            return None

        # Each SEARCH response refreshed the corresponding U_j mirror,
        # so the interference view is now a consistent snapshot of the
        # whole region (plus unconfirmed grants, D6).
        free = self.spectrum - self.use - self.interfered()
        channel = min(free) if free else None
        self._acquire(channel)  # None → ACQUISITION(-1): unblocks waiters
        return channel

    # ------------------------------------------------------------------
    # acquire(r) (Fig. 3)
    # ------------------------------------------------------------------
    def _acquire(self, channel: Optional[int]) -> None:
        if channel is not None:
            self._grab(channel)
        self.rounds = 0

        if self.mode in (Mode.LOCAL, Mode.BORROW_IDLE):
            self.local_acquires += 1
            self.local_notify_sum += len(self.UpdateS)
            if self.UpdateS:
                self._broadcast(
                    Acquisition(AcqType.NON_SEARCH, self.cell, channel),
                    dsts=sorted(self.UpdateS),
                )
        elif self.mode is Mode.BORROW_UPDATE:
            # Granters already recorded the channel when they granted.
            self.mode = Mode.BORROW_IDLE
        else:  # BORROW_SEARCH — notify everyone, even on failure, so
            # their ``waiting`` counters are decremented (Fig. 3 case 3).
            wire_channel = channel if channel is not None else NO_CHANNEL
            self._broadcast(Acquisition(AcqType.SEARCH, self.cell, wire_channel))
            # The ACQUISITION broadcast is now in flight: from here on,
            # nobody is *blocked* on this search any more.
            if "search.end" in self._probes:
                self.env.emit("search.end", self.cell)
            self.mode = Mode.BORROW_IDLE

        self._drain_deferq()
        if self.mode is Mode.LOCAL:
            self._check_mode()

    def _drain_deferq(self) -> None:
        """Answer every deferred request (tail of Fig. 3)."""
        while self.DeferQ:
            req_type, q, _ts, j, rid = self.DeferQ.popleft()
            if "wait.unblock" in self._probes:
                self.env.emit("wait.unblock", (j, self.cell))
            if req_type is ReqType.UPDATE:
                if q in self.use:
                    self._send(j, Response(ResType.REJECT, self.cell, q, rid))
                else:
                    self._send(j, Response(ResType.GRANT, self.cell, q, rid))
                    self.granted_out[j].add(q)
                    if "mirror.update" in self._probes:
                        self.env.emit(
                            "mirror.update", (self.cell, j, "granted_out", "add", q)
                        )
            else:
                self._respond_search(j, _ts, rid)

    # ------------------------------------------------------------------
    # Deallocate (Fig. 9)
    # ------------------------------------------------------------------
    def _repack_substitute(self, channel: int) -> int:
        """Channel reassignment (the ``repack`` extension): when an own
        primary frees while borrowed channels are held, retire a
        borrowed channel instead — the remaining call is reassigned to
        the primary, handing the borrowed channel back to its owners."""
        if not self.repack or channel not in self.PR:
            return channel
        borrowed = self.use - self.PR
        if not borrowed:
            return channel
        retired = max(borrowed)  # prefer retiring the highest borrowed id
        self._alias.setdefault(retired, deque()).append(channel)
        self.repacks += 1
        return retired

    def _release(self, channel: int) -> None:
        self._drop_from_use(channel)
        if self.mode is Mode.LOCAL and channel in self.PR:
            # Primary release in local mode: only borrowing neighbors
            # track our state (Fig. 9).
            if self.UpdateS:
                self._broadcast(
                    Release(self.cell, channel), dsts=sorted(self.UpdateS)
                )
        else:
            # Borrowed channels always go to the whole region (D7).
            self._broadcast(Release(self.cell, channel))
        self._check_mode()

    # ------------------------------------------------------------------
    # check_mode (Fig. 6)
    # ------------------------------------------------------------------
    def _check_mode(self) -> None:
        # Runs once per handled message, so ``free_primary_count`` and
        # ``Mode.is_borrowing`` are spelled out inline (no extra frames).
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
        if self._solicits:
            need = self.policy.solicit_need(t, s, self.mode.is_borrowing)
            if need:
                # Harvest extension: broadcast the shortfall so unloaded
                # neighbors can volunteer channels (advisory; see Donate).
                if "policy.solicit" in self._probes:
                    self.env.emit("policy.solicit", (self.cell, need))
                self._broadcast(Solicit(self.cell, need))

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
        collector.done.callbacks.append(
            lambda _ev: self._status_collectors.pop(round_id, None)
        )
        return collector

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
        # Harvest extension: a neighbor that recently volunteered a
        # still-free channel beats the heuristics below (no-op for
        # policies without a donation book).
        donor = self.policy.preferred_donor(self.env._now, eligible, free)
        if donor is not None:
            return donor
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
    # Message handlers (Figs. 4, 5, 7, 8)
    # ------------------------------------------------------------------
    def _on_Request(self, msg: Request) -> None:
        if msg.req_type is ReqType.UPDATE:
            self._handle_update_request(msg)
        else:
            self._handle_search_request(msg)

    def _handle_update_request(self, msg: Request) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        r, sender, rid = msg.channel, msg.sender, msg.round_id
        if self.mode in (Mode.LOCAL, Mode.BORROW_IDLE):
            if r in self.use:
                self._send(sender, Response(ResType.REJECT, self.cell, r, rid))
            else:
                self._grant_update(r, sender, rid)
        elif self.mode is Mode.BORROW_UPDATE:
            # Reject if we use r or our own pending request is older.
            if r in self.use or self._req_ts < msg.ts:
                self._send(sender, Response(ResType.REJECT, self.cell, r, rid))
            else:
                self._grant_update(r, sender, rid)
        else:  # BORROW_SEARCH
            if self._req_ts < msg.ts:
                # Our search is older: defer them until we acquired.
                self.DeferQ.append((ReqType.UPDATE, r, msg.ts, sender, rid))
                if "wait.block" in self._probes:
                    self.env.emit("wait.block", (sender, self.cell, "defer", msg.ts))
            elif r in self.use:  # deviation D4: safety check
                self._send(sender, Response(ResType.REJECT, self.cell, r, rid))
            else:
                self._grant_update(r, sender, rid)

    def _grant_update(self, r: int, sender: int, rid: int) -> None:
        self._send(sender, Response(ResType.GRANT, self.cell, r, rid))
        self.granted_out[sender].add(r)
        if "mirror.update" in self._probes:
            self.env.emit(
                "mirror.update", (self.cell, sender, "granted_out", "add", r)
            )
        self._check_mode()

    def _handle_search_request(self, msg: Request) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        sender, rid = msg.sender, msg.round_id
        # Defer a *younger* search while we have an older claim of our
        # own in flight — ANY in-flight request, regardless of mode.
        # The paper keys deferral on modes 0 (parked) / 2 / 3, but a
        # request can also be in flight while the node shows mode 1:
        # parked on the gate after check_mode flapped it, waiting for
        # STATUS responses in the Fig. 2 local-else branch, or between
        # borrow rounds.  Answering a younger search in those windows
        # broke both liveness (a parked node's owed-ack set grew
        # younger → wait-for cycle → observed deadlock) and safety (two
        # status-waiting nodes answered each other, then searched
        # concurrently and picked the same channel → observed co-channel
        # violation).  Keying on the request timestamp alone restores
        # the strictly-decreasing wait-for order of Theorem 2 and the
        # search sequentialization of Theorem 1 case 1(a).
        has_older_claim = self._req_ts is not None and self._req_ts < msg.ts
        if has_older_claim:
            self.DeferQ.append(
                (ReqType.SEARCH, msg.channel, msg.ts, sender, rid)
            )
            if "wait.block" in self._probes:
                self.env.emit("wait.block", (sender, self.cell, "defer", msg.ts))
        else:
            self._respond_search(sender, msg.ts, rid)

    def _respond_search(self, sender: int, ts: Timestamp, rid: int) -> None:
        if sender in self._owed_acks:
            if self.hardening is None:
                raise AssertionError(
                    f"cell {self.cell}: second search response to {sender} "
                    f"before its ACQUISITION"
                )
            # The sender's previous search concluded but its ACQUISITION
            # to us was lost beyond the retry budget; a *new* search
            # from the same sender implicitly acknowledges the old one.
            if "wait.unblock" in self._probes:
                self.env.emit("wait.unblock", (self.cell, sender))
            del self._owed_acks[sender]
        self._owed_acks[sender] = ts
        if self.pending:
            # Our own request is parked on the gate; this new owed ack
            # extends the park, so it is a live wait-for edge.
            if "wait.block" in self._probes:
                self.env.emit("wait.block", (self.cell, sender, "gate", ts))
        if self.hardening is not None:
            # Backstop for a terminally lost ACQUISITION: clear the owed
            # entry after ack_timeout (sized so the search has certainly
            # ended by then) rather than blocking this node's own
            # requests forever.  Safe for Theorem 1 case 1(c): by expiry
            # the searcher's pick is long since made (or abandoned), so
            # sequentializing against it is moot.
            timer = self.env.timeout(self.hardening.ack_timeout, (sender, ts))
            timer.callbacks.append(self._owed_ack_expire)
        self._send(
            sender, Response(ResType.SEARCH, self.cell, frozenset(self.use), rid)
        )

    def _owed_ack_expire(self, event) -> None:
        sender, ts = event._value
        if self._owed_acks.get(sender) != ts:
            return  # acknowledged (or superseded) in time
        del self._owed_acks[sender]
        self.stale_responses += 1
        if "fault.ack_timeout" in self._probes:
            self.env.emit("fault.ack_timeout", (self.cell, sender))
        if "wait.unblock" in self._probes:
            self.env.emit("wait.unblock", (self.cell, sender))
        if not self._owed_acks:
            self._gate.pulse()

    def _on_Response(self, msg: Response) -> None:
        if msg.res_type is ResType.STATUS:
            # Full-state refresh: replace (not merge) the mirrored set —
            # this also heals any stale entries (see DESIGN.md §5 note 6).
            self.U[msg.sender].replace(msg.payload)
            if "mirror.update" in self._probes:
                self.env.emit(
                    "mirror.update", (self.cell, msg.sender, "U", "replace", None)
                )
            collector = self._status_collectors.get(msg.round_id)
            if collector is not None and msg.sender in collector.outstanding:
                collector.deliver(msg.sender, msg.payload)
            else:
                self.stale_responses += 1
            self._check_mode()
            return

        if (
            self._collector is not None
            and msg.round_id == self._collector_round
            and msg.sender in self._collector.outstanding
        ):
            if msg.res_type is ResType.SEARCH:
                # Search responses carry the responder's full Use set:
                # replace our mirror, then hand it to the waiting round.
                self.U[msg.sender].replace(msg.payload)
                if "mirror.update" in self._probes:
                    self.env.emit(
                        "mirror.update", (self.cell, msg.sender, "U", "replace", None)
                    )
                self._collector.deliver(msg.sender, frozenset(msg.payload))
            else:
                self._collector.deliver(msg.sender, msg.res_type)
        else:
            self.stale_responses += 1

    def _on_ChangeMode(self, msg: ChangeMode) -> None:
        if "proto.request" in self._probes:
            self.env.emit("proto.request", (self.cell, msg.sender, msg.round_id))
        if msg.mode == 0:
            self.UpdateS.discard(msg.sender)
        else:
            self.UpdateS.add(msg.sender)
        # Fig. 5 answers every CHANGE_MODE with a STATUS response.
        self._send(
            msg.sender,
            Response(ResType.STATUS, self.cell, frozenset(self.use), msg.round_id),
        )

    def _on_Acquisition(self, msg: Acquisition) -> None:
        if msg.channel != NO_CHANNEL:
            self.U[msg.sender].add(msg.channel)
            if "mirror.update" in self._probes:
                self.env.emit(
                    "mirror.update", (self.cell, msg.sender, "U", "add", msg.channel)
                )
            self.granted_out[msg.sender].discard(msg.channel)
            if "mirror.update" in self._probes:
                self.env.emit(
                    "mirror.update",
                    (self.cell, msg.sender, "granted_out", "discard", msg.channel),
                )
        self._check_mode()
        if msg.acq_type is AcqType.SEARCH:
            if msg.sender not in self._owed_acks:
                if self.hardening is not None:
                    # The owed entry was already cleared — by the
                    # ack-timeout backstop, a crash wipe, or a newer
                    # search from the same sender.  Late but harmless.
                    self.stale_responses += 1
                    return
                raise AssertionError(
                    f"cell {self.cell}: search ACQUISITION from {msg.sender} "
                    f"without an owed response"
                )
            del self._owed_acks[msg.sender]
            if "wait.unblock" in self._probes:
                self.env.emit("wait.unblock", (self.cell, msg.sender))
            if not self._owed_acks:
                self._gate.pulse()

    def _on_Release(self, msg: Release) -> None:
        self.U[msg.sender].discard(msg.channel)
        if "mirror.update" in self._probes:
            self.env.emit(
                "mirror.update", (self.cell, msg.sender, "U", "discard", msg.channel)
            )
        self.granted_out[msg.sender].discard(msg.channel)
        if "mirror.update" in self._probes:
            self.env.emit(
                "mirror.update",
                (self.cell, msg.sender, "granted_out", "discard", msg.channel),
            )
        self._check_mode()

    # ------------------------------------------------------------------
    # Harvest extension: SOLICIT / DONATE (repro.policies.harvest)
    # ------------------------------------------------------------------
    def _on_Solicit(self, msg: Solicit) -> None:
        # Offer free primaries per local knowledge only; the donation
        # is advisory, so an offer raced by a concurrent acquisition is
        # merely useless, never unsafe (the permission round decides).
        free = sorted(self.PR - self.use - self.interfered())
        count = self.policy.consider_solicit(
            self.env._now, msg.need, len(free), self.mode.is_borrowing
        )
        if count > 0:
            channels = tuple(free[:count])
            if "policy.donate" in self._probes:
                self.env.emit("policy.donate", (self.cell, msg.sender, channels))
            self._send(msg.sender, Donate(self.cell, channels))

    def _on_Donate(self, msg: Donate) -> None:
        self.policy.record_donation(
            self.env._now, msg.sender, tuple(msg.channels)
        )

    # ------------------------------------------------------------------
    # Crash / restart (fault injection)
    # ------------------------------------------------------------------
    def _crash_hook(self, lose_state: bool) -> None:
        # Any in-flight round is void: its collector will never complete
        # (the network drops our deliveries while down), and the parked
        # request generator resolves through its hardened round deadline.
        if self._collector is not None:
            self._collector.cancel()
        for collector in self._status_collectors.values():
            collector.cancel()
        self._status_collectors.clear()
        # Deferred requesters must not wait on a dead station; dropping
        # the entries (with the matching wait-graph edge removals) lets
        # their own round deadlines resolve them.
        while self.DeferQ:
            _req_type, _q, _ts, j, _rid = self.DeferQ.popleft()
            if "wait.unblock" in self._probes:
                self.env.emit("wait.unblock", (j, self.cell))
        if lose_state:
            # Cold restart: every volatile structure is gone.  The U /
            # granted_out mirrors are rebuilt by the restart re-sync;
            # owed acknowledgements are dropped (their searchers' own
            # protection is the ack-timeout backstop on their side).
            for j in self.IN:
                self.U[j].replace(())
                if "mirror.update" in self._probes:
                    self.env.emit("mirror.update", (self.cell, j, "U", "replace", None))
                self.granted_out[j].replace(())
                if "mirror.update" in self._probes:
                    self.env.emit(
                        "mirror.update", (self.cell, j, "granted_out", "replace", None)
                    )
            self.UpdateS.clear()
            for sender in tuple(self._owed_acks):
                del self._owed_acks[sender]
                if "wait.unblock" in self._probes:
                    self.env.emit("wait.unblock", (self.cell, sender))
            self._gate.pulse()
            self.policy.reset(len(self.PR))

    def _restart_hook(self) -> None:
        # Neighborhood re-sync: Fig. 5 answers *every* CHANGE_MODE with
        # a STATUS response carrying the responder's current Use set, so
        # a mode-0 broadcast (which also clears any stale membership of
        # this cell in the neighbors' UpdateS sets) rebuilds all U_j
        # mirrors without claiming to be borrowing.
        self.mode = Mode.LOCAL
        round_id = self._next_round()
        self._last_status_collector = self._status_round(round_id, self.IN)
        self._broadcast(ChangeMode(0, self.cell, round_id))

    # ------------------------------------------------------------------
    # Snapshot hooks (see repro.snap.state)
    # ------------------------------------------------------------------
    def snapshot_obstacle(self) -> Optional[str]:
        if self._req_ts is not None:
            return "adaptive request in flight"
        if self._collector is not None:
            return "response round in flight"
        if self.DeferQ:
            return "DeferQ non-empty"
        if self.pending or self._gate._waiters:
            return "request parked on the waiting gate"
        return super().snapshot_obstacle()

    def state_dict(self) -> Dict[str, object]:
        collectors = self._status_collectors
        rng = self._best_rng
        return {
            # ``peek``: reading must not materialize untouched mirrors.
            "U": {j: set(self.U.peek(j)) for j in self.IN},
            "granted_out": {j: set(self.granted_out.peek(j)) for j in self.IN},
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
            # Most mirrors are empty on both sides (a fresh build, an
            # idle neighbour): nothing to replace or create.
            touched = dict.keys(mirrors)  # the mirrors that exist so far
            if touched or any(captured.values()):
                for j in self.IN:
                    if captured[j] or j in touched:
                        mirrors[j].replace(captured[j])
        self._status_collectors = {}
        for rid, (expected, responses) in sorted(state["status_collectors"].items()):
            collector = self._status_round(rid, expected)
            for tag in sorted(responses):
                collector.deliver(tag, responses[tag])
        self._last_status_collector = self._status_collectors.get(state["last_status"])
        if state["best_rng"] is not None:
            self._tie_rng().bit_generator.state = state["best_rng"]
