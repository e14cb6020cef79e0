"""Hybrid analytic/DES fast lane: fluid cells, on-demand materialization.

At low load the adaptive scheme's whole point is that most cells sit in
local mode exchanging *no* messages — yet the discrete kernel still
pays one arrival process, one call process and one release timeout per
call in every one of them.  The fast lane removes that cost: a cell
whose protocol state is quiescent (see ``MSS.fastlane_eligible``) is
*demoted* to a fluid representation — its arrival process is taken off
the event heap (``Environment.cancel`` of the pending gap timeout) and
its dynamics are advanced analytically as an M/M/c/c Erlang-loss
system on its ``c = |PR|`` primaries.

While fluid, the cell's behaviour is reconstructed lazily:

* **Settlement** — when a fluid interval ``[t0, t1)`` closes, its
  arrivals are replayed from a dedicated per-cell substream
  ``("fastlane", "cell", cell)`` by the same thinned-Poisson scheme the
  discrete traffic source uses, each blocked independently with
  probability ``erlang_b(A(t), c)`` (the Erlang-loss blocking model —
  the lane's one approximation) and each admission given an explicit
  exponential holding time; every arrival becomes a synthetic
  acquisition record (``mode="local"``, zero wait) so the metrics
  pipeline folds them in untouched (all report statistics are
  order-insensitive).
* **Observation** — at each observation instant (cadence = the
  scenario's prediction window ``W``) an adaptive cell's occupancy is
  tested against the truncated-Poisson stationary law: one uniform per
  cell per instant against the memoized tail probability
  ``P(busy > c - θ_l)`` — distributionally identical to drawing the
  occupancy by inverse CDF and comparing, at a fraction of the cost.
  A spike (or discrete residual calls already past the threshold)
  promotes the cell back to discrete simulation so the borrowing
  machinery can run.
* **Promotion (materialization)** — the state bridge reconciles fluid
  occupancy with discrete call records: admissions whose holding time
  outlives the interval are materialized onto the lowest free primaries
  with their true remaining durations (residual discrete calls kept
  draining through the interval, so the reconciled ``use`` set is a
  faithful sample path, not an independent stationary draw — an earlier
  stationary-resample bridge ratcheted occupancy toward the maximum of
  repeated draws and inflated drops 20× at high load); the arrival
  process is then relaunched on its memoized traffic substream,
  resuming exactly where the previous incarnation left off, and the
  protocol's predictor history is reset flat
  (``MSS.fastlane_reconcile``).

Promotion triggers: any protocol message delivered to the cell
(``MSS.on_message`` promotes before handling — a borrow of one of our
primaries necessarily sends us a Request, so fluid state can never be
implicated silently), the cell itself entering borrowing mode, a
sampled occupancy spike, and end-of-run finalization.  What the lane
may be combined with is the ``fastlane`` column of
``docs/CAPABILITIES.md``.

Per-cell lane substreams are seed-deterministic and scheme-invariant;
with ``fastlane=False`` (the default) none of this module is even
constructed and the kernel is bit-identical to the classic path.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..analysis.erlang import carried_load, erlang_b
from ..analysis.occupancy import truncated_poisson_pmf
from .capability import SCHEMES, check_compatible

__all__ = ["FastLane"]


class FastLane:
    """Controller for fluid (analytically advanced) cells of one run."""

    #: Adaptive-scheme validity gate: a cell is only demoted while its
    #: Erlang-loss blocking probability is below this.  The fluid model
    #: replaces *borrowing* with *blocking*; the substitution is honest
    #: exactly where both are negligible — at loads where B(A, c) is
    #: material, the real scheme would borrow, so such cells must stay
    #: discrete (the lane then degrades gracefully to a near-no-op).
    MAX_FLUID_BLOCKING = 0.01

    def __init__(
        self,
        env: Any,
        stations: Dict[int, Any],
        source: Any,
        metrics: Any,
        scenario: Any,
        streams: Any,
    ) -> None:
        check_compatible(scenario, source=source)
        self.env = env
        self._probes = env._probes
        self.stations = stations
        self.source = source
        self.metrics = metrics
        self.scenario = scenario
        self.streams = streams
        self.pattern = source.pattern
        self.mean_holding = scenario.mean_holding
        self.duration = scenario.duration
        #: Observation cadence — the adaptive scheme's prediction window.
        self.period = scenario.window
        #: A policy-driven scheme borrows: spike and headroom checks apply.
        self.adaptive = SCHEMES[scenario.scheme].policy_driven
        #: Fluid cells: cell id -> start time of the open fluid interval.
        self._fluid: Dict[int, float] = {}
        #: Erlang-B memo: (offered_load, servers) -> blocking probability
        #: (constant-rate patterns hit one entry per cell size).
        self._bcache: Dict[Tuple[float, int], float] = {}
        # -- counters / divergence accumulators ---------------------------
        self.demotions = 0
        self.promotions: Dict[str, int] = {"message": 0, "spike": 0, "borrow": 0}
        self.fluid_time = 0.0
        self.arrivals = 0
        self.blocked = 0
        self.materialized = 0
        #: Survivors that found no free primary at materialization (the
        #: Erlang-B blocking model admitted more than capacity; counted
        #: as completed, reported here for honesty).
        self.shed = 0
        self._model_block_sum = 0.0  # sum of model B over fluid arrivals
        self._occ_samples = 0
        self._occ_sum = 0
        self._occ_model_sum = 0.0
        self._tailcache: Dict[Tuple[float, int, int], float] = {}
        self._rngs: Dict[int, Any] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Attach to the stations/source and claim eligible cells at t=0."""
        for station in self.stations.values():
            station.fastlane = self
        self.source.lane = self
        for cell in sorted(self.stations):
            if self._demotable(cell):
                self._demote(cell)
        self.env.process(self._ticks(), name="fastlane[ticks]")

    def claims(self, cell: int) -> bool:
        """True if ``cell`` is fluid (the traffic source must not launch
        its arrival process)."""
        return cell in self._fluid

    # ------------------------------------------------------------------
    # Promotion triggers
    # ------------------------------------------------------------------
    def notify_message(self, cell: int) -> None:
        """A protocol message is about to be handled by ``cell``:
        materialize it first (no-op for discrete cells)."""
        if cell in self._fluid:
            self._promote(cell, "message")

    def notify_borrow(self, cell: int) -> None:
        """``cell`` is about to enter borrowing mode (a residual call's
        release flipped the predictor): materialize it first."""
        if cell in self._fluid:
            self._promote(cell, "borrow")

    # ------------------------------------------------------------------
    # Observation instants
    # ------------------------------------------------------------------
    def _ticks(self):
        # Bounded by the horizon so a drain (``env.run()`` with no
        # ``until``) terminates: a tick at or past ``duration`` would
        # never execute during the run anyway (the stop event outranks
        # it), and not scheduling it shifts later event ids uniformly —
        # relative order, the heap tie-break, is unchanged.
        while self.env.now + self.period < self.duration:
            yield self.env.timeout(self.period)
            self._tick()

    def _tick(self) -> None:
        now = self.env.now
        # Spike checks (adaptive only — FCA never needs to borrow): one
        # uniform per fluid cell against the memoized truncated-Poisson
        # tail P(busy > c - θ_l).  Equivalent in distribution to
        # sampling the occupancy by inverse CDF and comparing (both
        # consume exactly one uniform), but the pmf is computed once
        # per (offered, c) instead of per cell per instant — this loop
        # runs cells x (duration/W) times and must stay off the fast
        # lane's own critical path.
        if self.adaptive:
            theta = self.scenario.theta_low
            for cell in sorted(self._fluid):
                station = self.stations[cell]
                c = len(station.PR)
                a = self._offered(cell, now)
                u = float(self._rng(cell).random())
                if len(station.use) > c - theta or u < self._spike_tail(
                    a, c, theta
                ):
                    self._promote(cell, "spike")
        # Demotion checks: a discrete cell joins the fluid lane only at
        # observation instants, only while it *and its whole
        # interference neighborhood* are quiescent, and (adaptive) only
        # with θ_h free primaries of hysteresis headroom.
        for cell in sorted(self.stations):
            if cell not in self._fluid and self._demotable(cell):
                self._demote(cell)

    def _demotable(self, cell: int) -> bool:
        station = self.stations[cell]
        if self.pattern.max_rate(cell) <= 0:
            return False  # nothing to advance; stay discrete
        if not station.fastlane_eligible():
            return False
        for j in station.IN:
            neighbor = self.stations.get(j)
            if neighbor is None or not neighbor.fastlane_eligible():
                return False
        if self.adaptive:
            if station.free_primary_count() < self.scenario.theta_high:
                return False
            blocking = self._blocking(
                self._offered(cell, self.env.now), len(station.PR)
            )
            if blocking > self.MAX_FLUID_BLOCKING:
                return False
        return True

    # ------------------------------------------------------------------
    # Demotion / promotion (the state bridge)
    # ------------------------------------------------------------------
    def _demote(self, cell: int) -> None:
        self._fluid[cell] = self.env.now
        self.demotions += 1
        self.source.halt(cell)
        if "fastlane.demote" in self._probes:
            self.env.emit("fastlane.demote", (cell,))

    def _promote(self, cell: int, reason: str) -> None:
        t0 = self._fluid.pop(cell, None)
        if t0 is None:
            return  # re-entrant trigger: already discrete
        now = self.env.now
        station = self.stations[cell]
        survivors = self._settle(cell, t0, now)
        free = sorted(station.PR - station.use)
        placed = min(len(survivors), len(free))
        for channel, remaining in zip(free, survivors[:placed]):
            station._grab(channel)
            self.env.process(
                self._holdover(station, channel, remaining),
                name=f"fastlane-call[{cell}]",
            )
        self.materialized += placed
        if placed < len(survivors):
            # Erlang-B admitted beyond the free primaries; the excess
            # cannot be placed — fold it into completions and report it.
            self.shed += len(survivors) - placed
            self.source.log.completed += len(survivors) - placed
        self._occ_sample(cell, len(station.use), now)
        self.fluid_time += now - t0
        self.promotions[reason] += 1
        self.source.launch(cell)
        if "fastlane.promote" in self._probes:
            self.env.emit("fastlane.promote", (cell, reason))
        station.fastlane_reconcile()

    def _holdover(self, station, channel: int, remaining: float):
        yield self.env.timeout(remaining)
        station.release_channel(channel)
        self.source.log.completed += 1

    # ------------------------------------------------------------------
    # Settlement: replay a fluid interval analytically
    # ------------------------------------------------------------------
    def _settle(self, cell: int, t0: float, t1: float) -> list:
        """Replay ``[t0, t1)`` arrivals for ``cell``.

        Thinned-Poisson arrival replay — same scheme as
        ``TrafficSource._arrivals``, on the lane's own substream — with
        each arrival blocked independently with probability
        ``erlang_b(A(t), c)`` and each admission given an explicit
        exponential holding time.  Admissions ending inside the
        interval complete on the spot; the rest are returned as their
        remaining-after-``t1`` durations (ascending by arrival time)
        for the caller to materialize.  Accounting goes to the same
        sinks the discrete path feeds: one acquisition record per
        arrival and the source's aggregate ``CallLog``.
        """
        station = self.stations[cell]
        c = len(station.PR)
        rng = self._rng(cell)
        pattern = self.pattern
        lam_max = pattern.max_rate(cell)
        n = b = 0
        survivors = []
        t = t0
        while True:
            t += float(rng.exponential(1.0 / lam_max))
            if t >= t1 or t >= self.duration:
                break
            rate = pattern.rate(cell, t)
            accept = rate / lam_max
            if accept < 1.0 and rng.random() >= accept:
                continue
            n += 1
            blocking = self._blocking(rate * self.mean_holding, c)
            self._model_block_sum += blocking
            dropped = blocking > 0.0 and float(rng.random()) < blocking
            if dropped:
                b += 1
            else:
                holding = float(rng.exponential(self.mean_holding))
                if t + holding >= t1:
                    survivors.append(t + holding - t1)
            self.metrics.record_acquisition(
                cell, "new", not dropped, 0.0, 0.0, 1, "local", t
            )
        log = self.source.log
        log.started += n
        log.blocked += b
        log.completed += n - b - len(survivors)
        self.arrivals += n
        self.blocked += b
        return survivors

    def _blocking(self, offered: float, servers: int) -> float:
        key = (offered, servers)
        cached = self._bcache.get(key)
        if cached is None:
            cached = self._bcache[key] = erlang_b(offered, servers)
        return cached

    def _spike_tail(self, offered: float, servers: int, theta: int) -> float:
        """Memoized ``P(busy > servers - theta)`` under the truncated
        Poisson (Erlang-loss) stationary law."""
        key = (offered, servers, theta)
        cached = self._tailcache.get(key)
        if cached is None:
            pmf = truncated_poisson_pmf(offered, servers)
            cached = self._tailcache[key] = sum(
                p for k, p in pmf.items() if k > servers - theta
            )
        return cached

    def _offered(self, cell: int, t: float) -> float:
        return self.pattern.rate(cell, t) * self.mean_holding

    def _rng(self, cell: int):
        rng = self._rngs.get(cell)
        if rng is None:
            rng = self._rngs[cell] = self.streams.stream(
                "fastlane", "cell", cell
            )
        return rng

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Settle every still-fluid cell through the horizon.

        Admissions that outlive the horizon are left uncompleted,
        exactly like discrete calls still holding channels at the end
        of a run; nothing is materialized — the simulation is over.
        """
        if self._finalized:
            return
        self._finalized = True
        end = self.duration
        for cell in sorted(self._fluid):
            t0 = self._fluid.pop(cell)
            station = self.stations[cell]
            survivors = self._settle(cell, t0, end)
            self._occ_sample(cell, len(station.use) + len(survivors), end)
            self.fluid_time += end - t0

    def _occ_sample(self, cell: int, occupancy: int, t: float) -> None:
        """One model-vs-sim occupancy divergence sample: the reconciled
        discrete occupancy against the Erlang-loss mean."""
        station = self.stations[cell]
        self._occ_samples += 1
        self._occ_sum += occupancy
        self._occ_model_sum += carried_load(
            self._offered(cell, t), len(station.PR)
        )

    # ------------------------------------------------------------------
    # Divergence summary (rendered into the run report)
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        cells = len(self.stations)
        span = cells * self.duration if cells else 0.0
        measured_block = self.blocked / self.arrivals if self.arrivals else 0.0
        model_block = (
            self._model_block_sum / self.arrivals if self.arrivals else 0.0
        )
        occ_mean = self._occ_sum / self._occ_samples if self._occ_samples else 0.0
        occ_model = (
            self._occ_model_sum / self._occ_samples if self._occ_samples else 0.0
        )
        return {
            "demotions": self.demotions,
            "promotions": dict(self.promotions),
            "fluid_time": self.fluid_time,
            "fluid_fraction": self.fluid_time / span if span else 0.0,
            "arrivals": self.arrivals,
            "blocked": self.blocked,
            "materialized": self.materialized,
            "shed": self.shed,
            "measured_block_rate": measured_block,
            "model_block_rate": model_block,
            "block_rate_abs_err": abs(measured_block - model_block),
            "occupancy_samples": self._occ_samples,
            "occupancy_mean": occ_mean,
            "occupancy_model_mean": occ_model,
            "occupancy_abs_err": abs(occ_mean - occ_model),
        }
