"""The deterministic mean-field fluid swarm engine.

:class:`FluidSwarm` integrates a population/fluid model of a BitTorrent
swarm with a mobile-host fraction (after the hybridised-swarm evaluation
of Violaris & Mavromoustakis, arXiv:1009.1708, and the analytical rate
models of Neely, arXiv:1202.4451): peer classes
(:class:`~repro.scale.model.PeerClass`) carry populations, mean download
progress, and duty-cycle availabilities, coupled through shared upload
capacity and piece availability:

* **supply** — seeds and complete classes upload at capacity; leechers
  contribute once they hold enough pieces to be useful (the
  ``WARM_FRACTION`` ramp is the piece-availability coupling);
* **demand** — online leechers ask for their access capacity; on a
  shared wireless cell uploads steal download airtime (Figure 3(b)),
  which is why wP2P classes throttle uploads LIHD-style
  (``LIHD_LEVEL * upload_rate``) while default mobile clients upload at
  will and pay for it;
* **mobility** — handoff cycles cost downtime plus a per-client recovery
  penalty (task restart for the default client, cheap re-announce for
  wP2P), folded into a per-class availability factor;
* **churn/chaos** — :mod:`repro.scale.chaosmap` windows scale the rates
  and move population between online and offline pools.

Everything is explicit-Euler with a fixed ``dt``, pure float arithmetic
over a handful of classes, so the cost is independent of swarm size —
a million-peer swarm integrates in the same milliseconds as a ten-peer
one — and results are bit-identical wherever they run.

A step does only state-dependent arithmetic.  What the step needs falls
into five lifetimes:

* **run-constant** — ``float(file_size)``, the warm threshold, whether a
  content mode is on, each class's arrival rate and wireless coupling:
  computed once in ``__init__``;
* **epoch-constant** — every pure function of (class, set of active
  :class:`~repro.scale.chaosmap.RateWindow` s): the modifier products,
  the rejoin freeze, effective availability, ``u_cap``, base ``d_cap``,
  efficiency factor, departure and rejoin rates.  They form the
  per-class **rate plan**, rebuilt by :meth:`FluidSwarm._rebuild_plan`
  only when ``t`` crosses the next window ``start``/``end``; a
  chaos-free swarm is the one-epoch case of the same code;
* **per-step** — pools, departures, arrivals, the warm-up ramp, supply,
  demand, utilization, progress;
* **steady-epoch** — a step whose inputs equal the step before's in one
  ``advance()`` call (no pools, arrivals, live departures, plan rebuild
  or content mode; warm ramps saturated or ``t < startup_delay``) adds
  one constant each to ``t``, ``progress``, ``steps`` and the utilization
  sum: :meth:`FluidSwarm._fast_forward` does those exact additions with
  ``itertools.accumulate`` (sums go through
  :func:`repro.summation.left_sum`: builtin ``sum()`` is compensated from 3.12);
* **ramp-epoch** — a step that would be steady but for warm ramps moving
  (``progress`` below the warm threshold after ``startup_delay``) keeps
  ``online * availability`` and every rate of the plan: ``_step``
  returns :data:`_RAMP` and :meth:`FluidSwarm._ramp` takes the following
  such steps in one loop over per-class locals (one or two incomplete
  classes, the shape every scenario builds), recomputing only ramp,
  supply, demand, utilization, ``d_cap`` and progress.

Termination is an O(1) read of a counter of incomplete leecher classes
(a class with no peers and no arrivals is *vacuous* and never counted).
The rule for changing any of this: **float-operation order is the
contract** — the same IEEE operations on the same operands in the same
order — checked by ``scripts/pins.py check fluid`` and by the
lockstep property test against the straight-line stepper kept in
``tests/test_fluid_lockstep.py``.

Observability: the engine owns a :class:`~repro.obs.tracing.TraceBus`
clocked on *model* time (it picks up globally installed sinks exactly
like a packet-level :class:`~repro.sim.kernel.Simulator`) and emits
``scale``-layer trace events.  Its counts are attributes: ``steps``,
with ``steps_fast_forwarded`` and ``steps_ramped`` of them taken by the
two batched paths.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import add
from typing import Dict, List, Optional, Tuple

from ..chaos.schedule import ChaosSchedule
from ..obs import tracing
from ..summation import left_sum
from .chaosmap import CrashImpulse, RateWindow, class_matches, schedule_modifiers
from .model import (
    ClassResult,
    FluidParams,
    FluidResult,
    LIHD_LEVEL,
    WARM_FRACTION,
    PeerClass,
    content_rate_factor,
    playability_surrogate,
)


#: Most steps one fast-forward takes: bounds the sequences it builds.
_CHUNK = 4096

#: What :meth:`FluidSwarm._step` returns for a step of a ramp epoch.
_RAMP: List[Tuple["_ClassState", float]] = []


def _first_sample(ts: List[float], next_sample: float, lo: int, hi: int) -> int:
    """First ``j`` in ``[lo, hi)`` with ``ts[j] + 1e-12 >= next_sample``
    (``advance``'s sample test, monotone in ``j``), else ``hi``."""
    j = bisect_left(ts, next_sample - 1e-12, lo, hi)
    while j > lo and ts[j - 1] + 1e-12 >= next_sample:
        j -= 1
    while j < hi and not ts[j] + 1e-12 >= next_sample:
        j += 1
    return j


class _ClassState:
    """Mutable integration state for one peer class, plus its rate plan.

    The first group of slots is the integration state proper.  The
    second is constant for the run (copied off the frozen
    :class:`PeerClass` so the hot loop pays one attribute load, not
    two).  The third is the class's **rate plan** — every rate that is
    a pure function of the class and the set of active
    :class:`RateWindow` s — rewritten by
    :meth:`FluidSwarm._rebuild_plan` only when that set changes.
    ``d_cap`` is the one per-step scratch value the progress loop reads
    back.
    """

    __slots__ = (
        "cls", "online", "pool_amounts", "pool_rates", "progress",
        "complete", "completion_time", "alive", "peak_online", "samples",
        "arrival_rate", "wireless_shared", "upload_coupling",
        "availability", "u_cap", "d_cap_base", "efficiency_factor",
        "departure_rate", "churn_rejoin_rate",
        "d_cap",
    )

    def __init__(self, cls: PeerClass) -> None:
        self.cls = cls
        self.online = float(cls.count)
        #: churned/crashed population pools, oldest first: the amount
        #: parked in each and the rate it rejoins at (parallel lists).
        self.pool_amounts: List[float] = []
        self.pool_rates: List[float] = []
        self.progress = 1.0 if cls.seed else 0.0
        self.complete = cls.seed
        self.completion_time: Optional[float] = 0.0 if cls.seed else None
        self.alive = float(cls.count)
        self.peak_online = float(cls.count)
        self.samples: List[Tuple[float, float]] = []
        self.arrival_rate = cls.arrival_rate
        self.wireless_shared = cls.wireless_shared
        self.upload_coupling = cls.upload_coupling
        self.d_cap = 0.0

    def rejoin(self, dt: float) -> None:
        """One step of rejoins: each pool hands ``min(1.0, rate * dt)`` of
        its amount back to ``online``, pool by pool in order; pools left
        holding 1e-9 or less are dropped.  Equal rates share one factor."""
        amounts, rates = self.pool_amounts, self.pool_rates
        rate = rates[0]
        if rates.count(rate) == len(rates):
            share = min(1.0, rate * dt)
            drained = [amount * share for amount in amounts]
        else:
            shares = {rate: min(1.0, rate * dt) for rate in set(rates)}
            drained = [
                amount * shares[rate] for amount, rate in zip(amounts, rates)
            ]
        self.online = reduce(add, drained, self.online)
        left = [amount - part for amount, part in zip(amounts, drained)]
        self.pool_amounts = [amount for amount in left if amount > 1e-9]
        if len(self.pool_amounts) < len(left):
            self.pool_rates = [
                rate for amount, rate in zip(left, rates) if amount > 1e-9
            ]

    @property
    def offline(self) -> float:
        if not self.pool_amounts:
            return 0.0
        return left_sum(self.pool_amounts)


@lru_cache(maxsize=128)
def _playability_curve(
    num_pieces: int, selection: str
) -> Tuple[Tuple[float, float], ...]:
    """The 51-point (downloaded %, playable %) curve of a result; a pure
    function of its arguments, so a grid of cells computes it once."""
    return tuple(
        (100.0 * d, 100.0 * playability_surrogate(d, num_pieces, selection))
        for d in (i / 50.0 for i in range(51))  # downloaded fraction 0..1
    )


class FluidSwarm:
    """Mean-field swarm integrator (see module docstring).

    >>> params = FluidParams(file_size=1 << 22, piece_length=1 << 16,
    ...                      classes=(seed_cls, leech_cls))   # doctest: +SKIP
    >>> result = FluidSwarm(params).run()                     # doctest: +SKIP
    >>> result.classes["leech"].completion_time               # doctest: +SKIP
    """

    def __init__(
        self,
        params: FluidParams,
        chaos: Optional[ChaosSchedule] = None,
    ) -> None:
        self.params = params
        self.t = 0.0
        self.steps = 0
        self.steps_fast_forwarded = 0
        self.steps_ramped = 0
        self.trace = tracing.TraceBus(clock=lambda: self.t)
        tracing.apply_defaults(self.trace)
        self.windows: Tuple[RateWindow, ...] = ()
        self.impulses: Tuple[CrashImpulse, ...] = ()
        if chaos is not None and not chaos.empty:
            self.windows, self.impulses = schedule_modifiers(chaos)
        self._states = [_ClassState(c) for c in params.classes]
        # Run constants of the step.
        self._file_size = float(params.file_size)
        self._warm = max(WARM_FRACTION, 1.0 / max(params.num_pieces, 1))
        self._content_on = params.content_mode != ""
        # Termination: leecher classes still downloading, and whether
        # arrivals keep the swarm open forever.  A leecher class with no
        # peers and no arrivals is vacuous — it has nothing to complete,
        # so it is never counted and cannot hold the swarm open.
        self._incomplete = left_sum(
            1 for c in params.classes
            if not c.seed and (c.count > 0 or c.arrival_rate > 0.0)
        )
        self._arrivals_open = any(
            c.arrival_rate != 0.0 for c in params.classes
        )
        # The set of active windows can only change when ``t`` crosses
        # one of these; the rate plan is rebuilt then and only then.
        self._boundaries = sorted(
            {w.start for w in self.windows} | {w.end for w in self.windows}
        )
        self._plan_until = float("-inf")
        self._freeze_rejoin = False
        #: Rate-plan rebuilds so far: 1 + boundaries crossed, never per step.
        self.plan_rebuilds = 0
        self._active_window_count = 0
        self._utilization_sum = 0.0
        self._utilization_steps = 0
        self._next_sample = 0.0
        self._next_impulse = 0
        #: Boundary source terms (B/s) injected by a co-simulation driver
        #: (the hybrid backend): extra upload capacity offered to, and
        #: extra download demand placed on, the background swarm.  Both
        #: default to 0.0, which leaves pure-fluid runs bit-identical.
        self.external_supply = 0.0
        self.external_demand = 0.0
        #: Boundary observables refreshed by every :meth:`_step`.
        self.last_supply = 0.0
        self.last_demand = 0.0
        self.last_utilization = 1.0

    # ------------------------------------------------------------------
    def run(self) -> FluidResult:
        """Integrate until every leecher class completes (or ``max_time``)."""
        params = self.params
        if self.trace.enabled:
            self.trace.event(
                "scale", "engine_start",
                classes=[s.cls.name for s in self._states],
                peers=params.total_peers,
                dt=params.dt,
                chaos_windows=len(self.windows),
            )
        self.advance(params.max_time, stop_when_finished=True)
        return self.finish()

    def advance(self, until: float, *, stop_when_finished: bool = False) -> None:
        """Integrate forward until model time reaches ``until``.

        Incremental driver used both by :meth:`run` and by co-simulation
        (the hybrid backend calls ``advance`` once per coupling interval,
        refreshing :attr:`external_supply`/:attr:`external_demand` between
        calls).  Sampling and crash-impulse cursors live on the instance,
        so successive calls continue exactly where the last one stopped.
        """
        dt = self.params.dt
        sample_interval = self.params.sample_interval
        impulses = self.impulses
        n_impulses = len(impulses)
        states = self._states
        step = self._step
        finished = self._finished
        t = self.t
        increments = None  # of the last step of *this* call, if repeatable
        while t < until:
            if stop_when_finished and finished():
                break
            # Crash impulses scheduled inside this step fire first.
            while (
                self._next_impulse < n_impulses
                and impulses[self._next_impulse].t < t + dt
            ):
                self._fire_impulse(impulses[self._next_impulse])
                self._next_impulse += 1
                increments = None
            if increments is _RAMP:
                increments = None
                if self._ramp(until):
                    t = self.t
                    continue
            elif increments is not None and self._fast_forward(until, increments):
                t = self.t
                continue
            if t + 1e-12 >= self._next_sample:
                for state in states:
                    state.samples.append((t, state.progress))
                self._next_sample += sample_interval
            increments = step(dt)
            self.t = t = t + dt
            self.steps += 1

    def finish(self) -> FluidResult:
        """Record tail samples, trace the finish, and build the result."""
        for state in self._states:
            state.samples.append((self.t, state.progress))
        if self.trace.enabled:
            self.trace.event(
                "scale", "engine_finish",
                steps=self.steps, horizon=self.t,
                completed=[
                    s.cls.name for s in self._states if s.complete
                ],
            )
        return self._result()

    # ------------------------------------------------------------------
    def _finished(self) -> bool:
        return self._incomplete == 0 and not self._arrivals_open

    @property
    def finished(self) -> bool:
        """True once every leecher class has completed (no open arrivals)."""
        return self._finished()

    def availability_proxy(self) -> float:
        """Aggregate piece availability the background presents outward.

        1.0 while any seed/complete class is still alive (every piece is
        somewhere in the swarm); otherwise the best class-mean progress.
        """
        best = 0.0
        for state in self._states:
            if (state.cls.seed or state.complete) and state.alive > 0.0:
                return 1.0
            best = max(best, state.progress)
        return best

    def _fire_impulse(self, impulse: CrashImpulse) -> None:
        for state in self._states:
            if not class_matches(state.cls, impulse.target):
                continue
            # The impulse hits everything it can reach: the online mass
            # plus anything already parked in recovery pools from earlier
            # crashes — otherwise back-to-back impulses strand pool mass
            # (non-permanent) or leave it alive forever (permanent).
            amount = state.online + state.offline
            if amount <= 0.0:
                continue
            rate = (1.0 / impulse.downtime) if impulse.downtime > 0 else 0.0
            if impulse.permanent:
                state.online = 0.0
                state.pool_amounts, state.pool_rates = [], []
                state.alive -= amount
            elif rate > 0.0:
                state.online = 0.0
                state.pool_amounts, state.pool_rates = [amount], [rate]
            else:
                # Zero-downtime transient crash: nothing moves; pools
                # keep recovering at their original rates.
                amount = state.online
                if amount <= 0.0:
                    continue
            if self.trace.enabled:
                self.trace.event(
                    "scale", "crash_impulse",
                    target=state.cls.name, amount=amount,
                    permanent=impulse.permanent,
                )

    # ------------------------------------------------------------------
    def _rebuild_plan(self) -> None:
        """Recompute every class's rate plan for the windows active now.

        Called by :meth:`_step` when ``t`` reaches the next window
        boundary (and once at the start), so a chaos-free swarm builds
        exactly one plan.  The arithmetic is the per-step arithmetic it
        replaces, operand for operand: the windows fold in schedule order.
        """
        params = self.params
        t = self.t
        active = [w for w in self.windows if w.active(t)]
        # Rejoins stall entirely while the tracker is dark.
        self._freeze_rejoin = any(w.freeze_rejoin for w in active)
        active_count = 0
        for state in self._states:
            cls = state.cls
            availability_factor = 1.0
            upload_factor = 1.0
            download_factor = 1.0
            efficiency_factor = 1.0
            departure_rate = params.departure_rate if not cls.seed else 0.0
            extra_handoff_rate = 0.0
            extra_handoff_downtime = 0.0
            churn_rejoin_rate = 0.0
            for w in active:
                if not class_matches(cls, w.target):
                    continue
                active_count += 1
                availability_factor *= w.availability_factor
                upload_factor *= w.upload_factor
                download_factor *= w.download_factor
                efficiency_factor *= w.efficiency_factor
                departure_rate += w.departure_rate
                extra_handoff_rate += w.extra_handoff_rate
                extra_handoff_downtime = max(
                    extra_handoff_downtime, w.extra_handoff_downtime
                )
                churn_rejoin_rate = max(churn_rejoin_rate, w.rejoin_rate)

            # Duty-cycle availability: scheduled handoffs + storm pressure.
            availability = cls.availability()
            if extra_handoff_rate > 0.0:
                penalty = extra_handoff_rate * (
                    extra_handoff_downtime + cls.recovery_cost
                )
                availability *= max(0.0, 1.0 - penalty)
            availability *= availability_factor

            # Effective upload per online peer: wP2P throttles LIHD-style.
            u_cap = cls.upload_rate * upload_factor
            if cls.wp2p and not cls.seed:
                u_cap *= LIHD_LEVEL

            state.availability = availability
            state.u_cap = u_cap
            state.d_cap_base = cls.download_rate * download_factor
            state.efficiency_factor = efficiency_factor
            state.departure_rate = departure_rate
            state.churn_rejoin_rate = churn_rejoin_rate

        if self._active_window_count != active_count and self.trace.enabled:
            self.trace.event(
                "scale", "chaos_windows_active", count=active_count,
            )
        self._active_window_count = active_count
        nxt = bisect_right(self._boundaries, t)
        self._plan_until = (
            self._boundaries[nxt] if nxt < len(self._boundaries)
            else float("inf")
        )
        self.plan_rebuilds += 1

    def _fast_forward(
        self, until: float, increments: List[Tuple[_ClassState, float]]
    ) -> bool:
        """Repeat the steady step just taken (its ``increments``) up to
        :data:`_CHUNK` times: ``accumulate`` chains exactly its additions,
        in order.  Stops before a step that is not steady; False if none."""
        params = self.params
        dt, t = params.dt, self.t
        limit = min(until, self._plan_until)
        inf = float("inf")
        settled = params.startup_delay if t < params.startup_delay else inf
        pending = self.impulses[self._next_impulse:self._next_impulse + 1]
        impulse = pending[0].t if pending else inf
        n = int(min(_CHUNK, (min(limit, settled, impulse) - t) / dt + 2.0,
                    *((1.0 - st.progress) / dp + 2.0 for st, dp in increments)))
        ts = list(accumulate(repeat(dt, n), initial=t))
        # Step j starts at ts[j] < limit and ends at ts[j] + dt == ts[j + 1],
        # before settling ends (the step ending it is _step's) and not past
        # the impulse; n reaches past the nearest stop (+2 for rounding).
        m = min(n, bisect_left(ts, limit), bisect_left(ts, settled) - 1,
                bisect_right(ts, impulse) - 1)
        lanes = {}
        for state, dp in increments:
            lanes[state] = lane = list(accumulate(repeat(dp, m), initial=state.progress))
            m = min(m, bisect_left(lane, 1.0) - 1)  # stop before completing
        if m <= 0:
            return False
        next_sample = self._next_sample
        j = _first_sample(ts, next_sample, 0, m)
        while j < m:
            for state in self._states:
                lane = lanes.get(state)
                state.samples.append((ts[j], lane[j] if lane else state.progress))
            next_sample += params.sample_interval
            j = _first_sample(ts, next_sample, j + 1, m)
        self._next_sample = next_sample
        for state, lane in lanes.items():
            state.progress = lane[m]
        if self.last_demand > 0.0:
            self._utilization_sum = reduce(
                add, repeat(self.last_utilization, m), self._utilization_sum
            )
            self._utilization_steps += m
        self.t = ts[m]
        self.steps += m
        self.steps_fast_forwarded += m
        return True

    def _ramp(self, until: float) -> bool:
        """Take the steps of a ramp epoch in one loop over per-class locals.

        Each step is :meth:`_step`'s arithmetic for a step with no pools,
        arrivals, live departures, content mode or plan rebuild: the same
        operations on the same operands in the same order, with the
        epoch constants ``online * availability`` and ``online / online``
        computed once.  The loop holds one or two incomplete classes
        (``a``, ``b``) in locals, written out: an inner loop over classes
        would cost more than the arithmetic.  With three or more it takes
        no step and ``_step`` takes the ramp.  Stops before ``until``, the
        plan boundary, the next impulse, a step that would complete a
        class and a step in which no warm ramp moves (the steady path
        takes it); False if it took no step."""
        # Supply adds every class in order: complete classes before the
        # first incomplete one start the chain, each later one follows
        # the incomplete class before it (``after_a`` / ``after_b``).
        supply_base = 0.0
        lanes: List[_ClassState] = []
        after: Tuple[List[float], List[float]] = ([], [])
        for state in self._states:
            if not state.complete:
                if len(lanes) == 2:
                    return False
                lanes.append(state)
            elif lanes:
                after[len(lanes) - 1].append(
                    state.online * state.availability * state.u_cap
                )
            else:
                supply_base += state.online * state.availability * state.u_cap
        a = lanes[0]
        b = lanes[1] if len(lanes) == 2 else None
        after_a, after_b = after
        params = self.params
        dt, warm, file_size = params.dt, self._warm, self._file_size
        efficiency = params.efficiency
        external_supply = self.external_supply
        external_demand = self.external_demand
        t = self.t
        stop = min(until, self._plan_until)
        pending = self.impulses[self._next_impulse:self._next_impulse + 1]
        impulse = pending[0].t if pending else float("inf")
        p_a, u_cap_a, d_cap_base_a = a.progress, a.u_cap, a.d_cap_base
        online_a, availability_a = a.online, a.availability
        online_avail_a = online_a * availability_a
        coupling_a = a.upload_coupling if a.wireless_shared else None
        efficiency_a = a.efficiency_factor
        online_frac_a = None if online_a <= 0.0 else online_a / online_a
        p_b = d_cap_b = 0.0
        online_frac_b = None  # no b: it moves no progress
        if b is not None:
            p_b, u_cap_b, d_cap_base_b = b.progress, b.u_cap, b.d_cap_base
            online_b, availability_b = b.online, b.availability
            online_avail_b = online_b * availability_b
            coupling_b = b.upload_coupling if b.wireless_shared else None
            efficiency_b = b.efficiency_factor
            online_frac_b = None if online_b <= 0.0 else online_b / online_b
        next_sample = self._next_sample
        utilization_sum = self._utilization_sum
        utilization_steps = self._utilization_steps
        steps = 0
        taken = None
        while t < stop and not impulse < t + dt:
            # _step's first loop: ramp, supply, demand, d_cap.
            ramp = p_a / warm
            ramping = ramp < 1.0
            if not ramping:
                ramp = 1.0
            u_used = u_cap_a * ramp
            supply = supply_base + online_avail_a * u_used
            if after_a:
                for term in after_a:
                    supply += term
            d_cap_a = d_cap_base_a
            if coupling_a is not None:
                d_cap_a -= coupling_a * u_used
                if not d_cap_a > 0.0:
                    d_cap_a = 0.0
            demand = 0.0 + online_avail_a * d_cap_a
            if b is not None:
                ramp = p_b / warm
                if ramp < 1.0:
                    ramping = True
                else:
                    ramp = 1.0
                u_used = u_cap_b * ramp
                supply += online_avail_b * u_used
                if after_b:
                    for term in after_b:
                        supply += term
                d_cap_b = d_cap_base_b
                if coupling_b is not None:
                    d_cap_b -= coupling_b * u_used
                    if not d_cap_b > 0.0:
                        d_cap_b = 0.0
                demand += online_avail_b * d_cap_b
            if not ramping:
                break
            supply += external_supply
            demand += external_demand
            utilization = 0.0
            if demand > 0.0:
                utilization = supply / demand
                if not utilization < 1.0:
                    utilization = 1.0
            # Its second loop: progress, stopping before a completion.
            next_a = p_a
            if online_frac_a is not None and not d_cap_a <= 0.0:
                dp = (
                    d_cap_a * availability_a * utilization
                    * efficiency * efficiency_a
                ) * online_frac_a * dt / file_size
                if not dp <= 0.0:
                    next_a += dp
                    if next_a >= 1.0:
                        break
            next_b = p_b
            if online_frac_b is not None and not d_cap_b <= 0.0:
                dp = (
                    d_cap_b * availability_b * utilization
                    * efficiency * efficiency_b
                ) * online_frac_b * dt / file_size
                if not dp <= 0.0:
                    next_b += dp
                    if next_b >= 1.0:
                        break
            if t + 1e-12 >= next_sample:
                a.progress = p_a
                if b is not None:
                    b.progress = p_b
                for state in self._states:
                    state.samples.append((t, state.progress))
                next_sample += params.sample_interval
            p_a, p_b = next_a, next_b
            if demand > 0.0:
                utilization_sum += utilization
                utilization_steps += 1
            taken = supply, demand, utilization, d_cap_a, d_cap_b
            t += dt
            steps += 1
        if taken is None:
            return False
        supply, demand, utilization, d_cap_a, d_cap_b = taken
        a.progress, a.d_cap = p_a, d_cap_a
        if b is not None:
            b.progress, b.d_cap = p_b, d_cap_b
        self.last_supply = supply
        self.last_demand = demand
        self.last_utilization = utilization if demand > 0.0 else 1.0
        self._next_sample = next_sample
        self._utilization_sum = utilization_sum
        self._utilization_steps = utilization_steps
        self.t = t
        self.steps += steps
        self.steps_ramped += steps
        return True

    def _step(self, dt: float) -> Optional[List[Tuple[_ClassState, float]]]:
        """One explicit-Euler step.  Returns its ``(state, dp)`` increments
        if the next step repeats it exactly (steady, completing nothing,
        not ending settling), :data:`_RAMP` if it was steady but for warm
        ramps moving, else None."""
        t = self.t
        params = self.params
        if t >= self._plan_until:
            self._rebuild_plan()
        freeze_rejoin = self._freeze_rejoin
        warm = self._warm
        # Piece-holder mass for the coded-availability surrogate; only
        # tracked when a content mode is set (the default "" skips every
        # branch below, leaving pure-fluid runs bit-identical).
        content_on = self._content_on
        states = self._states

        supply_total = 0.0
        demand_total = 0.0
        holder_online = 0.0
        holder_total = 0.0
        steady = not content_on
        ramping = False

        for state in states:
            if state.pool_amounts:
                steady = False
                # Rejoins (stalled entirely while the tracker is dark).
                if not freeze_rejoin:
                    state.rejoin(dt)

            # Churn departures into a pool that rejoins at the window's rate.
            departure_rate = state.departure_rate
            if departure_rate > 0.0 and state.online > 0.0:
                steady = False
                departed = state.online * min(1.0, departure_rate * dt)
                state.online -= departed
                if state.churn_rejoin_rate > 0.0:
                    state.pool_amounts.append(departed)
                    state.pool_rates.append(state.churn_rejoin_rate)
                else:
                    state.alive -= departed  # aborted for good

            # Arrivals enter at zero progress, diluting the class mean.
            arrival_rate = state.arrival_rate
            if arrival_rate > 0.0:
                steady = False
                joined = arrival_rate * dt
                old_alive = state.alive
                state.online += joined
                state.alive += joined
                if state.alive > 0.0 and not state.complete:
                    state.progress *= old_alive / state.alive

            online = state.online
            if online > state.peak_online:
                state.peak_online = online

            availability = state.availability
            complete = state.complete
            if complete:
                ramp = 1.0
            else:
                # Useful as an uploader once warm (piece-availability ramp).
                ramp = state.progress / warm
                if not ramp < 1.0:
                    ramp = 1.0
                elif t >= params.startup_delay:
                    ramping = True  # progress moves the ramp
            u_used = state.u_cap * ramp
            supply_total += online * availability * u_used
            if complete:
                if content_on:
                    # Custody holders: the online, duty-cycled fraction
                    # of the piece-holding population is what keeps
                    # individual coded indices reachable.
                    holder_online += online * availability
                    holder_total += online + state.offline
                continue

            # Download demand: shared wireless airtime charges for uploads.
            d_cap = state.d_cap_base
            if state.wireless_shared:
                d_cap -= state.upload_coupling * u_used
                if not d_cap > 0.0:
                    d_cap = 0.0
            demand_total += online * availability * d_cap
            state.d_cap = d_cap

        # Boundary flows from a co-simulation driver (zero for pure-fluid
        # runs, so adding them keeps results bit-identical).
        supply_total += self.external_supply
        demand_total += self.external_demand

        utilization = 0.0
        if demand_total > 0.0:
            utilization = min(1.0, supply_total / demand_total)
            self._utilization_sum += utilization
            self._utilization_steps += 1
        self.last_supply = supply_total
        self.last_demand = demand_total
        self.last_utilization = utilization if demand_total > 0.0 else 1.0

        content_factor = 1.0
        if content_on:
            # No dedicated holder mass (all seeds gone): fall back to the
            # outward availability proxy so the swarm degrades, not NaNs.
            piece_availability = (
                holder_online / holder_total
                if holder_total > 0.0
                else self.availability_proxy()
            )
            content_factor = content_rate_factor(
                params.content_mode, piece_availability,
                params.code_k, params.code_n,
            )

        if t < params.startup_delay:
            # Nothing downloads; the step after the last settling one does.
            return [] if steady and t + dt < params.startup_delay else None

        efficiency = params.efficiency
        file_size = self._file_size
        applied = []
        for state in states:
            if state.complete:
                continue
            d_cap = state.d_cap
            if d_cap <= 0.0:
                continue
            online = state.online
            total_pop = online + state.offline if state.pool_amounts else online
            if total_pop <= 0.0:
                continue
            rate = (
                d_cap * state.availability * utilization
                * efficiency * state.efficiency_factor * content_factor
            )
            # Class-mean progress: only the online fraction downloads.
            dp = rate * (online / total_pop) * dt / file_size
            if dp <= 0.0:
                continue
            new_progress = state.progress + dp
            if new_progress >= 1.0:
                steady = False
                overshoot = (1.0 - state.progress) / dp
                state.completion_time = t + overshoot * dt
                state.progress = 1.0
                state.complete = True
                self._incomplete -= 1
                if self.trace.enabled:
                    self.trace.event(
                        "scale", "class_complete",
                        peer_class=state.cls.name,
                        completed_at=state.completion_time,
                        peers=state.alive,
                    )
            else:
                state.progress = new_progress
                applied.append((state, dp))
        if not steady:
            return None
        return _RAMP if ramping else applied

    # ------------------------------------------------------------------
    def _result(self) -> FluidResult:
        params = self.params
        classes: Dict[str, ClassResult] = {}
        for state in self._states:
            cls = state.cls
            completion = state.completion_time
            goodput = 0.0
            if not cls.seed and completion:
                goodput = params.file_size / completion
            classes[cls.name] = ClassResult(
                name=cls.name,
                completion_time=completion,
                mean_goodput=goodput,
                seed=cls.seed,
                progress=list(state.samples),
                playability=list(
                    _playability_curve(params.num_pieces, cls.selection)
                ),
                final_progress=state.progress,
                peak_online=state.peak_online,
            )
        utilization_mean = (
            self._utilization_sum / self._utilization_steps
            if self._utilization_steps else 0.0
        )
        return FluidResult(
            classes=classes,
            steps=self.steps,
            horizon=self.t,
            peak_population=left_sum(s.alive for s in self._states),
            utilization_mean=utilization_mean,
        )
