"""Lockstep property test: :class:`FluidSwarm` against a reference stepper.

The engine's contract is *the same IEEE operations on the same operands
in the same order* as the straight-line integrator it replaced
(docs/PERFORMANCE.md § Fluid integrator).  :class:`_ReferenceSwarm` below
carries that integrator — ``advance``, ``_step`` and ``_finished``
exactly as they were before the per-epoch rate plan, recomputing every
modifier on every step — and Hypothesis drives it beside the engine over
random classes, ``dt`` and schedules: windows whose edges land exactly
on ``k*dt``, zero-length and nested/overlapping windows, back-to-back
impulses, and ``advance()`` in uneven slices with the boundary source
terms changed in between.  State must be bit-equal after every slice and
``to_jsonable()`` bit-equal at the end.

The reference has no steady-epoch fast-forward and no ramp loop, so it
also pins both paths: a quiet-scenario family (no arrivals or
departures, at most two windows, ``dt`` down to 0.003) makes sure the
engine actually fast-forwards, and a ramp family (leechers warming up
beside seeds in any class order, windows and impulses inside the ramp)
that it takes warm-up steps in ``FluidSwarm._ramp``.  The reference
keeps rejoin pools as ``(amount, rate)`` pairs drained one at a time.

Generated classes all have ``count > 0``: an empty leecher class is the
one place the engine differs from this model by design (it no longer
holds the swarm open), and ``tests/test_scale.py`` covers it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Tuple
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.schedule import ChaosSchedule, PeerCrash
from repro.obs.tracing import RingBufferSink
from repro.scale import CrashImpulse, FluidParams, FluidSwarm, PeerClass, RateWindow
from repro.scale import fluid as fluid_module
from repro.scale.chaosmap import class_matches
from repro.scale.model import LIHD_LEVEL, WARM_FRACTION, content_rate_factor

KIB = 1024


class _ReferenceSwarm(FluidSwarm):
    """The integrator before the rate plan: everything recomputed per step."""

    def advance(self, until: float, *, stop_when_finished: bool = False) -> None:
        params = self.params
        while self.t < until:
            if stop_when_finished and self._finished():
                break
            while (
                self._next_impulse < len(self.impulses)
                and self.impulses[self._next_impulse].t < self.t + params.dt
            ):
                self._fire_impulse(self.impulses[self._next_impulse])
                self._next_impulse += 1
            if self.t + 1e-12 >= self._next_sample:
                for state in self._states:
                    state.samples.append((self.t, state.progress))
                self._next_sample += params.sample_interval
            self._step(params.dt)
            self.t += params.dt
            self.steps += 1

    def _finished(self) -> bool:
        return all(
            s.complete for s in self._states if not s.cls.seed
        ) and all(s.cls.arrival_rate == 0.0 for s in self._states)

    def _active_windows(self, cls: PeerClass) -> List[RateWindow]:
        t = self.t
        return [
            w for w in self.windows if w.active(t) and class_matches(cls, w.target)
        ]

    def _step(self, dt: float) -> None:
        params = self.params
        file_size = float(params.file_size)
        warm = max(WARM_FRACTION, 1.0 / max(params.num_pieces, 1))

        supply_total = 0.0
        demand_total = 0.0
        content_on = params.content_mode != ""
        holder_online = 0.0
        holder_total = 0.0
        per_class: List[Tuple[object, float, float, float]] = []
        freeze_rejoin = any(
            w.freeze_rejoin for w in self.windows if w.active(self.t)
        )
        active_count = 0

        for state in self._states:
            cls = state.cls
            windows = self._active_windows(cls)
            active_count += len(windows)

            availability_factor = 1.0
            upload_factor = 1.0
            download_factor = 1.0
            efficiency_factor = 1.0
            departure_rate = params.departure_rate if not cls.seed else 0.0
            extra_handoff_rate = 0.0
            extra_handoff_downtime = 0.0
            churn_rejoin_rate = 0.0
            for w in windows:
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

            if not freeze_rejoin and state.pool_amounts:
                remaining: List[Tuple[float, float]] = []
                for pool in zip(state.pool_amounts, state.pool_rates):
                    amount, rate = pool
                    drained = amount * min(1.0, rate * dt)
                    state.online += drained
                    amount -= drained
                    if amount > 1e-9:
                        remaining.append((amount, rate))
                state.pool_amounts = [amount for amount, _ in remaining]
                state.pool_rates = [rate for _, rate in remaining]

            if departure_rate > 0.0 and state.online > 0.0:
                departed = state.online * min(1.0, departure_rate * dt)
                state.online -= departed
                if churn_rejoin_rate > 0.0:
                    state.pool_amounts.append(departed)
                    state.pool_rates.append(churn_rejoin_rate)
                else:
                    state.alive -= departed

            if cls.arrival_rate > 0.0:
                joined = cls.arrival_rate * dt
                old_alive = state.alive
                state.online += joined
                state.alive += joined
                if state.alive > 0.0 and not state.complete:
                    state.progress *= old_alive / state.alive

            state.peak_online = max(state.peak_online, state.online)

            availability = cls.availability()
            if extra_handoff_rate > 0.0:
                penalty = extra_handoff_rate * (
                    extra_handoff_downtime + cls.recovery_cost
                )
                availability *= max(0.0, 1.0 - penalty)
            availability *= availability_factor

            u_cap = cls.upload_rate * upload_factor
            if cls.wp2p and not cls.seed:
                u_cap *= LIHD_LEVEL
            ramp = 1.0 if state.complete else min(1.0, state.progress / warm)
            u_used = u_cap * ramp
            supply_total += state.online * availability * u_used
            if content_on and (cls.seed or state.complete):
                holder_online += state.online * availability
                holder_total += state.online + state.offline

            if state.complete:
                per_class.append((state, 0.0, availability, efficiency_factor))
                continue
            d_cap = cls.download_rate * download_factor
            if cls.wireless_shared:
                d_cap = max(0.0, d_cap - cls.upload_coupling * u_used)
            demand_total += state.online * availability * d_cap
            per_class.append((state, d_cap, availability, efficiency_factor))

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

        if self._active_window_count != active_count and self.trace.enabled:
            self.trace.event(
                "scale", "chaos_windows_active", count=active_count,
            )
        self._active_window_count = active_count

        content_factor = 1.0
        if content_on:
            piece_availability = (
                holder_online / holder_total
                if holder_total > 0.0
                else self.availability_proxy()
            )
            content_factor = content_rate_factor(
                params.content_mode, piece_availability,
                params.code_k, params.code_n,
            )

        if self.t < params.startup_delay:
            return

        for state, d_cap, availability, efficiency_factor in per_class:
            if state.complete or d_cap <= 0.0:
                continue
            total_pop = state.online + state.offline
            if total_pop <= 0.0:
                continue
            rate = (
                d_cap * availability * utilization
                * params.efficiency * efficiency_factor * content_factor
            )
            dp = rate * (state.online / total_pop) * dt / file_size
            if dp <= 0.0:
                continue
            new_progress = state.progress + dp
            if new_progress >= 1.0:
                overshoot = (1.0 - state.progress) / dp
                state.completion_time = self.t + overshoot * dt
                state.progress = 1.0
                state.complete = True
                if self.trace.enabled:
                    self.trace.event(
                        "scale", "class_complete",
                        peer_class=state.cls.name,
                        completed_at=state.completion_time,
                        peers=state.alive,
                    )
            else:
                state.progress = new_progress


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
DTS = (0.5, 0.25, 0.1, 0.3)
QUIET_DTS = (0.003, 0.01, 0.25)
TARGETS = ("*", "wired", "mobile", "wireless", "seeds")


@st.composite
def moments(draw, dt: float, horizon: float) -> float:
    """A time in ``[0, horizon]``: exactly ``k*dt`` half of the time."""
    if draw(st.booleans()):
        return draw(st.integers(0, int(horizon / dt))) * dt
    return draw(st.floats(0.0, horizon, allow_nan=False))


@st.composite
def rate_windows(draw, dt: float, horizon: float) -> RateWindow:
    start = draw(moments(dt, horizon))
    length = draw(st.one_of(
        st.just(0.0),
        st.integers(1, 40).map(lambda k: k * dt),
        st.floats(0.0, horizon / 2, allow_nan=False),
    ))
    factor = st.sampled_from([1.0, 0.0, 0.5, 0.3, 1.7])
    return RateWindow(
        start=start, end=start + length, target=draw(st.sampled_from(TARGETS)),
        availability_factor=draw(factor), upload_factor=draw(factor),
        download_factor=draw(factor), efficiency_factor=draw(factor),
        departure_rate=draw(st.sampled_from([0.0, 0.0, 0.02, 0.3, 5.0])),
        rejoin_rate=draw(st.sampled_from([0.0, 0.05, 0.125, 3.0])),
        freeze_rejoin=draw(st.booleans()),
        extra_handoff_rate=draw(st.sampled_from([0.0, 0.0, 0.01, 0.2])),
        extra_handoff_downtime=draw(st.sampled_from([0.0, 1.0, 4.0])),
    )


@st.composite
def crash_impulses(draw, dt: float, horizon: float) -> List[CrashImpulse]:
    """Impulses, some repeated at the same instant (back to back)."""
    out = []
    for _ in range(draw(st.integers(0, 3))):
        t = draw(moments(dt, horizon))
        for _ in range(draw(st.integers(1, 2))):
            permanent = draw(st.integers(0, 5)) == 0
            out.append(CrashImpulse(
                t=t, target=draw(st.sampled_from(TARGETS)),
                downtime=0.0 if permanent else draw(
                    st.sampled_from([0.0, 2.0, 15.0, 200.0])),
                permanent=permanent,
            ))
    return out


@st.composite
def fluid_params(draw, dt: float) -> FluidParams:
    count = st.floats(1.0, 500.0, allow_nan=False)
    wp2p = draw(st.booleans())
    classes = (
        PeerClass("seeds", draw(count), 96_000.0, 1_000_000.0, seed=True),
        PeerClass("wired", draw(count), 48_000.0, 500_000.0,
                  arrival_rate=draw(st.sampled_from([0.0, 0.0, 0.5]))),
        PeerClass("mobile", draw(count), 24_000.0, 100_000.0, mobile=True,
                  wp2p=wp2p, wireless_shared=True,
                  upload_coupling=draw(st.sampled_from([1.0, 0.5, 6.0])),
                  handoff_interval=draw(st.sampled_from([None, 20.0, 90.0])),
                  selection="inorder" if wp2p else "rarest"),
    )
    content_mode = draw(st.sampled_from(["", "", "replication", "group"]))
    return FluidParams(
        file_size=draw(st.sampled_from([256, 1024, 4096])) * KIB,
        piece_length=65_536, classes=classes, dt=dt, max_time=120.0,
        departure_rate=draw(st.sampled_from([0.0, 0.0, 0.004])),
        startup_delay=draw(st.sampled_from([3.0, 0.0])),
        sample_interval=draw(st.sampled_from([5.0, 0.7])),
        content_mode=content_mode,
        code_k=4 if content_mode == "group" else 1,
        code_n=6 if content_mode == "group" else 1,
    )


@st.composite
def scenarios(draw):
    dt = draw(st.sampled_from(DTS))
    horizon = 60.0
    return (
        draw(fluid_params(dt)),
        draw(st.lists(rate_windows(dt, horizon), max_size=6)),
        draw(crash_impulses(dt, horizon)),
    )


def _pair(params, windows, impulses):
    """The engine and the reference on the same windows and impulses.

    ``schedule_modifiers`` is bypassed so the schedule can hold what no
    :class:`ChaosSchedule` produces (zero-length windows, every modifier
    on one window); the ordering it guarantees is kept.
    """
    windows = tuple(sorted(windows, key=lambda w: (w.start, w.end, w.target)))
    impulses = tuple(sorted(impulses, key=lambda i: (i.t, i.target)))
    placeholder = ChaosSchedule((PeerCrash(start=0.0),))
    swarms = []
    with mock.patch.object(
        fluid_module, "schedule_modifiers", return_value=(windows, impulses)
    ):
        for factory in (FluidSwarm, _ReferenceSwarm):
            swarm = factory(params, chaos=placeholder)
            swarm.trace.attach(RingBufferSink())
            swarms.append(swarm)
    return swarms


def _snapshot(swarm: FluidSwarm) -> str:
    """Everything observable about the integration, as text (``repr``
    tells ``-0.0`` from ``0.0`` and equates NaN with itself)."""
    return repr((
        swarm.t, swarm.steps, swarm.finished,
        swarm.last_supply, swarm.last_demand, swarm.last_utilization,
        swarm._utilization_sum, swarm._utilization_steps,
        swarm.availability_proxy(),
        [
            (s.online, s.offline + 0.0,
             list(zip(s.pool_amounts, s.pool_rates)), s.progress, s.complete,
             s.completion_time, s.alive, s.peak_online, s.samples)
            for s in swarm._states
        ],
        swarm.trace.sinks[0].records,
    ))


@st.composite
def quiet_scenarios(draw):
    """Long steady epochs: no arrivals, departures or content mode, at
    most two windows (none with churn), cut by impulses and samples."""
    dt = draw(st.sampled_from(QUIET_DTS))
    params = draw(fluid_params(dt))
    params = dataclasses.replace(
        params, departure_rate=0.0, content_mode="", max_time=40.0,
        classes=tuple(
            dataclasses.replace(c, arrival_rate=0.0) for c in params.classes
        ),
    )
    windows = draw(st.lists(
        rate_windows(dt, 60.0).map(
            lambda w: dataclasses.replace(w, departure_rate=0.0)
        ),
        max_size=2,
    ))
    return params, windows, draw(crash_impulses(dt, 60.0))


@st.composite
def ramp_scenarios(draw):
    """Long warm-up ramps: leechers start at zero progress beside seeds
    (in any class order, so a complete class can follow an incomplete
    one, and sometimes a third leecher class, which the ramp loop leaves
    to ``_step``), quiet as above, with windows and impulses inside the
    ramp."""
    dt = draw(st.sampled_from(QUIET_DTS))
    params = draw(fluid_params(dt))
    classes = list(params.classes)
    if draw(st.booleans()):
        classes.append(PeerClass("wired2", 40.0, 16_000.0, 250_000.0))
    classes = draw(st.permutations(classes))
    params = dataclasses.replace(
        params, departure_rate=0.0, content_mode="", max_time=20.0,
        file_size=draw(st.sampled_from([4096, 16_384])) * KIB,
        classes=tuple(
            dataclasses.replace(c, arrival_rate=0.0) for c in classes
        ),
    )
    horizon = params.startup_delay + 6.0
    windows = draw(st.lists(
        rate_windows(dt, horizon).map(
            lambda w: dataclasses.replace(w, departure_rate=0.0)
        ),
        max_size=2,
    ))
    return params, windows, draw(crash_impulses(dt, horizon))


def _boundaries_up_to(windows, t: float) -> int:
    return len({b for w in windows for b in (w.start, w.end) if b <= t})


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(
    scenarios(),
    st.lists(
        st.tuples(
            st.floats(0.0, 20.0, allow_nan=False),
            st.sampled_from([0.0, 40_000.0, 2.5e6]),
            st.sampled_from([0.0, 80_000.0, 9.0e6]),
        ),
        min_size=1, max_size=8,
    ),
)
@settings(max_examples=150, deadline=None)
def test_advance_in_uneven_slices_is_bit_equal(scenario, slices):
    params, windows, impulses = scenario
    engine, reference = _pair(params, windows, impulses)
    until = 0.0
    for delta, supply, demand in slices:
        until += delta
        for swarm in (engine, reference):
            swarm.external_supply = supply
            swarm.external_demand = demand
            swarm.advance(until)
        assert _snapshot(engine) == _snapshot(reference)
    assert engine.finish().to_jsonable() == reference.finish().to_jsonable()
    assert engine.plan_rebuilds <= 1 + _boundaries_up_to(windows, engine.t)


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_run_to_completion_is_bit_equal(scenario):
    params, windows, impulses = scenario
    engine, reference = _pair(params, windows, impulses)
    got, want = engine.run(), reference.run()
    assert _snapshot(engine) == _snapshot(reference)
    assert repr(got.to_jsonable()) == repr(want.to_jsonable())
    assert got.leecher_completion_time() == want.leecher_completion_time()
    assert engine.plan_rebuilds <= 1 + _boundaries_up_to(windows, engine.t)


def test_quiet_scenarios_are_bit_equal_and_fast_forwarded():
    forwarded = []

    @given(
        quiet_scenarios(),
        st.lists(
            st.tuples(
                st.floats(0.0, 20.0, allow_nan=False),
                st.sampled_from([0.0, 40_000.0]),
                st.sampled_from([0.0, 80_000.0]),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def lockstep(scenario, slices):
        params, windows, impulses = scenario
        engine, reference = _pair(params, windows, impulses)
        until = 0.0
        for delta, supply, demand in slices:
            until += delta
            for swarm in (engine, reference):
                swarm.external_supply = supply
                swarm.external_demand = demand
                swarm.advance(until)
            assert _snapshot(engine) == _snapshot(reference)
        for swarm in (engine, reference):
            swarm.advance(params.max_time, stop_when_finished=True)
        assert _snapshot(engine) == _snapshot(reference)
        assert repr(engine.finish().to_jsonable()) == repr(
            reference.finish().to_jsonable()
        )
        forwarded.append(engine.steps_fast_forwarded)

    lockstep()
    assert sum(forwarded) > 0


#: Seeds after both leecher classes: their supply term must be added
#: after the ramping classes' terms, not before (the sums round apart).
SEEDS_LAST = FluidParams(
    file_size=16_384 * KIB, piece_length=65_536, dt=0.01, max_time=20.0,
    classes=(
        PeerClass("wired", 123.4, 48_000.0, 500_000.0),
        PeerClass("mobile", 77.7, 24_000.0, 100_000.0, mobile=True,
                  wireless_shared=True, upload_coupling=0.5),
        PeerClass("seeds", 3.7, 96_000.0, 1_000_000.0, seed=True),
    ),
)


#: The second leecher class completes while the first is still ramping.
SLOW_FIRST = FluidParams(
    file_size=512 * KIB, piece_length=65_536, dt=0.01, max_time=20.0,
    classes=(
        PeerClass("seeds", 20.0, 96_000.0, 1_000_000.0, seed=True),
        PeerClass("slow", 10.0, 1_000.0, 2_000.0),
        PeerClass("wired", 50.0, 48_000.0, 500_000.0),
    ),
)


def test_ramp_scenarios_are_bit_equal_and_ramped():
    ramped = []

    @example((SEEDS_LAST, [], []), [(20.0, 0.0, 0.0)])
    @example((SLOW_FIRST, [], []), [(20.0, 0.0, 0.0)])
    @given(
        ramp_scenarios(),
        st.lists(
            st.tuples(
                st.floats(0.0, 3.0, allow_nan=False),
                st.sampled_from([0.0, 40_000.0, 2.5e6]),
                st.sampled_from([0.0, 80_000.0, 9.0e6]),
            ),
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def lockstep(scenario, slices):
        params, windows, impulses = scenario
        engine, reference = _pair(params, windows, impulses)
        until = 0.0
        for delta, supply, demand in slices:
            until += delta
            for swarm in (engine, reference):
                swarm.external_supply = supply
                swarm.external_demand = demand
                swarm.advance(until)
            assert _snapshot(engine) == _snapshot(reference)
        for swarm in (engine, reference):
            swarm.advance(params.max_time, stop_when_finished=True)
        assert _snapshot(engine) == _snapshot(reference)
        assert repr(engine.finish().to_jsonable()) == repr(
            reference.finish().to_jsonable()
        )
        ramped.append(engine.steps_ramped)

    lockstep()
    assert sum(ramped) > 0


def test_fast_forward_sample_search_is_advances_test():
    # The fast path finds sample points by bisect + nudge (bisect's key=
    # needs Python 3.10).  ``ts >= s - 1e-12`` and ``ts + 1e-12 >= s``
    # round apart where ts crosses a power of two, so look there.
    for power in (32.0, 256.0, 4096.0):
        ts = [power]
        for _ in range(200):
            ts.insert(0, math.nextafter(ts[0], 0.0))
            ts.append(math.nextafter(ts[-1], math.inf))
        target = ts[0] - 1e-12
        while target < ts[-1] + 2e-12:
            want = next(
                (j for j, t in enumerate(ts) if t + 1e-12 >= target), len(ts)
            )
            for lo in (0, max(0, want - 1)):
                assert fluid_module._first_sample(ts, target, lo, len(ts)) == want
            target = math.nextafter(target, math.inf)


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 12),
                  st.sampled_from(TARGETS)),
        max_size=8,
    ),
    st.sampled_from([0.5, 0.25]),
)
@settings(max_examples=60, deadline=None)
def test_plan_rebuilds_count_boundaries_not_steps(spans, dt):
    # Whole-second edges and binary dt: every edge is hit exactly, so
    # the count is known in closed form and halving dt cannot change it.
    windows = [
        RateWindow(start=float(a), end=float(a + n), target=target,
                   download_factor=0.5, departure_rate=0.01, rejoin_rate=0.1)
        for a, n, target in spans
    ]
    horizon = 40.0
    expected = 1 + len({
        b for w in windows for b in (w.start, w.end) if 0.0 < b < horizon
    })
    for step in (dt, dt / 2):
        params = FluidParams(
            file_size=64 * 1024 * KIB, piece_length=65_536, dt=step,
            classes=(
                PeerClass("seeds", 5.0, 96_000.0, 1_000_000.0, seed=True),
                PeerClass("wired", 75.0, 48_000.0, 500_000.0),
                PeerClass("mobile", 20.0, 24_000.0, 100_000.0, mobile=True,
                          wireless_shared=True, handoff_interval=90.0),
            ),
        )
        engine, _ = _pair(params, windows, [])
        engine.advance(horizon)
        assert engine.steps == int(horizon / step)
        assert engine.plan_rebuilds == expected
