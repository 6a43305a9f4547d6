"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.sim import (
    EventQueue,
    PeriodicTask,
    RngRegistry,
    SimulationError,
    Simulator,
    Timer,
    derive_seed,
)


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.push(2.0, fired.append, (2,))
        q.push(1.0, fired.append, (1,))
        q.push(3.0, fired.append, (3,))
        while q:
            e = q.pop()
            e.callback(*e.args)
        assert fired == [1, 2, 3]

    def test_same_time_fires_in_scheduling_order(self):
        q = EventQueue()
        order = []
        q.push(1.0, order.append, ("first",))
        q.push(1.0, order.append, ("second",))
        e = q.pop()
        e.callback(*e.args)
        e = q.pop()
        e.callback(*e.args)
        assert order == ["first", "second"]

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(e1)
        assert len(q) == 1
        popped = q.pop()
        assert popped.time == 2.0

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        q.cancel(e1)
        assert q.peek_time() == 5.0


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_run_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_does_not_fire_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        sim.run(until=4.0)
        assert fired == []
        sim.run(until=6.0)
        assert fired == [True]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: fired.append(True))
        sim.run()
        assert fired == []
        assert sim.now == 1.0

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def first():
            sim.schedule(1.0, lambda: fired.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["nested"]
        assert sim.now == 2.0

    def test_cancel_none_is_noop(self):
        sim = Simulator()
        sim.cancel(None)

    def test_cancel_has_one_path_and_its_accounting_holds(self):
        """The handle used to offer ``event.cancel()``, which marked the
        event dead without telling the queue: ``pending_events`` stayed
        at 2 here, read 1 after the drain, and the dead count went to
        -1.  Cancelling goes through the simulator (or the queue) only."""
        sim = Simulator()
        fired = []
        doomed = sim.schedule(1.0, fired.append, "doomed")
        sim.schedule(2.0, fired.append, "kept")
        assert not hasattr(doomed, "cancel")
        sim.cancel(doomed)
        sim.cancel(doomed)  # idempotent
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["kept"]
        assert sim.pending_events == 0
        assert not sim._queue and sim._queue._dead == 0

    def test_cancel_spent_event_is_noop(self):
        """Cancelling an event that already fired must not touch the
        queue's live count (it used to drop it by one, hiding a queued
        event from ``pending_events``)."""
        sim = Simulator()
        fired = []
        spent = sim.schedule(1.0, fired.append, "first")
        sim.schedule(5.0, fired.append, "second")
        sim.run(until=2.0)
        assert not spent.alive
        sim.cancel(spent)
        assert sim.pending_events == 1
        assert len(sim._queue) == 1 and bool(sim._queue)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.pending_events == 0

    def test_call_soon_fires_at_current_time(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.call_soon(lambda: seen.append(sim.now))

        sim.schedule(3.0, outer)
        sim.run()
        assert seen == [3.0]


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_restart_supersedes(self):
        sim = Simulator()
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.start(2.0)
        sim.schedule(1.0, lambda: t.start(5.0))
        sim.run()
        assert fired == [6.0]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        t = Timer(sim, lambda: fired.append(True))
        t.start(2.0)
        t.cancel()
        sim.run()
        assert fired == []
        assert not t.armed

    def test_armed_and_expiry(self):
        sim = Simulator()
        t = Timer(sim, lambda: None)
        assert not t.armed
        t.start(4.0)
        assert t.armed
        assert t.expires_at == 4.0
        sim.run()
        assert not t.armed and t.expires_at is None

    def test_negative_delay_raises_and_restart_keeps_the_queue_count(self):
        """start() schedules through the queue directly; it still refuses
        the past, and a restart leaves one live deadline, not two."""
        sim = Simulator()
        t = Timer(sim, lambda: None)
        with pytest.raises(SimulationError):
            t.start(-0.1)
        assert not t.armed and sim.pending_events == 0
        t.start(1.0)
        t.start(3.0)
        assert sim.pending_events == 1 and t.expires_at == 3.0
        t.cancel()
        assert sim.pending_events == 0


    def test_disarmed_inside_its_own_callback_and_may_rearm_there(self):
        sim = Simulator()
        seen = []

        def expired():
            seen.append((sim.now, t.armed, t.expires_at))
            if len(seen) == 1:
                t.start(1.5)

        t = Timer(sim, expired)
        t.start(2.0)
        sim.run()
        assert seen == [(2.0, False, None), (3.5, False, None)]
        assert sim.events_processed == 2

    def test_expires_at_tracks_the_latest_arm_and_len_counts_it_once(self):
        """A timer is its own queue handle: re-arming leaves the old heap
        entry behind to go stale, the queue still counts one deadline."""
        sim = Simulator()
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        for delay in (5.0, 1.0, 3.0):  # later, earlier, in between
            t.start(delay)
            assert t.expires_at == delay
            assert len(sim._queue) == sim.pending_events == 1
        assert len(sim._queue._heap) == 3  # two stale entries, counted dead
        t.cancel()
        t.start(4.0)
        assert len(sim._queue) == 1 and t.expires_at == 4.0
        sim.run()
        assert fired == [4.0]  # no stale entry fired, early or late
        assert sim.events_processed == 1 and len(sim._queue) == 0
        assert sim._queue._seq == 4 and sim._queue._dead == 0


class TestPeriodicTask:
    def test_restart_after_stop_keeps_one_tick_chain(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now)).start()
        sim.run(until=1.5)
        task.stop()
        assert not task.running and sim.pending_events == 0
        task.start(first_delay=0.25)
        sim.run(until=3.0)
        assert ticks == [1.0, 1.75, 2.75] and sim.pending_events == 1

    def test_ticks_at_interval(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now)).start()
        sim.run(until=3.5)
        task.stop()
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_from_callback(self):
        sim = Simulator()
        ticks = []

        def cb():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.stop()

        task = PeriodicTask(sim, 1.0, cb).start()
        sim.run(until=10)
        assert ticks == [1.0, 2.0]

    def test_first_delay_override(self):
        sim = Simulator()
        ticks = []
        PeriodicTask(sim, 2.0, lambda: ticks.append(sim.now)).start(first_delay=0.5)
        sim.run(until=5)
        assert ticks == [0.5, 2.5, 4.5]

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda: None)


class TestRng:
    def test_streams_are_deterministic(self):
        r1 = RngRegistry(7)
        r2 = RngRegistry(7)
        assert [r1.stream("x").random() for _ in range(5)] == [
            r2.stream("x").random() for _ in range(5)
        ]

    def test_streams_are_independent(self):
        reg = RngRegistry(7)
        a = reg.stream("a")
        b = reg.stream("b")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_same_name_same_stream_object(self):
        reg = RngRegistry(0)
        assert reg.stream("x") is reg.stream("x")

    def test_derive_seed_varies_with_name_and_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
