"""Property tests for the event queue against an in-test model.

:class:`~repro.sim.events.EventQueue` promises one thing: events leave
in ``(time, seq)`` order, cancelled ones never.  The model here is the
most obvious structure with that behaviour — a list of ``(time, seq)``
pairs sorted on demand plus a cancelled set — and the queue is driven in
lockstep with it through randomized insert / cancel / bounded-pop
schedules, checking every ``pop_due``, ``pop``, ``peek_time`` and
``len``.  Pushes are a mix of ``push`` (a handle the schedule may
cancel) and the handle-free ``post`` (an entry nobody can cancel); both
draw ``seq`` from the one counter.  The three schedule families are the
ones that broke the removed calendar queue (``int(t / width)`` rounds
across a bucket boundary for exact multiples such as ``4.1 / 0.005``);
they stay because an alternative queue has to pass them before it is
measured.

A fourth family drives :meth:`Simulator.run` itself — whose unobserved
loop pops the heap directly — over random uneven ``run(until=t_k)``
slices of a self-extending schedule (handle and handle-free pushes at
equal times, cancels, ``stop()``, a compaction mid-run) and requires
what one uninterrupted ``run()`` produces; the profiled loop must
dispatch the same sequence and see the real callbacks.

A fifth family puts re-armable :class:`~repro.sim.Timer` objects — each
its own queue handle, re-armed in place — next to handles and
handle-free posts, and runs one self-extending program twice: on the
real kernel and on a model kernel that keeps only *live* entries in a
dict and scans it for the minimum.  Re-arming while armed, cancel then
re-arm, re-arming from inside the timer's own callback and a burst of
re-arms that compacts the heap under ``run()`` must leave the two logs,
clocks, event counts and sequence counters equal; sliced and profiled
runs must equal the uninterrupted plain one.
"""

from __future__ import annotations

import random

import pytest

from repro.net import AddressAllocator, Host, Internet, attach_wired_host
from repro.sim import Simulator, Timer
from repro.sim.events import EventQueue
from repro.tcp import TCPStack


def _noop() -> None:
    pass


class _Model:
    """Pending ``(time, seq)`` pairs, sorted on demand."""

    def __init__(self) -> None:
        self.pending = []
        self.cancelled = set()
        self.seq = 0

    def push(self, time: float) -> int:
        seq = self.seq
        self.seq += 1
        self.pending.append((time, seq))
        return seq

    def cancel(self, seq: int) -> None:
        self.cancelled.add(seq)

    def live(self):
        self.pending.sort()  # in place: the next sort finds it nearly sorted
        return [e for e in self.pending if e[1] not in self.cancelled]

    def pop_due(self, until):
        live = self.live()
        if not live or (until is not None and live[0][0] > until):
            return None
        self.pending.remove(live[0])
        return live[0]


def _check_pop(got, want, context) -> None:
    if want is None:
        assert got is None, (context, got and (got.time, got.seq))
    else:
        assert got is not None, (context, want)
        assert (got.time, got.seq) == want, context
        assert not got.alive  # a popped event is spent


def _drive(seed: int, *, times, ops: int = 4_000) -> None:
    """Run one random schedule through the queue and the model; every
    pop (bounded and unbounded), peek and length must agree."""
    rng = random.Random(seed)
    queue = EventQueue()
    model = _Model()
    handles = {}  # seq -> Event, for events neither popped nor cancelled

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.25:
            t = times(rng)
            queue.post(t, _noop)  # no handle: the model can never cancel it
            model.push(t)
        elif roll < 0.55 or not handles:
            t = times(rng)
            event = queue.push(t, _noop)
            assert event.seq == model.push(t)
            handles[event.seq] = event
        elif roll < 0.70:
            seq = rng.choice(list(handles))
            queue.cancel(handles.pop(seq))
            model.cancel(seq)
        else:
            until = None if rng.random() < 0.3 else times(rng)
            want = model.pop_due(until)
            _check_pop(queue.pop_due(until), want, until)
            if want is not None:
                handles.pop(want[1], None)  # posted entries have no handle
        live = model.live()
        assert queue.peek_time() == (live[0][0] if live else None)
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)

    # Drain: the full remaining order must match exactly.
    while True:
        want = model.pop_due(None)
        _check_pop(queue.pop(), want, "drain")
        if want is None:
            break
    assert len(queue) == 0


@pytest.mark.parametrize("seed", range(8))
def test_pop_order_matches_heap_random(seed):
    """Uniform random times over several orders of magnitude."""
    _drive(seed, times=lambda rng: rng.random() * 10 ** rng.randint(-3, 2))


@pytest.mark.parametrize("seed", range(8))
def test_pop_order_matches_heap_boundary_times(seed):
    """Times that are exact multiples of a common bucket width — the
    float regime where ``int(t / width)`` rounds across a boundary."""

    def times(rng):
        # e.g. 4.1 with width 0.005: 4.1/0.005 -> 820 but 4.1 < 820*0.005.
        return rng.randrange(0, 2000) * 0.005 + rng.choice((0.0, 0.1, 4.1))

    _drive(seed, times=times)


def test_pop_order_matches_heap_bursty_same_time():
    """Many events at the identical instant must pop in push order."""
    _drive(99, times=lambda rng: rng.choice((1.0, 1.0, 1.0, 2.5, 2.5)))


def test_order_survives_compaction():
    """Pile up more than 512 dead entries, outnumbering the live ones,
    so the queue compacts mid-run; order and counts must not notice."""
    rng = random.Random(7)
    queue = EventQueue()
    model = _Model()
    events = []
    for _ in range(1_500):
        t = rng.random() * 50.0
        events.append(queue.push(t, _noop))
        model.push(t)
    rng.shuffle(events)
    for event in events[:1_200]:
        queue.cancel(event)
        model.cancel(event.seq)
        assert len(queue) == len(model.live())
    assert len(queue._heap) < 1_500  # nothing was popped: it compacted
    while True:
        want = model.pop_due(None)
        _check_pop(queue.pop(), want, "after compaction")
        if want is None:
            break


# ----------------------------------------------------------------------
# Simulator.run over uneven slices == one uninterrupted run
# ----------------------------------------------------------------------
class _Program:
    """A schedule that extends itself as it runs.

    Every decision an event makes (what it pushes, which handle it
    cancels, whether it stops the run) is drawn from an RNG seeded by
    the event's own id, so the behaviour is a function of dispatch order
    alone — how the run is sliced cannot leak into it.
    """

    GRID = 0.25  # coarse time grid: many handle/handle-free ties

    def __init__(self, seed: int, profiled: bool = False) -> None:
        self.sim = Simulator(seed=seed)
        self.seed = seed
        self.log = []  # (id, time, pending after the event's own pushes)
        self.recorded = []  # callback names the profiler hook was handed
        self.handles = {}  # id -> Event, for ids pushed with a handle
        self.stops = 0
        self.next_id = 0
        if profiled:
            self.sim.enable_profiling().record = (
                lambda callback, dt: self.recorded.append(callback.__name__)
            )
        rng = random.Random(seed)
        for _ in range(40):
            self._push(rng, horizon=20.0)
        # A pile of far-future handles, kept apart from the ones above,
        # that events cancel 300 at a time: > 512 dead outnumbering the
        # live ones -> compaction inside a callback, while run() holds
        # the heap.  The last 200 survive and fire.
        self.pile = [self._push_handle(500.0 + i * 0.01) for i in range(1_400)]
        self.handles.clear()

    def _push_handle(self, time: float):
        ident = self.next_id
        self.next_id += 1
        event = self.sim.schedule_at(time, self.fire_handle, ident)
        self.handles[ident] = event
        return event

    def _push(self, rng, horizon: float) -> None:
        time = self.sim.now + round(rng.random() * horizon / self.GRID) * self.GRID
        if rng.random() < 0.5:
            self._push_handle(time)
        else:
            ident = self.next_id
            self.next_id += 1
            self.sim._post(time, self.fire_posted, (ident,))

    def fire_handle(self, ident: int) -> None:
        self.handles.pop(ident, None)
        self._fire(ident)

    def fire_posted(self, ident: int) -> None:
        self._fire(ident)

    def _fire(self, ident: int) -> None:
        sim = self.sim
        rng = random.Random(self.seed * 1_000_003 + ident)
        if self.next_id < 4_000:  # the schedule stops extending itself
            for _ in range(rng.choice((1, 1, 2, 2))):
                self._push(rng, horizon=6.0)
        if self.handles and rng.random() < 0.3:
            victim = rng.choice(sorted(self.handles))
            sim.cancel(self.handles.pop(victim))
        if len(self.pile) > 200 and rng.random() < 0.2:
            for event in self.pile[:300]:
                sim.cancel(event)
            del self.pile[:300]
        if rng.random() < 0.05:
            self.stops += 1
            sim.stop()
        self.log.append((ident, sim.now, sim.pending_events))

    def run(self, until=None) -> None:
        """``sim.run(until)``, resumed for as long as an event stopped it."""
        while True:
            stops = self.stops
            self.sim.run(until=until)
            if self.stops == stops:
                return


@pytest.mark.parametrize("seed", range(6))
def test_sliced_runs_equal_one_uninterrupted_run(seed):
    whole = _Program(seed)
    whole.run()
    assert whole.stops > 0 and len(whole.pile) == 200  # stop() and compaction happened
    assert len(whole.log) > 500

    sliced = _Program(seed)
    rng = random.Random(seed + 100)
    t = 0.0
    while sliced.sim.pending_events and t < 400.0:
        # Uneven slices: empty ones, ones ending exactly on the event
        # grid (a head due *at* ``until`` fires, the next one stays).
        t += rng.choice((0.0, 0.1, _Program.GRID, 1.0, 3.7, 25.0))
        sliced.run(until=t)
        assert sliced.sim.now == t
        done = len(sliced.log)
        assert sliced.log == whole.log[:done]
        assert all(entry[1] <= t for entry in sliced.log)
        assert done == len(whole.log) or whole.log[done][1] > t
        if done:
            assert sliced.sim.pending_events == whole.log[done - 1][2]
        assert sliced.sim.events_processed == done
    sliced.run()  # the far-future survivors of the pile
    assert sliced.log == whole.log
    assert sliced.sim.now == whole.sim.now
    assert sliced.sim.events_processed == whole.sim.events_processed == len(whole.log)
    assert sliced.sim.pending_events == whole.sim.pending_events == 0
    assert not sliced.sim._queue and sliced.sim._queue._dead == 0
    assert sliced.sim._queue._seq == whole.sim._queue._seq  # same pushes


@pytest.mark.parametrize("seed", range(3))
def test_profiled_loop_dispatches_the_same_sequence(seed):
    plain = _Program(seed)
    plain.run()
    profiled = _Program(seed, profiled=True)
    profiled.run()
    assert profiled.log == plain.log
    assert profiled.sim.events_processed == plain.sim.events_processed
    # record() was handed the real callback of every entry, handle or not.
    assert set(profiled.recorded) == {"fire_handle", "fire_posted"}
    assert len(profiled.recorded) == len(plain.log)
    assert profiled.recorded.count("fire_posted") > 100


# ----------------------------------------------------------------------
# Re-armable timers next to handles and handle-free posts, vs a model
# ----------------------------------------------------------------------
class _ModelTimer:
    def __init__(self, kernel, callback) -> None:
        self.kernel, self.callback, self.seq = kernel, callback, None

    def start(self, delay: float) -> None:
        self.cancel()
        self.seq = self.kernel.push(self.kernel.now + delay, self._fire)

    def cancel(self) -> None:
        self.kernel.cancel(self.seq)
        self.seq = None

    @property
    def armed(self) -> bool:
        return self.seq is not None

    @property
    def expires_at(self):
        return self.kernel.live[self.seq][0] if self.armed else None

    def _fire(self) -> None:
        self.seq = None
        self.callback()


class _ModelKernel:
    """The obvious kernel: live entries only, ``seq -> (time, callback,
    args)``, scanned for the minimum ``(time, seq)``.  A cancelled or
    superseded entry is simply gone — there is nothing stale to skip."""

    def __init__(self) -> None:
        self.now, self.seq, self.events_processed = 0.0, 0, 0
        self.live = {}
        self.stopped = False

    def push(self, time, callback, *args) -> int:
        seq = self.seq
        self.seq += 1
        self.live[seq] = (time, callback, args)
        return seq

    post = push

    def timer(self, callback) -> _ModelTimer:
        return _ModelTimer(self, callback)

    def cancel(self, seq) -> None:
        self.live.pop(seq, None)

    def stop(self) -> None:
        self.stopped = True

    @property
    def pending_events(self) -> int:
        return len(self.live)

    def run(self, until=None) -> None:
        self.stopped = False
        while self.live and not self.stopped:
            seq = min(self.live, key=lambda s: (self.live[s][0], s))
            time, callback, args = self.live[seq]
            if until is not None and time > until:
                break
            del self.live[seq]
            self.now = time
            callback(*args)
            self.events_processed += 1
        if until is not None and not self.stopped and self.now < until:
            self.now = until


class _RealKernel:
    """The same surface over a :class:`Simulator`."""

    def __init__(self, profiled: bool = False) -> None:
        self.sim = Simulator(seed=0)
        self.recorded = []
        if profiled:
            self.sim.enable_profiling().record = (
                lambda callback, dt: self.recorded.append(callback.__name__)
            )

    now = property(lambda self: self.sim.now)
    seq = property(lambda self: self.sim._queue._seq)
    events_processed = property(lambda self: self.sim.events_processed)
    pending_events = property(lambda self: self.sim.pending_events)

    def push(self, time, callback, *args):
        return self.sim.schedule_at(time, callback, *args)

    def post(self, time, callback, *args) -> None:
        self.sim._post(time, callback, args)

    def timer(self, callback) -> Timer:
        return Timer(self.sim, callback)

    def cancel(self, handle) -> None:
        self.sim.cancel(handle)

    def stop(self) -> None:
        self.sim.stop()

    def run(self, until=None) -> None:
        self.sim.run(until=until)


class _TimerProgram:
    """A self-extending schedule over handles, posts and six timers.

    As in :class:`_Program`, every decision is drawn from an RNG seeded
    by the firing event's own id, so behaviour is a function of dispatch
    order alone — not of the kernel underneath or of how the run is cut.
    """

    GRID = 0.25
    TIMERS = 6
    BURST = 700  # re-arms in one callback: > 512 stale entries, compaction

    def __init__(self, kernel, seed: int) -> None:
        self.kernel, self.seed = kernel, seed
        self.log = []
        self.handles = {}
        self.next_id = 0
        self.stops = self.bursts = self.rearmed_armed = self.rearmed_inside = 0
        self.timers = [
            kernel.timer(lambda k=k: self._timer_fired(k)) for k in range(self.TIMERS)
        ]
        self.deadline = [None] * self.TIMERS  # where the program last armed each
        self.fired = [0] * self.TIMERS
        rng = random.Random(seed)
        for _ in range(30):
            self._push(rng, horizon=10.0)
        for k in range(self.TIMERS):
            self._start(k, self._delay(rng, 8.0))

    def _delay(self, rng, horizon: float) -> float:
        return round(rng.random() * horizon / self.GRID) * self.GRID

    def _push(self, rng, horizon: float) -> None:
        time = self.kernel.now + self._delay(rng, horizon)
        ident = self.next_id
        self.next_id += 1
        if rng.random() < 0.5:
            self.handles[ident] = self.kernel.push(time, self.fire_handle, ident)
        else:
            self.kernel.post(time, self.fire_posted, ident)

    def _start(self, k: int, delay: float) -> None:
        self.rearmed_armed += self.timers[k].armed
        self.timers[k].start(delay)
        self.deadline[k] = self.kernel.now + delay
        assert self.timers[k].armed and self.timers[k].expires_at == self.deadline[k]

    def fire_handle(self, ident: int) -> None:
        self.handles.pop(ident, None)
        self._act(ident)

    def fire_posted(self, ident: int) -> None:
        self._act(ident)

    def _timer_fired(self, k: int) -> None:
        timer = self.timers[k]
        # Only the latest arm fires — never a superseded entry, early or
        # late — and the timer is disarmed inside its own callback.
        assert self.kernel.now == self.deadline[k]
        assert not timer.armed and timer.expires_at is None
        self.fired[k] += 1
        self._act(1_000_000 + k * 10_000 + self.fired[k], own=k)

    def _act(self, ident: int, own=None) -> None:
        kernel = self.kernel
        rng = random.Random(self.seed * 1_000_003 + ident)
        if self.next_id < 1_500:
            for _ in range(rng.choice((1, 1, 2))):
                self._push(rng, horizon=5.0)
            if own is not None and rng.random() < 0.8:
                self.rearmed_inside += 1
                self._start(own, self._delay(rng, 3.0))
        if self.handles and rng.random() < 0.25:
            kernel.cancel(self.handles.pop(rng.choice(sorted(self.handles))))
        k = rng.randrange(self.TIMERS)
        roll = rng.random()
        if roll < 0.10:
            self._start(k, self._delay(rng, 3.0))  # usually while armed
        elif roll < 0.14:
            self.timers[k].cancel()
            assert not self.timers[k].armed
        elif roll < 0.18:
            self.timers[k].cancel()
            self._start(k, self._delay(rng, 3.0))
        elif roll < 0.20 and self.bursts < 3:
            self.bursts += 1
            for _ in range(self.BURST):
                self._start(k, self._delay(rng, 40.0))
        if rng.random() < 0.04:
            self.stops += 1
            kernel.stop()
        self.log.append((
            ident, kernel.now, kernel.pending_events,
            tuple(t.expires_at for t in self.timers),
        ))

    def run(self, until=None) -> None:
        while True:
            stops = self.stops
            self.kernel.run(until)
            if self.stops == stops:
                return


def _assert_same_outcome(got: _TimerProgram, want: _TimerProgram) -> None:
    assert got.log == want.log
    for field in ("now", "events_processed", "pending_events", "seq"):
        assert getattr(got.kernel, field) == getattr(want.kernel, field), field


@pytest.mark.parametrize("seed", range(6))
def test_timers_match_the_model_kernel(seed, monkeypatch):
    model = _TimerProgram(_ModelKernel(), seed)
    model.run()
    # Every case the family names happened in this schedule.
    assert model.rearmed_armed > 100 and model.rearmed_inside > 30
    assert model.bursts > 0 and model.stops > 0 and len(model.log) > 800

    compactions = []
    compact = EventQueue._compact
    monkeypatch.setattr(
        EventQueue, "_compact",
        lambda queue: (compactions.append(queue._dead), compact(queue)),
    )
    real = _TimerProgram(_RealKernel(), seed)
    real.run()
    _assert_same_outcome(real, model)
    queue = real.kernel.sim._queue
    assert len(real.log) == real.kernel.events_processed
    assert len(queue) == 0 and queue._dead == 0
    # Each burst left > 512 stale entries of one timer in the heap and
    # compacted it from inside a callback, while run() held the list.
    assert len(compactions) >= model.bursts and min(compactions) > 512


@pytest.mark.parametrize("seed", range(4))
def test_timers_sliced_and_profiled_runs_equal_the_plain_run(seed):
    whole = _TimerProgram(_RealKernel(), seed)
    whole.run()

    sliced = _TimerProgram(_RealKernel(), seed)
    rng = random.Random(seed + 200)
    t = 0.0
    while sliced.kernel.pending_events:
        t += rng.choice((0.0, 0.1, _TimerProgram.GRID, 1.0, 3.7, 25.0))
        sliced.run(until=t)
        done = len(sliced.log)
        assert sliced.kernel.now == t and sliced.log == whole.log[:done]
        assert done == len(whole.log) or whole.log[done][1] > t
        assert sliced.kernel.events_processed == done
    whole.run(until=t)  # drained already: only levels the clocks
    _assert_same_outcome(sliced, whole)

    profiled = _TimerProgram(_RealKernel(profiled=True), seed)
    profiled.run()
    profiled.run(until=t)
    _assert_same_outcome(profiled, whole)
    # The observed loop dispatched, and reported, the timers' own
    # callbacks — no wrapper frame stands in for them.
    assert len(profiled.kernel.recorded) == len(whole.log)
    assert set(profiled.kernel.recorded) == {"fire_handle", "fire_posted", "<lambda>"}


def test_bulk_transfer_statistics_pinned():
    """Every order-sensitive statistic of one full TCP bulk transfer, as
    both queue implementations produced it at the commit before the
    calendar queue was removed (the figure-level digests are pinned in
    tests/test_scale.py)."""

    class _Message:
        def __init__(self, wire_length: int) -> None:
            self.wire_length = wire_length

    sim = Simulator(seed=5)
    internet = Internet(sim, core_delay=0.01)
    alloc = AddressAllocator()
    a, b = Host(sim, "a"), Host(sim, "b")
    stack_a, stack_b = TCPStack(sim, a), TCPStack(sim, b)
    attach_wired_host(sim, a, internet, alloc.allocate(),
                      down_rate=200_000, up_rate=200_000)
    attach_wired_host(sim, b, internet, alloc.allocate(),
                      down_rate=200_000, up_rate=200_000)
    received = []
    stack_b.listen(6881, lambda conn: setattr(conn, "on_message", received.append))
    client = stack_a.connect(b.ip, 6881)
    for _ in range(300):
        client.send_message(_Message(1400))
    end = sim.run(until=60.0)
    assert (
        end,
        len(received),
        sim.events_processed,
        client.stats.segments_sent,
        client.stats.segments_received,
        client.stats.pure_acks_sent,
        internet.packets_forwarded,
    ) == (60.0, 300, 2536, 363, 144, 1, 507)
