"""Property tests for the event queue against an in-test model.

:class:`~repro.sim.events.EventQueue` promises one thing: events leave
in ``(time, seq)`` order, cancelled ones never.  The model here is the
most obvious structure with that behaviour — a list of ``(time, seq)``
pairs sorted on demand plus a cancelled set — and the queue is driven in
lockstep with it through randomized insert / cancel / bounded-pop
schedules, checking every ``pop_due``, ``pop``, ``peek_time`` and
``len``.  The three schedule families are the ones that broke the
removed calendar queue (``int(t / width)`` rounds across a bucket
boundary for exact multiples such as ``4.1 / 0.005``); they stay because
an alternative queue has to pass them before it is measured.
"""

from __future__ import annotations

import random

import pytest

from repro.net import AddressAllocator, Host, Internet, attach_wired_host
from repro.sim import Simulator
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
        if roll < 0.55 or not handles:
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
                del handles[want[1]]
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
