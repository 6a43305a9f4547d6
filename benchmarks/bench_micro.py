"""Per-subsystem microbenchmarks for the packet-kernel hot path.

The end-to-end figure benches (``bench_scale.py``) tell you *whether*
the engine got slower; these tell you *where*.  Each bench isolates one
subsystem the speed campaign optimised (see ``docs/PERFORMANCE.md``):

* event-queue churn — push/cancel/pop through the kernel's queue;
* wireless-channel arbitration — the shared-medium FIFO-by-arrival
  scheduler under saturating bidirectional traffic;
* the TCP segment pump — a bulk transfer between two wired hosts,
  exercising output, ACK clocking, and reassembly;
* observability-off overhead — tracing and metrics calls with no sink
  attached must cost (close to) nothing.

Every bench attaches ``events`` extra-info so
``scripts/run_benchmarks.py`` folds an events-per-second trajectory
into ``BENCH_scale.json``.
"""

from __future__ import annotations

from repro.sim import Simulator
from repro.sim.events import EventQueue
from repro.net import AddressAllocator, Host, Internet, attach_wireless_host
from repro.tcp import TCPStack


# ----------------------------------------------------------------------
# Event queue churn
# ----------------------------------------------------------------------
QUEUE_OPS = 200_000


def _queue_churn(_ignored: object = None) -> int:
    """Steady-state simulator-like load: every pop schedules ahead, a
    third of entries are cancelled before they fire.

    The argument once named a queue implementation; ``perfbench/``
    (frozen) still passes one, so it is accepted and ignored.
    """
    queue = EventQueue()
    sink = 0

    def noop() -> None:
        pass

    # Deterministic pseudo-random delays without module-level RNG state.
    t, step, ops = 0.0, 0, 0
    pending = []
    for i in range(512):  # warm population
        pending.append(queue.push(t + (i % 97) * 0.003 + 0.001, noop))
    while ops < QUEUE_OPS:
        event = queue.pop_due(None)
        if event is None:
            break
        t = event.time
        step = (step * 1103515245 + 12345) & 0x7FFFFFFF
        delay = (step % 9973) * 1e-5 + 1e-6
        handle = queue.push(t + delay, noop)
        if step & 3 == 0:  # cancel ~25% and replace them
            queue.cancel(handle)
            queue.push(t + delay * 0.5, noop)
        ops += 1
        sink += 1
    return ops


def test_queue_churn(benchmark):
    """push/cancel/pop throughput of the event queue."""
    ops = benchmark.pedantic(_queue_churn, rounds=1, iterations=1)
    assert ops == QUEUE_OPS
    benchmark.extra_info["events"] = ops
    benchmark.extra_info["subsystem"] = "event_queue"


# ----------------------------------------------------------------------
# Wireless arbitration
# ----------------------------------------------------------------------
def _wireless_saturation() -> int:
    """Saturate one cell in both directions and count frames served."""
    from repro.net.packet import Packet

    class _Payload:
        wire_size = 1000

    sim = Simulator(seed=7)
    internet = Internet(sim, core_delay=0.0)
    host = Host(sim, "m0")
    # Swallow frames at the transport layer so delivery is pure overhead.
    class _Sink:
        def receive(self, packet):
            pass

    host.transport = _Sink()
    channel = attach_wireless_host(
        sim, host, internet, "10.0.0.1", rate=2_000_000.0,
        ap_queue_packets=128, station_queue_packets=128,
    )

    def offer() -> None:
        # Top both queues up so every frame completion arbitrates between
        # non-empty directions (the case the scheduler exists for).
        while channel.uplink_queue.depth_packets < 32:
            channel.send_from_host(Packet("10.0.0.1", "10.0.0.2", _Payload()))
        while channel.downlink_queue.depth_packets < 32:
            channel.deliver_from_core(Packet("10.0.0.2", "10.0.0.1", _Payload()))
        if sim.now < 9.5:
            sim.schedule(0.01, offer)

    sim.schedule(0.0, offer)
    sim.run(until=10.0)
    return channel.frames_up + channel.frames_down


def test_wireless_arbitration(benchmark):
    """FIFO-by-arrival arbitration under sustained two-way load."""
    frames = benchmark.pedantic(_wireless_saturation, rounds=1, iterations=1)
    assert frames > 10_000
    benchmark.extra_info["events"] = frames
    benchmark.extra_info["subsystem"] = "wireless"


# ----------------------------------------------------------------------
# TCP segment pump
# ----------------------------------------------------------------------
def _tcp_bulk_transfer() -> int:
    """One bulk transfer a -> b over symmetric wired links; returns the
    number of kernel events processed."""
    from repro.net import attach_wired_host

    class _Message:
        def __init__(self, wire_length: int) -> None:
            self.wire_length = wire_length

    sim = Simulator(seed=3)
    internet = Internet(sim, core_delay=0.01)
    alloc = AddressAllocator()
    a, b = Host(sim, "a"), Host(sim, "b")
    stack_a, stack_b = TCPStack(sim, a), TCPStack(sim, b)
    attach_wired_host(sim, a, internet, alloc.allocate(),
                      down_rate=2_000_000, up_rate=2_000_000)
    attach_wired_host(sim, b, internet, alloc.allocate(),
                      down_rate=2_000_000, up_rate=2_000_000)
    received = []
    stack_b.listen(6881, lambda conn: setattr(conn, "on_message", received.append))
    client = stack_a.connect(b.ip, 6881)
    for _ in range(2_000):
        client.send_message(_Message(1400))
    sim.run(until=60.0)
    assert len(received) == 2_000
    return sim.events_processed


def test_tcp_segment_pump(benchmark):
    """Bulk-transfer throughput of the TCP output/ACK path."""
    events = benchmark.pedantic(_tcp_bulk_transfer, rounds=1, iterations=1)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["subsystem"] = "tcp"


# ----------------------------------------------------------------------
# Observability-off overhead
# ----------------------------------------------------------------------
OBS_CALLS = 500_000


def _obs_off_calls() -> int:
    """Trace + metrics hot-path calls with no sink installed."""
    sim = Simulator(seed=1)
    assert not sim.trace.enabled
    event = sim.trace.event
    counter = sim.metrics.counter("bench.counter")
    for i in range(OBS_CALLS):
        event("bench", "tick", i=i)
        counter.add(1.0)
    return OBS_CALLS


def test_obs_off_overhead(benchmark):
    """Emitting observability with no sink must stay near-free (the
    no-op fast path rebinds ``TraceBus.event`` — see repro.obs.tracing)."""
    calls = benchmark.pedantic(_obs_off_calls, rounds=1, iterations=1)
    benchmark.extra_info["events"] = calls
    benchmark.extra_info["subsystem"] = "obs"
