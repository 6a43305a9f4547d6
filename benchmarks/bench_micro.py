"""Per-subsystem drivers for the packet-kernel hot path.

The committed benchmark (``perfbench/``) times these as its kernel
per-layer metrics; each isolates one subsystem the speed campaign
optimised (see ``docs/PERFORMANCE.md``) and returns its operation count:

* event-queue churn — push/cancel/pop through the kernel's queue;
* wireless-channel arbitration — the shared-medium FIFO-by-arrival
  scheduler under saturating bidirectional traffic;
* the TCP segment pump — a bulk transfer between two wired hosts,
  exercising output, ACK clocking, and reassembly;
* observability-off overhead — a trace call with no sink attached and a
  bare :class:`~repro.obs.metrics.Counter` add must cost (close to)
  nothing.
"""

from __future__ import annotations

from repro.obs.metrics import Counter
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
    frames = channel.frames_up + channel.frames_down
    assert frames > 10_000
    return frames


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


# ----------------------------------------------------------------------
# Observability-off overhead
# ----------------------------------------------------------------------
OBS_CALLS = 500_000


def _obs_off_calls() -> int:
    """Trace calls with no sink installed, plus a counter add each."""
    sim = Simulator(seed=1)
    assert not sim.trace.enabled
    event = sim.trace.event
    counter = Counter("bench.counter", clock=lambda: sim.now)
    for i in range(OBS_CALLS):
        event("bench", "tick", i=i)
        counter.add(1.0)
    return OBS_CALLS

