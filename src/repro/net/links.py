"""Wired access links.

A :class:`WiredAccessLink` joins one host to the Internet core with
independent uplink/downlink capacities — the paper's fixed peers sit on
asymmetric residential links ("Comcast Cable ... 4 Mbps downloading rate and
384 Kbps upload rate").  Each direction is a store-and-forward transmitter
fed by a drop-tail queue; because the directions are independent, uploads
never contend with downloads, which is precisely the property the shared
wireless channel lacks (Figure 3(a) vs 3(b)).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Simulator
from .internet import Internet
from .host import Host
from .packet import Packet
from .queues import DropTailQueue


class _Direction:
    """One store-and-forward pipe: queue -> transmitter -> delivery."""

    __slots__ = (
        "sim", "rate", "prop_delay", "queue", "deliver", "_busy",
        "bytes_sent", "packets_sent",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bytes_per_s: float,
        prop_delay: float,
        queue_packets: int,
        deliver: Callable[[Packet], None],
    ) -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate = rate_bytes_per_s
        self.prop_delay = prop_delay
        self.queue = DropTailQueue(name, capacity_packets=queue_packets)
        self.deliver = deliver
        self._busy = False
        self.bytes_sent = 0
        self.packets_sent = 0
        audit = sim.audit
        if audit is not None:
            audit.register_direction(self)

    # send/_tx_done run once per packet per direction.  Nothing ever
    # cancels a serialisation or propagation event, so both go through
    # the kernel's handle-free sim._post (delays are non-negative by
    # construction), and the queue's enqueue/dequeue are inlined.
    def send(self, packet: Packet) -> None:
        """Queue ``packet`` for transmission (drop-tail on overflow)."""
        q = self.queue
        fifo = q._queue
        size = packet.size_bytes
        if len(fifo) >= q.capacity_packets or (
            q.capacity_bytes is not None and q._bytes + size > q.capacity_bytes
        ):
            q.enqueue(packet, self.sim._now)  # records the overflow drop
            return
        q.enqueued += 1
        q.bytes_enqueued += size
        if self._busy:
            fifo.append(packet)
            q._bytes += size
            return
        # An idle transmitter has an empty queue (it goes idle only on
        # finding it empty): the packet passes straight through to
        # serialisation, moving the counters a trip through the FIFO would.
        q.dequeued += 1
        q.bytes_dequeued += size
        self._busy = True
        sim = self.sim
        sim._post(sim._now + size / self.rate, self._tx_done, (packet,))

    def set_rate(self, rate_bytes_per_s: float) -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_bytes_per_s

    def set_prop_delay(self, prop_delay: float) -> None:
        if prop_delay < 0:
            raise ValueError("prop_delay must be non-negative")
        self.prop_delay = prop_delay

    def _tx_done(self, packet: Packet) -> None:
        self.bytes_sent += packet.size_bytes
        self.packets_sent += 1
        sim = self.sim
        now = sim._now
        sim._post(now + self.prop_delay, self.deliver, (packet,))
        # Start serialising the head-of-line packet, or go idle.
        q = self.queue
        fifo = q._queue
        if not fifo:
            self._busy = False
            return
        packet = fifo.popleft()
        size = packet.size_bytes
        q._bytes -= size
        q.dequeued += 1
        q.bytes_dequeued += size
        sim._post(now + size / self.rate, self._tx_done, (packet,))


class WiredAccessLink:
    """Full-duplex access link: host <-> Internet core.

    ``send_from_host(packet)`` (the host side) and
    ``deliver_from_core(packet)`` (the core side) are the two
    directions' ``send``, bound per instance.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        internet: Internet,
        down_rate: float = 500_000.0,
        up_rate: float = 48_000.0,
        prop_delay: float = 0.002,
        queue_packets: int = 100,
    ) -> None:
        """Rates are in bytes/second.  Defaults approximate the paper's
        4 Mbps / 384 Kbps cable profile."""
        self.sim = sim
        self.host = host
        self.internet = internet
        self.uplink = _Direction(
            sim, f"{host.name}.uplink", up_rate, prop_delay, queue_packets, internet.forward
        )
        self.downlink = _Direction(
            sim,
            f"{host.name}.downlink",
            down_rate,
            prop_delay,
            queue_packets,
            host.interface.receive,
        )
        # One frame per hop instead of two.
        self.send_from_host = self.uplink.send
        self.deliver_from_core = self.downlink.send
        host.interface.attach(self)
        self._baseline = None

    # ------------------------------------------------------------------
    # Fault hooks (repro.chaos)
    # ------------------------------------------------------------------
    def apply_degradation(
        self, rate_factor: float = 1.0, extra_delay: float = 0.0
    ) -> None:
        """Degrade both directions: rates scaled by ``rate_factor``,
        propagation delay inflated by ``extra_delay`` seconds.

        The pre-fault configuration is snapshotted on the first call and
        restored by :meth:`clear_degradation`; overlapping degradations
        therefore do not compound — the last applied one wins.
        """
        if rate_factor <= 0:
            raise ValueError("rate_factor must be positive")
        if extra_delay < 0:
            raise ValueError("extra_delay must be non-negative")
        if self._baseline is None:
            self._baseline = (
                self.uplink.rate, self.downlink.rate,
                self.uplink.prop_delay, self.downlink.prop_delay,
            )
        up_rate, down_rate, up_delay, down_delay = self._baseline
        self.uplink.set_rate(up_rate * rate_factor)
        self.downlink.set_rate(down_rate * rate_factor)
        self.uplink.set_prop_delay(up_delay + extra_delay)
        self.downlink.set_prop_delay(down_delay + extra_delay)

    def clear_degradation(self) -> None:
        """Restore the pre-fault rates and delays (no-op when clean)."""
        if self._baseline is None:
            return
        up_rate, down_rate, up_delay, down_delay = self._baseline
        self.uplink.set_rate(up_rate)
        self.downlink.set_rate(down_rate)
        self.uplink.set_prop_delay(up_delay)
        self.downlink.set_prop_delay(down_delay)
        self._baseline = None

    def host_detached(self) -> None:
        self.uplink.queue.clear()
        self.downlink.queue.clear()


def attach_wired_host(
    sim: Simulator,
    host: Host,
    internet: Internet,
    ip: str,
    down_rate: float = 500_000.0,
    up_rate: float = 48_000.0,
    prop_delay: float = 0.002,
    queue_packets: int = 100,
) -> WiredAccessLink:
    """Wire a host to the core and bring it up at ``ip`` in one call."""
    link = WiredAccessLink(
        sim,
        host,
        internet,
        down_rate=down_rate,
        up_rate=up_rate,
        prop_delay=prop_delay,
        queue_packets=queue_packets,
    )
    internet.register(ip, link)
    host.bring_up(ip)
    return link
