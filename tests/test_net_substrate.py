"""Unit tests for the network substrate (packets, queues, links, routing)."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.net import (
    AddressAllocator,
    DropTailQueue,
    Host,
    Internet,
    Packet,
    attach_wired_host,
    attach_wireless_host,
    loss_probability,
)
from repro.net.mobility import disconnect_host, reconnect_host
from repro.sim import Simulator


class Payload:
    def __init__(self, size: int) -> None:
        self.wire_size = size


class Sink:
    """Transport handler that records delivered packets."""

    def __init__(self) -> None:
        self.packets = []

    def receive(self, packet) -> None:
        self.packets.append(packet)


def make_pair(sim, wireless_b=False, **wireless_kwargs):
    internet = Internet(sim, core_delay=0.01)
    alloc = AddressAllocator()
    a, b = Host(sim, "a"), Host(sim, "b")
    a.transport, b.transport = Sink(), Sink()
    attach_wired_host(sim, a, internet, alloc.allocate())
    if wireless_b:
        attach_wireless_host(sim, b, internet, alloc.allocate(), **wireless_kwargs)
    else:
        attach_wired_host(sim, b, internet, alloc.allocate())
    return internet, alloc, a, b


class TestLossProbability:
    def test_zero_ber_never_loses(self):
        assert loss_probability(0.0, 1500) == 0.0

    def test_longer_packets_lose_more(self):
        assert loss_probability(1e-5, 1500) > loss_probability(1e-5, 40)

    def test_known_value(self):
        # PER = 1 - (1 - 1e-5)^(8*1500) ~= 0.1131
        assert loss_probability(1e-5, 1500) == pytest.approx(0.1131, abs=0.001)

    def test_bounds(self):
        assert loss_probability(1.0, 10) == 1.0
        assert 0.0 <= loss_probability(1e-9, 1) <= 1.0


class TestAddressAllocator:
    def test_unique_addresses(self):
        alloc = AddressAllocator()
        addrs = {alloc.allocate() for _ in range(100)}
        assert len(addrs) == 100

    def test_release_and_liveness(self):
        alloc = AddressAllocator()
        ip = alloc.allocate()
        assert alloc.is_live(ip)
        alloc.release(ip)
        assert not alloc.is_live(ip)

    def test_released_addresses_not_reissued(self):
        alloc = AddressAllocator()
        ip = alloc.allocate()
        alloc.release(ip)
        assert alloc.allocate() != ip


class TestDropTailQueue:
    def test_fifo_order(self):
        q = DropTailQueue("q", capacity_packets=10)
        p1, p2 = Packet("a", "b", Payload(100)), Packet("a", "b", Payload(100))
        q.enqueue(p1, 0.0)
        q.enqueue(p2, 0.0)
        assert q.dequeue() is p1
        assert q.dequeue() is p2
        assert q.dequeue() is None

    def test_overflow_drops_recorded(self):
        q = DropTailQueue("q", capacity_packets=1)
        assert q.enqueue(Packet("a", "b", Payload(10)), 0.0)
        assert not q.enqueue(Packet("a", "b", Payload(10)), 1.5)
        assert len(q.drops) == 1
        assert q.drops[0].time == 1.5
        assert q.drops[0].reason == "buffer_overflow"

    def test_clear(self):
        q = DropTailQueue("q", capacity_packets=10)
        q.enqueue(Packet("a", "b", Payload(10)), 0.0)
        assert q.clear() == 1
        assert len(q) == 0
        assert q.depth_bytes == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue("q", capacity_packets=0)


class TestWiredDelivery:
    def test_packet_reaches_destination(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        a.send(Packet(a.ip, b.ip, Payload(1000)))
        sim.run(until=1.0)
        assert len(b.transport.packets) == 1

    def test_unroutable_packet_dropped_at_core(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        a.send(Packet(a.ip, "10.9.9.9", Payload(100)))
        sim.run(until=1.0)
        assert internet.unroutable == 1

    def test_down_host_does_not_send(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        a.take_down()
        a.send(Packet("stale", b.ip, Payload(100)))
        sim.run(until=1.0)
        assert b.transport.packets == []
        assert a.drops == {"interface_down": 1}

    def test_transmission_time_scales_with_rate(self):
        sim = Simulator(seed=1)
        internet = Internet(sim, core_delay=0.0)
        alloc = AddressAllocator()
        a, b = Host(sim, "a"), Host(sim, "b")
        b.transport = Sink()
        attach_wired_host(sim, a, internet, alloc.allocate(), up_rate=10_000)
        attach_wired_host(sim, b, internet, alloc.allocate(), down_rate=1_000_000)
        a.send(Packet(a.ip, b.ip, Payload(9_980)))  # 10 KB w/ header
        sim.run()
        # uplink serialization dominates: 10000B / 10000Bps = 1 s
        assert sim.now == pytest.approx(1.0, abs=0.05)


class TestWirelessChannel:
    def test_lossless_delivery_both_directions(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim, wireless_b=True, ber=0.0)
        a.send(Packet(a.ip, b.ip, Payload(1000)))
        b.send(Packet(b.ip, a.ip, Payload(1000)))
        sim.run(until=2.0)
        assert len(b.transport.packets) == 1
        assert len(a.transport.packets) == 1

    def test_ber_drops_frames(self):
        sim = Simulator(seed=3)
        internet, alloc, a, b = make_pair(sim, wireless_b=True, ber=5e-5)
        # Pace sends so no queue overflows: every loss is then a bit error.
        for i in range(200):
            sim.schedule(
                i * 0.1,
                lambda: a.send(Packet(a.ip, b.ip, Payload(1460))),
            )
        sim.run(until=200.0)
        ch = b.interface.link
        assert ch.frames_lost > 0
        assert len(b.transport.packets) < 200
        assert len(b.transport.packets) + ch.frames_lost == 200
        assert ch.buffer_drops == []

    def test_shared_channel_serializes_directions(self):
        # Uplink and downlink share airtime: sending N packets each way takes
        # about twice as long as N one-way.
        def one_way_time():
            sim = Simulator(seed=1)
            internet, alloc, a, b = make_pair(sim, wireless_b=True, rate=50_000)
            for _ in range(20):
                a.send(Packet(a.ip, b.ip, Payload(1460)))
            sim.run()
            return sim.now

        def two_way_time():
            sim = Simulator(seed=1)
            internet, alloc, a, b = make_pair(sim, wireless_b=True, rate=50_000)
            for _ in range(20):
                a.send(Packet(a.ip, b.ip, Payload(1460)))
                b.send(Packet(b.ip, a.ip, Payload(1460)))
            sim.run()
            return sim.now

        assert two_way_time() > 1.7 * one_way_time()

    def test_ap_buffer_overflow_recorded(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(
            sim, wireless_b=True, rate=10_000, ap_queue_packets=5
        )
        for _ in range(50):
            a.send(Packet(a.ip, b.ip, Payload(1460)))
        sim.run(until=60)
        assert len(b.interface.link.buffer_drops) > 0

    def test_set_ber_validation(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim, wireless_b=True)
        with pytest.raises(ValueError):
            b.interface.link.set_ber(1.5)
        with pytest.raises(ValueError):
            b.interface.link.set_rate(0)


class TestMobility:
    def test_disconnect_releases_route_and_address(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        old_ip = b.ip
        released = disconnect_host(b, internet, alloc)
        assert released == old_ip
        assert not internet.has_route(old_ip)
        assert not alloc.is_live(old_ip)
        assert b.ip is None

    def test_reconnect_gets_fresh_address(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        old_ip = disconnect_host(b, internet, alloc)
        new_ip = reconnect_host(b, internet, alloc)
        assert new_ip != old_ip
        assert internet.has_route(new_ip)
        assert b.ip == new_ip

    def test_ip_change_listener_fires(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        changes = []
        b.on_ip_change(lambda old, new: changes.append((old, new)))
        old = disconnect_host(b, internet, alloc)
        new = reconnect_host(b, internet, alloc)
        assert changes == [(old, None), (None, new)]

    def test_packets_to_old_address_unroutable(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        old_ip = b.ip
        disconnect_host(b, internet, alloc)
        reconnect_host(b, internet, alloc)
        a.send(Packet(a.ip, old_ip, Payload(100)))
        sim.run(until=1.0)
        assert internet.unroutable == 1
        assert b.transport.packets == []

    def test_controller_schedule(self):
        from repro.net import MobilityController

        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        ips = [b.ip]
        b.on_ip_change(lambda old, new: ips.append(new) if new else None)
        ctl = MobilityController(sim, b, internet, alloc, interval=10.0, downtime=1.0)
        ctl.start()
        sim.run(until=35.0)
        ctl.stop()
        assert ctl.handoffs == 3
        assert len(set(ips)) == 4  # initial + 3 new addresses



class TestDropsCostCounts:
    def test_drops_are_counted_not_kept(self):
        """10,000 packets to a released address and 10,000 bit-error
        losses cost counters, not a record each."""
        n = 10_000
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim, wireless_b=True, ber=0.5)
        channel = b.interface.link
        old_ip = b.ip
        disconnect_host(b, internet, alloc)
        reconnect_host(b, internet, alloc)
        payload = Payload(100)  # at BER 0.5 every such frame is lost

        def send_both():
            a.send(Packet(a.ip, old_ip, payload))
            a.send(Packet(a.ip, b.ip, payload))
            sim.run()

        send_both()  # builds everything built lazily
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(n - 1):
                send_both()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024
        assert internet.unroutable == n
        assert channel.frames_lost == n
        assert b.transport.packets == []

class TestNetfilter:
    def test_egress_filter_can_drop(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        a.netfilter.egress.register(lambda pkt: [])
        a.send(Packet(a.ip, b.ip, Payload(100)))
        sim.run(until=1.0)
        assert b.transport.packets == []

    def test_egress_filter_can_inject(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)

        def duplicate(pkt):
            extra = Packet(pkt.src, pkt.dst, pkt.payload)
            return [extra, pkt]

        a.netfilter.egress.register(duplicate)
        a.send(Packet(a.ip, b.ip, Payload(100)))
        sim.run(until=1.0)
        assert len(b.transport.packets) == 2

    def test_injected_packets_traverse_remaining_filters(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        seen = []
        a.netfilter.egress.register(lambda pkt: [pkt, pkt])
        a.netfilter.egress.register(lambda pkt: seen.append(pkt) or None)
        a.send(Packet(a.ip, b.ip, Payload(100)))
        assert len(seen) == 2

    def test_ingress_filter_applies(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        b.netfilter.ingress.register(lambda pkt: [])
        a.send(Packet(a.ip, b.ip, Payload(100)))
        sim.run(until=1.0)
        assert b.transport.packets == []

    def test_unregister(self):
        sim = Simulator(seed=1)
        internet, alloc, a, b = make_pair(sim)
        f = lambda pkt: []
        a.netfilter.egress.register(f)
        a.netfilter.egress.unregister(f)
        a.send(Packet(a.ip, b.ip, Payload(100)))
        sim.run(until=1.0)
        assert len(b.transport.packets) == 1
