"""Edge-case tests for hosts, interfaces, and the Internet core."""

from __future__ import annotations

import pytest

from repro.net import (
    AddressAllocator,
    Host,
    Internet,
    Packet,
    attach_wired_host,
)
from repro.sim import Simulator


class Payload:
    def __init__(self, size):
        self.wire_size = size


class Sink:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def pair(sim):
    internet = Internet(sim, core_delay=0.01)
    alloc = AddressAllocator()
    a, b = Host(sim, "a"), Host(sim, "b")
    a.transport, b.transport = Sink(), Sink()
    attach_wired_host(sim, a, internet, alloc.allocate())
    attach_wired_host(sim, b, internet, alloc.allocate())
    return internet, alloc, a, b


class TestHostLifecycle:
    def test_bring_up_same_ip_no_notification(self):
        sim = Simulator()
        internet, alloc, a, b = pair(sim)
        changes = []
        a.on_ip_change(lambda o, n: changes.append((o, n)))
        a.bring_up(a.ip)  # same address: no-op notification-wise
        assert changes == []

    def test_take_down_idempotent(self):
        sim = Simulator()
        internet, alloc, a, b = pair(sim)
        first = a.take_down()
        second = a.take_down()
        assert first is not None
        assert second is None

    def test_delivery_without_transport_recorded(self):
        sim = Simulator()
        internet, alloc, a, b = pair(sim)
        b.transport = None
        a.send(Packet(a.ip, b.ip, Payload(100)))
        sim.run(until=1.0)
        assert b.drops["no_transport"] == 1

    def test_interface_tx_drop_counter(self):
        sim = Simulator()
        internet, alloc, a, b = pair(sim)
        a.interface.up = False
        a.interface.transmit(Packet("x", b.ip, Payload(10)))
        assert a.interface.tx_dropped == 1

    def test_down_host_does_not_receive(self):
        sim = Simulator()
        internet, alloc, a, b = pair(sim)
        b.interface.up = False
        b.interface.receive(Packet(a.ip, b.ip, Payload(10)))
        assert b.transport.packets == []


class TestInternetCore:
    def test_double_register_same_link_ok(self):
        sim = Simulator()
        internet, alloc, a, b = pair(sim)
        link = a.interface.link
        internet.register(a.ip, link)  # same attachment: fine

    def test_double_register_conflict_rejected(self):
        sim = Simulator()
        internet, alloc, a, b = pair(sim)
        with pytest.raises(ValueError):
            internet.register(a.ip, b.interface.link)

    def test_unregister_idempotent(self):
        sim = Simulator()
        internet, alloc, a, b = pair(sim)
        internet.unregister(a.ip)
        internet.unregister(a.ip)
        assert not internet.has_route(a.ip)

    def test_forward_counts(self):
        sim = Simulator()
        internet, alloc, a, b = pair(sim)
        a.send(Packet(a.ip, b.ip, Payload(100)))
        sim.run(until=1.0)
        assert internet.packets_forwarded == 1
        assert len(b.transport.packets) == 1

    def test_negative_core_delay_rejected(self):
        with pytest.raises(ValueError):
            Internet(Simulator(), core_delay=-1.0)

    def test_zero_core_delay_synchronous(self):
        sim = Simulator()
        internet = Internet(sim, core_delay=0.0)
        alloc = AddressAllocator()
        a, b = Host(sim, "a"), Host(sim, "b")
        b.transport = Sink()
        attach_wired_host(sim, a, internet, alloc.allocate())
        attach_wired_host(sim, b, internet, alloc.allocate())
        a.send(Packet(a.ip, b.ip, Payload(100)))
        sim.run()
        assert len(b.transport.packets) == 1
