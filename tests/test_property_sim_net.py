"""Property-based tests for the kernel and network conservation laws."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    AddressAllocator,
    Host,
    Internet,
    Packet,
    attach_wired_host,
    attach_wireless_host,
)
from repro.bittorrent import TokenBucket
from repro.sim import Simulator


class Payload:
    def __init__(self, size):
        self.wire_size = size


class Sink:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


class TestKernelProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert sim.now == max(delays)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                 min_size=2, max_size=100),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_cancelled_events_never_fire(self, delays, data):
        sim = Simulator()
        fired = []
        events = [sim.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
        to_cancel = data.draw(st.sets(st.integers(min_value=0, max_value=len(delays) - 1)))
        for i in to_cancel:
            sim.cancel(events[i])
        sim.run()
        assert set(fired) == set(range(len(delays))) - to_cancel

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_rng_streams_reproducible(self, seed, name):
        a = Simulator(seed=seed).rng.stream(name).random()
        b = Simulator(seed=seed).rng.stream(name).random()
        assert a == b


class TestWirelessConservation:
    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.0, max_value=5e-5, allow_nan=False),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_uplink_packet_accounted(self, n_packets, ber, seed):
        """uplink sends = delivered to core + bit-error losses + queue drops."""
        sim = Simulator(seed=seed)
        internet = Internet(sim, core_delay=0.0)
        alloc = AddressAllocator()
        mobile = Host(sim, "m")
        fixed = Host(sim, "f")
        fixed.transport = Sink()
        channel = attach_wireless_host(sim, mobile, internet, alloc.allocate(),
                                       rate=100_000, ber=ber,
                                       station_queue_packets=10)
        attach_wired_host(sim, fixed, internet, alloc.allocate())
        for i in range(n_packets):
            sim.schedule(i * 0.05, lambda: mobile.send(
                Packet(mobile.ip, fixed.ip, Payload(1000))))
        sim.run()
        delivered = len(fixed.transport.packets)
        bit_losses = channel.frames_lost  # only the uplink carries frames
        queue_drops = len(channel.uplink_queue.drops)
        assert delivered + bit_losses + queue_drops == n_packets

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_airtime_monotone_with_traffic(self, n_packets, seed):
        sim = Simulator(seed=seed)
        internet = Internet(sim, core_delay=0.0)
        alloc = AddressAllocator()
        mobile = Host(sim, "m")
        mobile.transport = Sink()
        fixed = Host(sim, "f")
        fixed.transport = Sink()
        channel = attach_wireless_host(sim, mobile, internet, alloc.allocate(),
                                       rate=100_000)
        attach_wired_host(sim, fixed, internet, alloc.allocate())
        for i in range(n_packets):
            sim.schedule(i * 0.2, lambda: fixed.send(
                Packet(fixed.ip, mobile.ip, Payload(500))))
        sim.run()
        assert channel.airtime_busy > 0
        # airtime equals frames * frame_time exactly (one rate, one size)
        per_frame = (500 + 20 + 34) / 100_000  # payload + IP + MAC overhead
        assert channel.airtime_busy == (
            __import__("pytest").approx(per_frame * n_packets)
        )


class TestTokenBucketProperties:
    @given(
        st.floats(min_value=100.0, max_value=1e6, allow_nan=False),
        st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=100),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_consumption_never_exceeds_rate_plus_burst(self, rate, requests, seed):
        sim = Simulator(seed=seed)
        bucket = TokenBucket(sim, rate=rate)
        granted = 0.0
        t = 0.0
        for i, n in enumerate(requests):
            t = i * 0.1
            sim.schedule(t, lambda: None)
            sim.run(until=t)
            if bucket.try_consume(n):
                granted += n
        # total granted <= burst + rate * elapsed
        assert granted <= bucket.burst + rate * t + 1e-6
