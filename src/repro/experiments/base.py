"""Shared experiment machinery.

Raw-TCP topologies for the transport-level figures (Figure 2, Figure
8(a) uses BitTorrent); the bulk-transfer apps are :mod:`repro.apps.bulk`'s.

Scaling: every experiment accepts its paper parameters but defaults to
scaled-down values chosen so a full bench run finishes in seconds; the
scale factors are recorded in each result's ``parameters``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..apps.bulk import BulkSender
from ..net import (
    AddressAllocator,
    Host,
    Internet,
    WirelessChannel,
    attach_wired_host,
    attach_wireless_host,
)
from ..sim import Simulator
from ..tcp import TCPConfig, TCPConnection, TCPStack

WARMUP = 2.0
"""Seconds :func:`run_transfer` lets the connection settle before it
counts delivered bytes."""


class WirelessPairTopology:
    """Fixed wired peer <-> Internet <-> wireless mobile peer.

    The canonical §3.2 setup: one fixed correspondent and one mobile host
    behind an emulated wireless leg.
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 100_000.0,
        ber: float = 0.0,
        ap_queue_packets: int = 50,
        core_delay: float = 0.02,
        tcp_config: Optional[TCPConfig] = None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.internet = Internet(self.sim, core_delay=core_delay)
        self.alloc = AddressAllocator()
        self.fixed = Host(self.sim, "fixed")
        self.mobile = Host(self.sim, "mobile")
        self.fixed_stack = TCPStack(self.sim, self.fixed, config=tcp_config)
        self.mobile_stack = TCPStack(self.sim, self.mobile, config=tcp_config)
        attach_wired_host(
            self.sim, self.fixed, self.internet, self.alloc.allocate(),
            down_rate=1_000_000, up_rate=1_000_000,
        )
        self.channel: WirelessChannel = attach_wireless_host(
            self.sim, self.mobile, self.internet, self.alloc.allocate(),
            rate=rate, ber=ber, ap_queue_packets=ap_queue_packets,
        )


@dataclass
class TransferStats:
    """Outcome of one raw-TCP transfer run."""

    delivered_down: int  # payload bytes delivered at the mobile host
    delivered_up: int  # payload bytes delivered at the fixed host
    duration: float

    @property
    def down_rate_kbps(self) -> float:
        """Download throughput at the mobile host, KB/s."""
        return self.delivered_down / self.duration / 1000.0


def run_transfer(
    seed: int,
    ber: float,
    bidirectional: bool,
    duration: float = 40.0,
    rate: float = 60_000.0,
    ap_queue_packets: int = 50,
) -> TransferStats:
    """One fixed->mobile transfer (optionally with a reverse bulk stream
    on the *same* connection — true bi-directional TCP).

    Trace it like any run, with :func:`repro.obs.tracing.capture`."""
    topo = WirelessPairTopology(
        seed=seed, rate=rate, ber=ber, ap_queue_packets=ap_queue_packets,
    )
    server_conns: List[TCPConnection] = []
    topo.mobile_stack.listen(6881, server_conns.append)
    conn = topo.fixed_stack.connect(topo.mobile.ip, 6881)
    down_sender = BulkSender(topo.sim, conn)
    topo.sim.schedule(0.1, down_sender.start)
    if bidirectional:
        def start_reverse() -> None:
            if server_conns:
                BulkSender(topo.sim, server_conns[0]).start()
            else:
                topo.sim.schedule(0.2, start_reverse)

        topo.sim.schedule(0.3, start_reverse)
    topo.sim.run(until=WARMUP)
    base_down = server_conns[0].stats.payload_bytes_delivered if server_conns else 0
    base_up = conn.stats.payload_bytes_delivered
    topo.sim.run(until=WARMUP + duration)
    delivered_down = (
        server_conns[0].stats.payload_bytes_delivered - base_down if server_conns else 0
    )
    delivered_up = conn.stats.payload_bytes_delivered - base_up
    return TransferStats(delivered_down, delivered_up, duration)


def sample_times(p) -> List[float]:
    """A progress curve's time grid: every ``sample_step`` to ``duration``."""
    return [
        p["sample_step"] * i
        for i in range(int(p["duration"] / p["sample_step"]) + 1)
    ]


def random_piece_subset(
    rng, num_pieces: int, fraction: float
) -> List[int]:
    """A random subset of piece indices covering ``fraction`` of the file."""
    count = max(1, int(round(num_pieces * fraction)))
    return sorted(rng.sample(range(num_pieces), min(count, num_pieces)))
