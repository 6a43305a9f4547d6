"""repro — reproduction of *On the Impact of Mobile Hosts in Peer-to-Peer
Data Networks* (Zhuang et al., ICDCS 2008).

A packet-level discrete-event simulation stack:

* :mod:`repro.sim` — event kernel, timers, RNG streams
* :mod:`repro.net` — hosts, wired links, shared wireless channel with BER,
  Internet core, Netfilter hooks, mobility (IP renumbering)
* :mod:`repro.tcp` — bi-directional TCP with NewReno congestion control
* :mod:`repro.bittorrent` — full BitTorrent: tracker, peer wire protocol,
  tit-for-tat choking, rarest-first selection, client
* :mod:`repro.wp2p` — the paper's contribution: the wP2P mobile client
  (age-based manipulation, incentive-aware operations, mobility-aware
  operations)
* :mod:`repro.media` — in-order playability model
* :mod:`repro.experiments` — one module per figure of the paper

Quickstart::

    from repro.bittorrent.swarm import SwarmScenario
    from repro.wp2p import WP2PClient

    scenario = SwarmScenario(seed=1, file_size=2 << 20)
    scenario.add_wired_peer("seed", complete=True)
    scenario.add_wireless_peer("mobile", ber=1e-5, client_factory=WP2PClient)
    scenario.start_all()
    scenario.run_until_complete(["mobile"], timeout=600)
"""

__version__ = "1.0.0"

from . import bittorrent, media, net, sim, tcp, wp2p

__all__ = ["bittorrent", "media", "net", "sim", "tcp", "wp2p", "__version__"]
