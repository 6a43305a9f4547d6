"""The packet tier's pinned cases: what ``scripts/pins.py`` checks as ``packet``.

The packet hot path (``repro.sim`` -> ``net`` -> ``tcp`` ->
``bittorrent``) may be made faster only under one rule: the same
pushes, in the same order, under the same ``(time, seq)`` keys
(docs/PERFORMANCE.md § Bit-identical).  This module states that rule as
numbers.  :func:`cases` is a fixed set of small packet cells;
:func:`measure` runs one and returns its row of
``tests/data/pins/packet.json``: the sha256 of the canonical result,
the kernel events dispatched (``Simulator.events_processed``) and the
event queue's final sequence counter — the number of pushes — summed
over every simulator the cell built.

After any change to the kernel, the links, the TCP connection or the
BitTorrent message path run::

    PYTHONPATH=src python scripts/pins.py check packet
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List

import repro.experiments  # noqa: F401  (registers the scenarios)
from repro import audit
from repro.experiments.base import BulkSender, WirelessPairTopology, run_transfer
from repro.experiments.fig3_incentives import _incentive_swarm
from repro.experiments.fig4_mobility import _fig4a_run
from repro.experiments.fig8_wp2p import _fig8a_run
from repro.experiments.fig9_wp2p import _fig9c_run
from repro.experiments.figx_cdn import FigXCdn, cdn_run
from repro.experiments.figx_chaos import chaos_run
from repro.experiments.figx_scale import FigXScale, packet_cell
from repro.obs import tracing
from repro.runner import canonical_json, get_scenario
from repro.sim import Simulator
from repro.tcp import TCPConfig

#: The ``--quick`` packet_swarm cell of the committed benchmark.
QUICK_SWARM = dict(FigXScale.defaults, file_size_kib=256, handoff_interval=10.0)

#: Connection churn, default clients: every mobile download crosses
#: several handoffs, and the restart delay is shorter than the handoff
#: interval so each one is a teardown, a fresh peer ID and a re-announce.
RESTART_CHURN = dict(
    FigXScale.defaults, file_size_kib=512, handoff_interval=10.0,
    restart_delay=2.0,
)

#: Connection churn, CDN shape: 60 s of short per-asset swarms under a
#: handoff every 15 s (1,723 TCP connections in 103,049 events).
CDN_CHURN = dict(
    FigXCdn.defaults, catalog="assets:4,size_kib:128,piece_kib:16",
    demand="zipf:0.3@2.0", duration=60.0,
)


def _sack_pair() -> object:
    """Bi-directional bulk TCP over a lossy cell with SACK and the cwnd
    history on: every ConnectionStats field of both ends."""
    config = TCPConfig(sack=True, track_cwnd=True)
    topo = WirelessPairTopology(seed=5, rate=60_000.0, ber=2e-5, tcp_config=config)
    accepted: list = []
    topo.mobile_stack.listen(6881, accepted.append)
    conn = topo.fixed_stack.connect(topo.mobile.ip, 6881)
    topo.sim.schedule(0.1, BulkSender(topo.sim, conn).start)
    topo.sim.schedule(0.5, lambda: BulkSender(topo.sim, accepted[0]).start())
    topo.sim.run(until=40.0)
    return [dataclasses.asdict(c.stats) for c in (conn, accepted[0])]


def _hybrid() -> object:
    """One hybrid cell: the packet side advances in many short
    ``run(until=...)`` slices between fluid couplings."""
    scenario = get_scenario("figx_hybrid")
    params = scenario.params({
        "base_seed": 11, "background_sizes": [10_000],
        "focal_mobile_fractions": [1.0], "file_size_kib": 256,
    })
    return scenario.run_cell_hybrid(("wp2p", 10_000, 1.0), 11, params)


def _audited() -> object:
    with audit.audited() as auditors:
        value = packet_cell(
            4, 8, 0.4, True, dict(QUICK_SWARM, handoff_interval=3.0)
        )
    return {"value": value, "violations": sum(len(a.violations) for a in auditors)}


def _traced() -> object:
    with tracing.capture(ring=1_000_000) as sinks:
        value = _fig8a_run(2, 1e-5, 15.0)
    return {"value": value, "records": sinks[0].total_written}


def cases() -> Dict[str, Callable[[], object]]:
    """Case name -> thunk producing the JSON data that is hashed."""
    cdn = dict(CDN_CHURN, duration=12.0)
    return {
        "fig2_bidirectional_ber": lambda: dataclasses.asdict(
            run_transfer(1, 1e-5, True, duration=30.0)
        ),
        "fig2_downlink_only_clean": lambda: dataclasses.asdict(
            run_transfer(2, 0.0, False, duration=20.0, ap_queue_packets=10)
        ),
        "tcp_sack_cwnd_history": _sack_pair,
        "fig3_shared_channel": lambda: _incentive_swarm(
            3, True, 30_000.0, 10.0, 100_000.0, file_mb=1.0
        ),
        "fig4_handoff": lambda: _fig4a_run(4, 10.0, 2, 30.0, 30.0),
        "fig8a_am_filters": lambda: _fig8a_run(2, 1e-5, 40.0),
        "fig9c_role_reversal": lambda: _fig9c_run(6, 12.0, True, 30.0),
        "swarm_quick_default": lambda: packet_cell(3, 10, 0.2, False, QUICK_SWARM),
        "swarm_handoffs_wp2p": lambda: packet_cell(
            3, 12, 0.4, True, dict(QUICK_SWARM, file_size_kib=512, handoff_interval=4.0)
        ),
        "swarm_restart_churn": lambda: packet_cell(
            5, 12, 0.5, False, RESTART_CHURN
        ),
        "cdn_mini_wp2p": lambda: cdn_run(7, "wp2p", 0.4, cdn),
        "cdn_churn_default": lambda: cdn_run(3, "default", 0.4, CDN_CHURN),
        "hybrid_cell": _hybrid,
        "chaos_degrade": lambda: chaos_run(
            8, "degrade", 2.0, 120.0, False, horizon=40.0,
            file_size=512 * 1024,
        ),
        "chaos_mixed_wp2p": lambda: chaos_run(
            9, "mixed", 2.0, 120.0, True, horizon=40.0, file_size=512 * 1024,
        ),
        "audited_swarm": _audited,
        "traced_fig8a": _traced,
    }


def measure(thunk: Callable[[], object]) -> Dict[str, object]:
    """Run one case, collecting every simulator it builds."""
    sims: List[Simulator] = []
    init = Simulator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    Simulator.__init__ = recording_init
    try:
        value = thunk()
    finally:
        Simulator.__init__ = init
    return {
        "sha256": hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest(),
        "events": sum(sim.events_processed for sim in sims),
        "pushes": sum(sim._queue._seq for sim in sims),
    }
