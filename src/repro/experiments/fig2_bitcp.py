"""Figure 2 — the impact of bi-directional TCP on a wireless leg (§3.2).

* ``fig2a``: download throughput of the mobile host, bi-directional vs
  uni-directional TCP, swept over bit error rate.  Paper: bi-TCP is below
  uni-TCP everywhere (self-contention at BER 0; piggybacked-ACK losses
  widen the gap as BER grows).

* ``fig2bc``: packets transmitted by the mobile client on the wireless leg
  over time, with buffer-drop (congestion) events.  Paper: after a
  congestion event the packet count falls for uni-directional TCP but
  stays roughly level for bi-directional TCP, because the receiver's pure
  DUPACKs replace the suppressed data packets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..analysis import ExperimentResult, Series, summarize
from ..runner import Scenario, collect, scenario
from ..sim import mean
from .base import BulkSender, WirelessPairTopology, run_transfer

DEFAULT_BERS: Tuple[float, ...] = (0.0, 5e-6, 1e-5, 1.5e-5, 2e-5)


@scenario
class Fig2A(Scenario):
    """Bi-TCP vs uni-TCP downloading throughput across BER (Figure 2(a))."""

    name = "fig2a"
    description = "Figure 2(a): bi- vs uni-directional TCP throughput over BER"
    defaults = {
        "bers": list(DEFAULT_BERS),
        "runs": 5,
        "duration": 40.0,
        "rate": 60_000.0,
        "base_seed": 100,
    }

    def cells(self, p):
        for mode in ("uni", "bi"):
            for ber in p["bers"]:
                for i in range(p["runs"]):
                    yield (mode, ber), p["base_seed"] + i

    def run_cell(self, key, seed, p):
        mode, ber = key
        return run_transfer(
            seed, ber, bidirectional=(mode == "bi"),
            duration=p["duration"], rate=p["rate"],
        ).down_rate_kbps

    def assemble(self, p, values, failures):
        def sweep(mode: str) -> Series:
            ys: List[float] = []
            errs: List[float] = []
            for ber in p["bers"]:
                vals = collect(values, (mode, ber))
                ys.append(sum(vals) / len(vals))
                errs.append(summarize(vals).ci95)
            label = "Bi-TCP" if mode == "bi" else "Uni-TCP"
            return Series(label, list(p["bers"]), ys, y_err=errs)

        return ExperimentResult(
            figure="Figure 2(a)",
            title="Throughput comparison: bi- vs uni-directional TCP",
            x_label="BER",
            y_label="Downloading throughput (KB/s)",
            series=[sweep("bi"), sweep("uni")],
            paper_expectation=(
                "uni-TCP above bi-TCP at every BER; both decline as BER rises; "
                "the BER=0 gap captures upstream/downstream self-contention"
            ),
            parameters={
                "runs": p["runs"], "duration_s": p["duration"],
                "channel_Bps": p["rate"],
            },
        )


def _packets_and_drops(
    seed: int,
    bidirectional: bool,
    duration: float,
    rate: float,
    ap_queue_packets: int,
    bucket: float,
    core_delay: float,
) -> Tuple[List[Tuple[float, int]], List[float]]:
    """One run: client-transmitted packets per bucket + drop times."""
    topo = WirelessPairTopology(
        seed=seed, rate=rate, ber=0.0, ap_queue_packets=ap_queue_packets,
        core_delay=core_delay,
    )
    server_conns: list = []
    topo.mobile_stack.listen(6881, server_conns.append)
    conn = topo.fixed_stack.connect(topo.mobile.ip, 6881)
    BulkSender(topo.sim, conn).start()
    if bidirectional:
        def start_reverse() -> None:
            if server_conns:
                BulkSender(topo.sim, server_conns[0]).start()
            else:
                topo.sim.schedule(0.2, start_reverse)

        topo.sim.schedule(0.3, start_reverse)
    topo.sim.run(until=duration)
    counts = topo.channel.client_tx_series.bucketed_counts(bucket, 0.0, duration)
    drops = [d.time for d in topo.channel.buffer_drops]
    return counts, drops


@scenario
class Fig2BC(Scenario):
    """Packets on the wireless leg vs time, uni (2b) and bi (2c).

    The access-point queue is kept *smaller* than the path's
    bandwidth-delay product, so halving the window after a buffer drop
    genuinely starves the wireless leg (the regime the paper plots).
    """

    name = "fig2bc"
    description = (
        "Figure 2(b, c): client packets on the wireless leg around congestion"
    )
    defaults = {
        "duration": 20.0,
        "rate": 60_000.0,
        "ap_queue_packets": 6,
        "bucket": 0.25,
        "seed": 7,
        "core_delay": 0.1,
    }

    def cells(self, p):
        yield ("uni",), p["seed"]
        yield ("bi",), p["seed"]

    def run_cell(self, key, seed, p):
        counts, drops = _packets_and_drops(
            seed, key[0] == "bi", p["duration"], p["rate"],
            p["ap_queue_packets"], p["bucket"], p["core_delay"],
        )
        return {"counts": [[t, c] for t, c in counts], "drops": drops}

    def assemble(self, p, values, failures):
        uni = collect(values, ("uni",))[0]
        bi = collect(values, ("bi",))[0]
        return ExperimentResult(
            figure="Figure 2(b, c)",
            title="Client packets on the wireless leg around congestion events",
            x_label="Time (s)",
            y_label="Packets sent from client per bucket",
            series=[
                Series("Uni-directional", [t for t, _ in uni["counts"]],
                       [float(c) for _, c in uni["counts"]]),
                Series("Bi-directional", [t for t, _ in bi["counts"]],
                       [float(c) for _, c in bi["counts"]]),
            ],
            paper_expectation=(
                "after a buffer drop, the uni-directional client's packet count "
                "decreases (fewer data -> fewer ACKs); the bi-directional "
                "client's stays approximately level (pure DUPACKs offset the "
                "halved data stream)"
            ),
            parameters={
                "uni_drop_times": uni["drops"],
                "bi_drop_times": bi["drops"],
                "ap_queue_packets": p["ap_queue_packets"],
                "bucket_s": p["bucket"],
            },
        )


def cluster_drops(drop_times: Sequence[float], min_gap: float = 1.0) -> List[float]:
    """First drop of each congestion burst (droptail drops arrive in bursts)."""
    events: List[float] = []
    for t in sorted(drop_times):
        if not events or t - events[-1] >= min_gap:
            events.append(t)
    return events


def drop_response_ratio(
    counts: Series,
    drop_times: Sequence[float],
    window: float = 1.0,
    skip: float = 0.4,
) -> Optional[float]:
    """Mean(packets in the window after a congestion event) / mean(before),
    averaged over events.  < 1 means the wireless-leg load fell after
    congestion (the uni-directional behaviour); ~1 means it did not (bi).

    ``skip`` excludes the loss-recovery RTTs right after the drop, where
    the DUPACK burst transiently inflates both cases.  The first
    congestion event is excluded: it terminates the initial slow-start
    overshoot, where the packet count is still ramping either way.
    """
    if not counts.x:
        return None
    end = counts.x[-1]
    ratios: List[float] = []
    events = cluster_drops(drop_times, min_gap=skip + window)[1:]
    for drop in events:
        if drop - window < 0 or drop + skip + window > end:
            continue  # need full windows on both sides
        before = [
            y for x, y in zip(counts.x, counts.y) if drop - window <= x < drop
        ]
        after = [
            y
            for x, y in zip(counts.x, counts.y)
            if drop + skip < x <= drop + skip + window
        ]
        if before and after and mean(before) > 0:
            ratios.append(mean(after) / mean(before))
    return mean(ratios) if ratios else None


def post_congestion_starvation(
    counts: Series,
    drop_times: Sequence[float],
    before_window: float = 2.0,
    after_skip: float = 0.5,
    after_window: float = 2.0,
    threshold: float = 0.5,
) -> Optional[float]:
    """Fraction of congestion episodes after which the wireless leg starved.

    An episode "starves" when the minimum per-bucket packet count in the
    window after the event falls to ``threshold`` of the pre-event mean.
    Uni-directional TCP starves after nearly every event (cwnd halving
    empties the leg); bi-directional TCP does not — the receiver's pure
    DUPACKs keep the packet count level, the paper's §3.2 observation.
    The first episode (end of initial slow start) is excluded.
    """
    if not counts.x:
        return None
    end = counts.x[-1]
    outcomes: List[bool] = []
    for drop in cluster_drops(drop_times, min_gap=after_skip + after_window)[1:]:
        if drop - before_window < 0 or drop + after_skip + after_window > end:
            continue
        before = [
            y for x, y in zip(counts.x, counts.y) if drop - before_window <= x < drop
        ]
        after = [
            y
            for x, y in zip(counts.x, counts.y)
            if drop + after_skip < x <= drop + after_skip + after_window
        ]
        if before and after and mean(before) > 0:
            outcomes.append(min(after) <= threshold * mean(before))
    if not outcomes:
        return None
    return sum(outcomes) / len(outcomes)
