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

from ..analysis import Series, sweep
from ..obs.metrics import mean
from ..runner import Scenario, Verdict, collect, scenario
from ..summation import left_sum
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

    figure = "Figure 2(a)"
    title = "Throughput comparison: bi- vs uni-directional TCP"
    x_label = "BER"
    y_label = "Downloading throughput (KB/s)"
    paper_expectation = (
        "uni-TCP above bi-TCP at every BER; both decline as BER rises; "
        "the BER=0 gap captures upstream/downstream self-contention"
    )
    reports = {"runs": "runs", "duration_s": "duration", "channel_Bps": "rate"}

    def grid(self, p):
        return [(mode, ber) for mode in ("uni", "bi") for ber in p["bers"]]

    def run_cell(self, key, seed, p):
        mode, ber = key
        return run_transfer(
            seed, ber, bidirectional=(mode == "bi"),
            duration=p["duration"], rate=p["rate"],
        ).down_rate_kbps

    def series(self, p, values):
        return [
            sweep(label, p["bers"], (collect(values, (mode, ber)) for ber in p["bers"]))
            for mode, label in (("bi", "Bi-TCP"), ("uni", "Uni-TCP"))
        ]

    def check(self, run):
        bi, uni = run.result.get("Bi-TCP"), run.result.get("Uni-TCP")
        return [
            Verdict("uni_above_bi_at_every_ber",
                    all(uni.y_at(x) >= bi.y_at(x) for x in uni.x),
                    {"uni": uni.y, "bi": bi.y}),
            Verdict("both_decline_with_ber",
                    uni.y[-1] < uni.y[0] and bi.y[-1] < bi.y[0],
                    {"uni": [uni.y[0], uni.y[-1]], "bi": [bi.y[0], bi.y[-1]]}),
        ]


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

    figure = "Figure 2(b, c)"
    title = "Client packets on the wireless leg around congestion events"
    x_label = "Time (s)"
    y_label = "Packets sent from client per bucket"
    paper_expectation = (
        "after a buffer drop, the uni-directional client's packet count "
        "decreases (fewer data -> fewer ACKs); the bi-directional "
        "client's stays approximately level (pure DUPACKs offset the "
        "halved data stream)"
    )
    reports = {"ap_queue_packets": "ap_queue_packets", "bucket_s": "bucket"}

    def cells(self, p):
        # One fixed seed per direction: the figure is a single trace.
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
        series = [
            Series(label, [t for t, _ in run["counts"]],
                   [float(c) for _, c in run["counts"]])
            for label, run in (("Uni-directional", uni), ("Bi-directional", bi))
        ]
        return self.result(p, series, {"uni_drop_times": uni["drops"],
                                       "bi_drop_times": bi["drops"]})

    def check(self, run):
        r = run.result
        uni, bi = r.get("Uni-directional"), r.get("Bi-directional")
        bi_drops = r.parameters["bi_drop_times"]
        uni_starved = post_congestion_starvation(uni, r.parameters["uni_drop_times"])
        bi_starved = post_congestion_starvation(bi, bi_drops)
        bi_ratio = drop_response_ratio(bi, bi_drops)
        starved = {"uni_starved": uni_starved, "bi_starved": bi_starved}
        measured = uni_starved is not None and bi_starved is not None
        return [
            Verdict("uni_starves_more_than_bi",
                    measured and uni_starved > bi_starved, starved),
            Verdict("bi_rarely_starves", measured and bi_starved <= 0.25, starved),
            Verdict("bi_load_level_through_congestion",
                    bi_ratio is not None and 0.8 <= bi_ratio <= 1.2,
                    {"bi_post_pre_ratio": bi_ratio}),
        ]


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
) -> Optional[float]:
    """Mean(packets in the ``window`` after a congestion event) /
    mean(before), averaged over events.  < 1 means the wireless-leg load
    fell after congestion (the uni-directional behaviour); ~1 means it
    did not (bi).

    ``skip`` excludes the loss-recovery RTTs right after the drop, where
    the DUPACK burst transiently inflates both cases.  The first
    congestion event is excluded: it terminates the initial slow-start
    overshoot, where the packet count is still ramping either way.
    """
    if not counts.x:
        return None
    window, skip = 1.0, 0.4  # seconds
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
    before_window, after_skip, after_window = 2.0, 0.5, 2.0  # seconds
    threshold = 0.5
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
    return left_sum(outcomes) / len(outcomes)
