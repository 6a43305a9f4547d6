#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running the full reproduction campaign.

Runs every figure and ablation at the parameters below — the one place
that records what each paper claim is asserted at — calls each
scenario's ``check()`` after its run, and writes the measured series
next to the paper's reported behaviour.  Numbers the prose quotes from
a claim come from that claim's verdict; if any verdict fails, the
script prints it and exits 1 without writing.  ``--jobs N`` fans the
independent simulation cells of each scenario over N worker processes,
and ``--cache`` reuses previously simulated cells (useful when
iterating on the prose).

Usage:  python scripts/generate_experiments_md.py [output-path] [--jobs N] [--cache]
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Tuple

import repro.experiments  # noqa: F401  — registers the scenarios
from repro.analysis import ExperimentResult
from repro.runner import (
    ResultCache, Runner, default_cache_dir, get_scenario, print_progress,
)

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every figure of *On the Impact of Mobile Hosts in Peer-to-Peer Data
Networks* (ICDCS 2008), regenerated through the scenario registry
(`python -m repro.experiments run NAME --check` reruns one figure and
its claims).  This file is produced by
`python scripts/generate_experiments_md.py`, which writes it only when
every claim holds.

**Reading guide.** The authors measured a physical WLAN testbed and a live
BitTorrent swarm; we measure a packet-level simulation.  Absolute numbers
are therefore not comparable — what must (and does) reproduce is the
*shape*: orderings, peaks, crossovers, and win margins.  Scaled-down
parameters (file sizes, durations, mobility intervals) are listed per
experiment; ratios between competing mechanisms are preserved.

"""

FOOTER = """\
## Summary of deviations

1. **Figure 8(a)** — the AM advantage appears at higher BER than the
   paper's sweep (within noise at 1e-6..1.5e-5; +60 %-class at 3e-5).
   Two robustness properties of our TCP blunt the effect in the paper's
   range: RFC 1122 delayed ACKs mean a substantial fraction of ACKs
   already travel as loss-robust 40-byte pure ACKs (the paper's analysis
   assumes near-total piggybacking), and our fast retransmit restarts the
   retransmission timer, eliminating the spurious mid-recovery RTOs that
   lost piggybacked ACKs otherwise amplify.  Where ACK losses genuinely
   bind, AM delivers exactly the paper's effect.
2. **Figure 8(c)** — LIHD's relative win is largest at *low* bandwidth in
   our scaled swarm (uncapped uploads saturate a small channel first),
   whereas the paper's live swarm scaled upload demand with bandwidth and
   saw the gap grow toward 200 KB/s.  Both reproduce the core claim:
   uncapped uploads on a shared channel sacrifice download throughput,
   LIHD recovers it.
3. **Figure 3(a)** — monotone increase holds through ~70 % of the uplink;
   at 80–90 % our asymmetric-uplink model shows mild ACK-queueing droop
   (a real cable-modem effect the paper's testbed did not isolate).
4. Mobility intervals for Figure 9(c) are time-scaled 2x (180/120/60 s for
   the paper's 6/4/2 min); all other mobility experiments use the paper's
   literal intervals.
"""


ABLATIONS = """\
## Ablations

Design choices the paper fixes, each varied in the setup of the figure
it belongs to (DESIGN.md §5).  Each is a registered `ablation_*`
scenario with its own claims.
"""


def block(result: ExperimentResult, setup: str, verdict: str, extra: str = "",
          level: str = "##") -> str:
    lines = [f"{level} {result.figure} — {result.title}", ""]
    lines.append(f"*Scaled setup:* {setup}")
    lines.append("")
    lines.append("```text")
    lines.append(result.table("{:.1f}"))
    lines.append("```")
    if extra:
        lines.append("")
        lines.append(extra)
    lines.append("")
    lines.append(f"**Verdict:** {verdict}")
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes per figure (default 1)")
    parser.add_argument("--cache", action="store_true",
                        help="reuse cached cells from " + default_cache_dir())
    args = parser.parse_args()
    out_path = args.output
    runner = Runner(
        jobs=args.jobs,
        cache=ResultCache(default_cache_dir()) if args.cache else None,
        progress=print_progress,
    )

    failed: List[str] = []
    t0 = time.time()

    def log(line: str) -> None:
        print(f"[{time.time() - t0:7.1f}s] {line}", flush=True)

    def run(name: str, **overrides) -> Tuple[ExperimentResult, Dict[str, dict]]:
        """The result and, by verdict name, the numbers of each claim."""
        log(name)
        scenario_run = runner.run(name, overrides)
        verdicts = get_scenario(name).check(scenario_run)
        for verdict in verdicts:
            print(f"[{name}] {verdict.line()}", flush=True)
            if not verdict.ok:
                failed.append(f"{name}: {verdict.line()}")
        return scenario_run.result, {v.name: v.observed for v in verdicts}

    sections = [HEADER]
    r, _ = run("fig2a", runs=3, duration=30.0)
    sections.append(block(
        r,
        "100 KB/s wireless cell, 30 s bulk transfers, 3 runs/point "
        "(paper: emulated wireless leg, 5-run averages).",
        "reproduced — uni-TCP above bi-TCP at every BER, both falling with "
        "BER, a nonzero gap at BER=0 from channel self-contention; matches "
        "Figure 2(a)'s ordering exactly.",
    ))

    r, seen = run("fig2bc", duration=30.0)
    starved = seen["uni_starves_more_than_bi"]
    sections.append(block(
        r,
        "60 KB/s cell, AP buffer of 6 packets, 100 ms core delay so the "
        "buffer is smaller than the path BDP (the regime the paper plots); "
        "packets bucketed per 0.25 s.",
        "reproduced — starvation fraction after congestion events: "
        f"uni {starved['uni_starved']:.2f} vs bi {starved['bi_starved']:.2f}: "
        "the uni-directional "
        "client's wireless-leg load collapses after buffer drops while the "
        "bi-directional client's stays level (pure DUPACKs offset the "
        "halved data stream), the paper's §3.2 claim.",
        extra=(
            f"Congestion events: uni {len(r.parameters['uni_drop_times'])} "
            f"drops, bi {len(r.parameters['bi_drop_times'])} drops.  The "
            "table shows per-bucket client packet counts; the bi series is "
            "visibly flat (~9-10/bucket) through every event."
        ),
    ))

    r, _ = run("fig3a", runs=3, duration=40.0)
    sections.append(block(
        r,
        "4 MB file, no seed: 6 heterogeneous remote leeches (10-60 KB/s "
        "uplinks, 1 ranked unchoke slot each) vs the measured peer on a "
        "4 Mbps/384 Kbps cable profile; cap swept as % of the 48 KB/s uplink.",
        "reproduced with one caveat — download rises with the upload cap "
        "through ~70 % (tit-for-tat reciprocation); the 80-90 % points show "
        "mild droop from upload data queueing ahead of download ACKs on the "
        "asymmetric uplink (see deviations).",
    ))

    r, _ = run("fig3b", runs=3, duration=40.0)
    peak = r.get("Wireless").peak_x
    sections.append(block(
        r,
        "Same swarm behind a 100 KB/s shared half-duplex cell; cap swept "
        "as % of channel capacity.",
        f"reproduced — rises to a peak at ~{peak:.0f}% of the channel "
        "(paper: peak well below the wired curve's 80-90%), then falls as "
        "uploads steal airtime from downloads.",
    ))

    r, _ = run("fig3c", runs=2, duration=360.0)
    nm_up = r.get("No mobility, uploading").y[-1]
    nm_noup = r.get("No mobility, no uploading").y[-1]
    m_up = r.get("Mobility, uploading").y[-1]
    m_noup = r.get("Mobility, no uploading").y[-1]
    sections.append(block(
        r,
        "32 MB file (paper: 100 MB), slow seed (5 slots) + 10 competing "
        "fixed leeches, wireless measured peer with 'uploading' capped at "
        "the competitor class rate (60 KB/s), IP change every 60 s (paper: "
        "1 min), 360 s run (paper: 40 min), 2 runs averaged.",
        "reproduced — final sizes: "
        f"NoMob+Up {nm_up:.1f} > NoMob+NoUp {nm_noup:.1f} MB (incentives "
        f"work when static) while Mob+Up {m_up:.1f} ≈ Mob+NoUp {m_noup:.1f} "
        "MB (mobility neutralises the incentive mechanism), the paper's "
        "exact ordering.",
    ))

    r, _ = run("fig4a", runs=2, duration=300.0)
    one = r.get("One peer is mobile")
    all_m = r.get("All peers are mobile")
    sections.append(block(
        r,
        "Fixed leech served by 3 wireless seeds (100 KB/s cells); IP-change "
        "intervals none/120/90/60/30 s (the paper's literal values); "
        "deployed-client restart cost 15 s (teardown + resume hash-check + "
        "re-announce); 60 s tracker interval.",
        "reproduced — throughput falls monotonically with mobility rate "
        f"({one.y[0]:.0f} -> {one.y[-1]:.0f} KB/s one-mobile; "
        f"{all_m.y[0]:.0f} -> {all_m.y[-1]:.0f} KB/s all-mobile): the "
        "degradation is amplified when all corresponding peers are mobile, "
        "as in Figure 4(a).",
    ))

    r, _ = run("fig4bc", num_pieces=20, runs=10)
    y60 = r.series[0].y_at(60.0)
    sections.append(block(
        r,
        "20 pieces — the paper's exact 5 MB / 256 KB geometry (bytes scaled); "
        "3 seeds + 2 leeches for availability variance; 10 runs (as paper).",
        f"reproduced — {y60:.0f}% playable at 60% downloaded (paper: <10% "
        "at 60%); the file is essentially unwatchable until the download "
        "nearly completes.",
    ))

    r, _ = run("fig4bc", num_pieces=400, runs=5)
    y90 = r.series[0].y_at(90.0)
    sections.append(block(
        r,
        "400 pieces — the paper's 100 MB geometry.",
        f"reproduced — only {y90:.0f}% playable even at 90% downloaded "
        "(paper: >90% needed to play the first 2%).",
    ))

    r, seen = run("fig8a", runs=6, duration=60.0)
    gain = 100 * (seen["wp2p_clearly_ahead_at_highest_ber"]["ratio"] - 1)
    sections.append(block(
        r,
        "Two wireless leeches with complementary halves of a 6 MB file "
        "(the post-seed-removal state of the paper's setup), exchanging "
        "over one bi-directional TCP connection; wP2P runs AM only; "
        "6 runs/point.  The sweep appends BER 3e-5 to the paper's range.",
        f"partially reproduced — wP2P is clearly ahead (+{gain:.0f}%) at "
        "BER 3e-5 where ACK losses bind, and never materially behind; over "
        "the paper's 1e-6..1.5e-5 range the gain is within noise because "
        "our TCP is more ACK-loss-robust than the paper's stacks (see "
        "deviations).",
    ))

    r, _ = run("fig8b", runs=2, duration=240.0)
    d = r.get("Default P2P")
    w = r.get("wP2P")
    sections.append(block(
        r,
        "64 MB-class swarm: 2 seeds + 6 competing leeches; both mobile "
        "clients hand off every 60 s (paper: every minute on a 688 MB "
        "Fedora swarm over 50 min); 240 s runs, 2 averaged.",
        f"reproduced — wP2P ends at {w.y[-1]:.1f} MB vs default "
        f"{d.y[-1]:.1f} MB (+{100 * (w.y[-1] / d.y[-1] - 1):.0f}%): identity "
        "retention keeps tit-for-tat credit across handoffs while the "
        "default client restarts as a stranger after every IP change.",
    ))

    r, seen = run("fig8c", runs=3, duration=50.0)
    best = seen["wp2p_clearly_wins_where_contention_binds"]["best_gain"]
    sections.append(block(
        r,
        "Wireless leech with 40% of an 8 MB file facing 8 high-capacity "
        "remotes; default: uncapped uploads; wP2P: LIHD with α=β=10 KB/s "
        "(the paper's Figure 8(c) setting); bandwidth swept 50-200 KB/s.",
        f"reproduced with a shape caveat — LIHD wins up to {100 * (best - 1):.0f}% "
        "(paper: up to 70%); in our scaled swarm the gap is largest where "
        "uncapped uploads saturate the channel (low bandwidth) rather than "
        "growing toward 200 KB/s (see deviations).",
    ))

    r, _ = run("fig9ab", num_pieces=20, runs=10)
    d50 = r.get("Default P2P").y_at(50.0)
    w50 = r.get("wP2P").y_at(50.0)
    sections.append(block(
        r,
        "Paper's 5 MB geometry (20 pieces), pr = downloaded fraction "
        "(the paper's evaluation setting); 10 runs averaged (paper: 20).",
        f"reproduced — at 50% downloaded, wP2P {w50:.0f}% playable vs "
        f"default {d50:.0f}% (paper: ~30% vs ~5%).",
    ))

    r, _ = run("fig9ab", num_pieces=400, runs=5)
    d50 = r.get("Default P2P").y_at(50.0)
    w50 = r.get("wP2P").y_at(50.0)
    sections.append(block(
        r,
        "Paper's 100 MB geometry (400 pieces); 5 runs averaged.",
        f"reproduced — at 50% downloaded, wP2P {w50:.0f}% vs default "
        f"{d50:.0f}% (paper: ~20% vs ~0.5%).",
    ))

    r, seen = run("fig9c", runs=2, duration=300.0)
    gain_fast = 100 * (seen["advantage_grows_with_mobility"]["gain_fast"] - 1)
    sections.append(block(
        r,
        "Two mobile wireless seeds serving 4 fixed leeches; IP changes every "
        "180/120/60 s (paper's 6/4/2 min, time-scaled 2x); default restart "
        "cost 15 s vs wP2P role reversal at 0.5 s; 2 runs/point.",
        f"reproduced — wP2P's upload throughput advantage grows with "
        f"mobility rate, reaching +{gain_fast:.0f}% at the fastest rate "
        "(paper: up to 50% at 2-minute disruptions).",
    ))

    r, seen = run("figx_scale")
    gain_100k = 100 * (1 - seen["wp2p_ahead_at_every_size"]["completion_ratio"][-1])
    sections.append(block(
        r,
        "Beyond the paper: the mean-field fluid backend (repro.scale) "
        "extends the mobile-host findings to 10^2-10^5-peer swarms "
        "(5 fixed seeds, 4 MiB file, handoffs every 90 s).  Fluid results "
        "are cross-validated against the packet simulator at small N by "
        "figx_xval (<= 15% relative error).",
        f"extends the paper — the wP2P advantage persists at every swarm "
        f"size, saving {gain_100k:.0f}% of completion time at 100k peers "
        "with 20% mobile hosts.",
    ))

    r, seen = run("figx_cdn")
    d_off = seen["offload_monotone_decreasing"]["default_offload"]
    w_off = seen["offload_monotone_decreasing"]["wp2p_offload"]
    sections.append(block(
        r,
        "Beyond the paper: a multi-content CDN workload (repro.cdn) — a "
        "4-asset hash-addressed catalog under Zipf(0.9) demand, 10 peers "
        "joining per-asset swarms on demand while sharing one uplink (and "
        "one wireless channel when mobile), an always-on origin pinning "
        "the top asset; mobile fraction swept 0/40/80%, default vs wP2P "
        "clients, 4 seeded runs per cell.",
        "extends the paper — origin offload (the fraction of delivered "
        f"bytes the peers carry) falls monotonically from {d_off[0]:.2f} "
        f"to {d_off[-1]:.2f} as the population turns mobile under default "
        "clients: every handoff restarts every per-asset task under a "
        "fresh peer ID, so all of a peer's swarms fall back on the origin "
        "at once.  wP2P identity retention and role-reversal reconnect "
        f"recover the loss at every fraction ({w_off[-1]:.2f} offload at "
        "80% mobile — above the gap-halving CI gate).",
    ))

    r, seen = run("figx_xval")
    gates = []
    for name, what in (
        ("fluid_tracks_packet", "fluid vs packet"),
        ("all_focal_hybrid_equals_packet", "all-focal hybrid vs packet"),
        ("embedded_hybrid_tracks_fluid", "embedded hybrid vs fluid"),
    ):
        rows = {k: v["rel_error"] for k, v in seen[name].items() if k != "tolerance"}
        cases = dict.fromkeys(k.split("/")[0] for k in rows)
        gates.append(
            f"- `{name}` ({what}, gate {seen[name]['tolerance']:g}): "
            + ", ".join(f"{c} {rows[c + '/completion_time']:.2%} / "
                        f"{rows[c + '/mean_goodput']:.2%}" for c in cases)
        )
    worst = {name: max(v["rel_error"] for k, v in rows.items() if k != "tolerance")
             for name, rows in seen.items()}
    sections.append(block(
        r,
        "Beyond the paper: the warranty of the fluid and hybrid tiers.  Three "
        "matched 8-peer swarms (2 seeds + 6 wired leechers; 2 seeds + 4 wired "
        "+ 2 mobile leechers handing off every 40 s on the default client or "
        "wP2P; 1 MiB file) run on the packet, fluid and all-focal hybrid "
        "tiers, and 2 mobile focal hosts (default or wP2P) run inside a "
        "10^4-peer fluid background against the fluid prediction for them; "
        "packet and hybrid cells average seeds 11 and 12.",
        "anchored — fluid tracks packet within "
        f"{worst['fluid_tracks_packet']:.1%} (gate 15%), all-focal hybrid "
        "equals packet (largest relative error "
        f"{worst['all_focal_hybrid_equals_packet']:g}), and embedded focal "
        "hosts track the fluid prediction within "
        f"{worst['embedded_hybrid_tracks_fluid']:.1%} (gate 15%).",
        extra="Relative error per case, completion time / goodput:\n\n"
              + "\n".join(gates),
    ))

    sections.append(ABLATIONS)

    r, seen = run("ablation_am_gamma", runs=4)
    ys = seen["wp2p_moves_data_at_every_gamma"]["throughput"]
    sections.append(block(
        r,
        "Figure 8(a)'s setup at BER 1.5e-5 (two wireless leeches with "
        "complementary halves of a 6 MB file, wP2P running AM only); γ at "
        "2, 6 and 12 MSS; 4 runs/point.",
        "holds — wP2P moves data at every γ ("
        + " / ".join(f"{y:.1f}" for y in ys) + " KB/s at 2 / 6 / 12 MSS).",
        level="###",
    ))

    r, seen = run("ablation_mf_schedule", runs=5)
    mid = seen["sequential_bias_not_less_playable_mid_download"]
    sections.append(block(
        r,
        "A 40-piece file fetched from 3 seeds + 2 leeches (Figure 4(b)'s "
        "swarm) by wP2P with mobility-aware fetching only, under four pr "
        "schedules; 5 runs averaged.",
        f"holds — at 50% downloaded the constant-0.2 schedule is "
        f"{mid['constant_at_50']:.0f}% playable vs {mid['rarest_at_50']:.0f}% "
        "for rarest-first: more sequential bias is never less playable "
        "mid-download.",
        level="###",
    ))

    r, seen = run("ablation_lihd", runs=2)
    ys = seen["wp2p_moves_data_at_every_setting"]["throughput"]
    sections.append(block(
        r,
        "Figure 8(c)'s swarm at a 100 KB/s channel; wP2P with LIHD only, "
        "four (α, β) settings; 2 runs/point.",
        "holds — wP2P moves data at every (α, β) ("
        + " / ".join(f"{y:.1f}" for y in ys) + " KB/s).",
        level="###",
    ))

    r, seen = run("ablation_rr_vs_tracker", runs=1)
    rr = seen["role_reversal_competitive_with_any_refresh"]
    sections.append(block(
        r,
        "Figure 9(c)'s two mobile seeds handing off every 60 s (the paper's "
        "2 min, 2x time-scaled); the default client's tracker interval swept "
        "30/60/120 s against wP2P role reversal at 60 s; 1 run/point, 240 s.",
        f"holds — role reversal uploads {rr['wp2p']:.1f} KB/s per seed vs at "
        f"best {rr['default_best']:.1f} KB/s for a default client at any "
        "tracker interval: announcing more often does not substitute for "
        "client-side re-initiation.",
        level="###",
    ))

    r, seen = run("ablation_sack", runs=4, duration=40.0)
    ends = seen["sack_competitive_at_highest_ber"]
    sections.append(block(
        r,
        "Figure 2(a)'s 60 KB/s wireless cell, one-way bulk transfer; "
        "NewReno vs SACK-lite; 4 runs/point, 40 s after a 2 s warm-up.",
        f"holds — at BER 1.5e-5 SACK-lite delivers {ends['sack'][-1]:.1f} KB/s "
        f"vs NewReno {ends['newreno'][-1]:.1f} KB/s, and both fall with BER.",
        level="###",
    ))

    if failed:
        print(f"not writing {out_path}: claims failed", *failed,
              sep="\n  ", file=sys.stderr)
        raise SystemExit(1)
    sections.append(FOOTER)
    with open(out_path, "w") as fh:
        fh.write("\n".join(sections))
    log(f"wrote {out_path}")


if __name__ == "__main__":
    main()
