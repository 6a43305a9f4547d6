#!/usr/bin/env python3
"""One committed benchmark: four workloads, checked while measured.

    python3 perfbench/run.py                      # all four, 5 passes each
    python3 perfbench/run.py --traced             # + one traced pass each
    python3 perfbench/run.py --selfcheck          # two sets must agree
    python3 perfbench/run.py --traced --record    # append to LEDGER.jsonl
    python3 perfbench/run.py --workload packet_swarm --seed 7 \\
        --seconds 20 --trace 0                    # the driver's form

Metric names, units, directions and bounds live in ../BENCHMARK.json and
nowhere else; README.md defines each metric and says how to read the
output.  With ``--seconds`` the last line of stdout is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"perfbench: no program to measure under {ROOT}/src")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import repro.experiments  # noqa: E402,F401  (registers the scenarios)
from repro.runner import canonical_json  # noqa: E402

from perfbench.hostspeed import HostSpeed, slowdown  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    OUT_DIR, OWN_METRICS, WORKLOADS, OpRecord, Workload, grid_overrides,
)

LEDGER = os.path.join(HERE, "LEDGER.jsonl")
SETUP_PROBES = 5
DEFAULT_PASSES = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
@dataclass
class PassRecord:
    ops: Dict[str, OpRecord]
    checks: Dict[str, bool]
    digest: str
    wall_s: float = 0.0  # main-phase ops, nominal host speed
    warm_s: float = 0.0  # warm-phase ops, nominal host speed
    raw_s: float = 0.0  # every op, as timed
    events: int = 0
    cells: int = 0
    cells_failed: int = 0
    counts: Dict[str, int] = field(default_factory=dict)


def run_pass(workload: Workload, host: HostSpeed, tracer=None) -> PassRecord:
    """Run every op once, a host-speed spin on either side of each."""
    gc.collect()
    ops: Dict[str, OpRecord] = {}
    phases: Dict[str, str] = {}
    before = host.spin()
    for op in workload.ops():
        fn = op.run if tracer is None else tracer.span("other", "op." + op.name, op.run)
        started = perf_counter()
        outcome = fn()
        raw = perf_counter() - started
        after = host.spin()
        ops[op.name] = OpRecord(outcome, raw, 1.0 / slowdown(before, after))
        phases[op.name] = op.phase
        before = after
    outcomes = {name: rec.outcome for name, rec in ops.items()}
    digest = hashlib.sha256(canonical_json(
        [[name, out.value] for name, out in outcomes.items()]
    ).encode("utf-8")).hexdigest()
    record = PassRecord(ops, workload.checks(outcomes), digest)
    for name, rec in ops.items():
        if phases[name] == "warm":
            record.warm_s += rec.wall_s
        else:
            record.wall_s += rec.wall_s
        record.raw_s += rec.raw_s
        record.events += rec.outcome.events
        record.cells += rec.outcome.cells
        record.cells_failed += rec.outcome.failed
        for key, n in rec.outcome.counts.items():
            record.counts[key] = record.counts.get(key, 0) + n
    return record


# ----------------------------------------------------------------------
# One workload's results
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {
        "median": statistics.median(values), "min": min(values),
        "q1": q1, "q3": q3, "n": len(values),
    }


@dataclass
class WorkloadResult:
    workload: Workload
    setup_s: List[float] = field(default_factory=list)
    passes: List[PassRecord] = field(default_factory=list)
    traced: Optional[PassRecord] = None
    tracer: object = None
    peak_rss_mb: float = 0.0
    drivers: Dict[str, float] = field(default_factory=dict)

    def every_pass(self) -> List[PassRecord]:
        return self.passes + ([self.traced] if self.traced else [])

    def failed_checks(self) -> List[str]:
        """Names of output checks that did not hold, pass by pass."""
        bad = []
        first = self.passes[0].digest
        for i, rec in enumerate(self.every_pass(), 1):
            label = "traced" if rec is self.traced else f"pass{i}"
            bad += [f"{label}:{name}" for name, ok in rec.checks.items() if not ok]
            if rec.digest != first:
                bad.append(f"{label}:digest_equals_pass1")
        return bad

    def attempted(self) -> int:
        return sum(r.cells + len(r.checks) + 1 for r in self.every_pass())

    def failed(self) -> int:
        return (
            sum(r.cells_failed for r in self.every_pass())
            + len(self.failed_checks())
        )

    def end_to_end(self) -> Dict[str, Dict[str, float]]:
        out = {
            "wall_s": summarize([r.wall_s for r in self.passes]),
            "events_per_s": summarize([r.events / r.wall_s for r in self.passes]),
            "peak_rss_mb": summarize([self.peak_rss_mb]),
        }
        if self.setup_s:
            out["setup_s"] = summarize(self.setup_s)
        return out

    def per_layer(self) -> Dict[str, float]:
        """Every per-layer number this run can state (traced runs: all)."""
        out: Dict[str, float] = dict.fromkeys(OWN_METRICS, 0)
        per_pass = [self.workload.layer_metrics(r.ops) for r in self.passes]
        for key in per_pass[0]:
            out[key] = statistics.median(m[key] for m in per_pass)
        out.update(self.passes[0].counts)
        out.update(self.drivers)
        if self.traced is not None:
            tracer, traced = self.tracer, self.traced
            shares = tracer.shares(traced.raw_s)
            out["sim.loop_share"] = shares.pop("sim")
            out["sim.handler_share"] = tracer.handler_s / traced.raw_s
            out.update({f"{layer}.share": s for layer, s in shares.items()})
            out["sim.events"] = tracer.events
            out["net.packets"] = tracer.calls["net.send"]
            out["tcp.segments"] = tracer.calls["tcp.receive"]
            out["bittorrent.messages"] = tracer.calls["bittorrent.message"]
            out["wp2p.calls"] = sum(
                n for name, n in tracer.calls.items() if name.startswith("wp2p.")
            )
            out["cdn.requests"] = tracer.calls["cdn.request"]
            untraced = statistics.median(r.wall_s + r.warm_s for r in self.passes)
            out["trace.overhead_ratio"] = (traced.wall_s + traced.warm_s) / untraced
        return out


# ----------------------------------------------------------------------
# One set of runs
# ----------------------------------------------------------------------
def probe_setup(name: str, seed: int, quick: bool, host: HostSpeed) -> List[float]:
    """Set-up, several times over: a fresh interpreter runs this program
    up to its first measured op (imports, input generation, temp cache
    dir) and exits.  Seconds at nominal host speed."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", name, "--seed", str(seed)]
    if quick:
        command.append("--quick")
    samples = []
    before = host.spin()
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        raw = perf_counter() - started
        after = host.spin()
        samples.append(raw / slowdown(before, after))
        before = after
    return samples


def peak_rss_mb() -> float:
    """Max RSS of this process plus the largest child (probe or worker)."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def run_set(names: Sequence[str], seed: int, quick: bool, traced: bool,
            passes: Optional[int], seconds: Optional[float],
            probe: bool) -> Dict[str, WorkloadResult]:
    """Probe set-up, warm up, then measure ``names`` round-robin."""
    results: Dict[str, WorkloadResult] = {}
    host = HostSpeed()
    try:
        for name in names:
            result = results[name] = WorkloadResult(WORKLOADS[name](seed, quick))
            if probe:
                result.setup_s = probe_setup(name, seed, quick, host)
            # One discarded pass at the quick size: lazy imports, code
            # version hashing and allocator growth happen here.
            warmup = WORKLOADS[name](seed, quick=True)
            try:
                warmup.prepare()
                run_pass(warmup, host)
            finally:
                warmup.close()
            result.workload.prepare()

        # Untraced passes, A B C D, A B C D ...; a traced run spends half
        # of --seconds on them and the rest on the traced pass.
        budget = None if seconds is None else seconds * (0.5 if traced else 1.0)
        started = perf_counter()
        done = 0
        while True:
            round_started = perf_counter()
            for result in results.values():
                result.passes.append(run_pass(result.workload, host))
            done += 1
            if budget is None:
                if done >= passes:
                    break
            else:
                now = perf_counter()
                # Stop when another round would overshoot by more than
                # stopping now undershoots.
                if now - started + (now - round_started) / 2 >= budget:
                    break
        for result in results.values():
            result.peak_rss_mb = peak_rss_mb()

        if traced:
            from perfbench import drivers
            from perfbench.tracer import LayerTracer

            shared = drivers.kernel_drivers(host)
            shared.update(drivers.runner_drivers(grid_overrides(seed, quick), host))
            for result in results.values():
                tracer = result.tracer = LayerTracer()
                tracer.install()
                try:
                    result.traced = run_pass(result.workload, host, tracer)
                finally:
                    tracer.uninstall()
                result.drivers = shared
            for name, result in results.items():
                result.tracer.write(os.path.join(OUT_DIR, f"spans-{name}.jsonl"))
    finally:
        for result in results.values():
            result.workload.close()
    return results


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def summarize_set(results: Dict[str, WorkloadResult], seed: int) -> dict:
    """One set of runs as JSON data: what is reported, compared, recorded."""
    return {
        "schema": 1,
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "machine": f"{platform.machine()} x{os.cpu_count()}, {platform.system()}, "
                   f"CPython {platform.python_version()}",
        "workloads": {
            name: {
                "digest": result.passes[0].digest,
                "events": result.passes[0].events,
                "passes": len(result.passes),
                "attempted": result.attempted(),
                "failed": result.failed(),
                "failed_checks": result.failed_checks(),
                # As timed, before normalisation: says how loud the host was.
                "raw_pass_s": statistics.median(r.raw_s for r in result.passes),
                "host_slowdown": statistics.median(
                    1.0 / rec.speed for r in result.passes for rec in r.ops.values()
                ),
                "end_to_end": result.end_to_end(),
                "per_layer": result.per_layer(),
            }
            for name, result in results.items()
        },
    }


def report(summary: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, data in summary["workloads"].items():
        print(f"== {name}  seed {summary['seed']}  passes {data['passes']}"
              f"  digest {data['digest'][:16]}")
        print(f"   checks: {data['attempted']} attempted, {data['failed']} failed"
              f"  failed_share {data['failed'] / data['attempted']:.4f}"
              + (f"  FAILED {data['failed_checks']}" if data["failed"] else ""))
        print(f"   as timed: pass wall median {data['raw_pass_s']:.3f} s (all ops), "
              f"host slowdown median {data['host_slowdown']:.3f}x nominal")
        for metric, s in data["end_to_end"].items():
            print(f"   {metric:<28}{s['median']:>16.4f} {units[metric]:<6}"
                  f" min {s['min']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f}"
                  f" n {s['n']}")
        for metric, value in sorted(data["per_layer"].items()):
            if metric in units:
                print(f"   {metric:<28}{value:>16.4f} {units[metric]}")


def driver_line(summary: dict, workload: str, spec: dict, traced: bool) -> str:
    """The result line of the driver's contract, for one workload."""
    data = summary["workloads"][workload]
    if traced:
        metrics = {m["name"]: {"value": data["per_layer"][m["name"]],
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": data["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return json.dumps({
        "correct": data["failed"] == 0, "attempted": data["attempted"],
        "failed": data["failed"], "metrics": metrics,
    })


def ledger_row(summary: dict, spec: dict) -> dict:
    """``summary`` as a complete ledger row, or ValueError naming what
    is missing; nothing partial is ever recorded."""
    workloads = summary["workloads"]
    missing = [w["name"] for w in spec["workloads"] if w["name"] not in workloads]
    if missing:
        raise ValueError(f"row needs all workloads; missing {missing}")
    for name, data in workloads.items():
        missing = [m["name"] for m in spec["end_to_end"]
                   if m["name"] not in data["end_to_end"]]
        missing += [m["name"] for m in spec["per_layer"]
                    if m["name"] not in data["per_layer"]]
        if missing:
            raise ValueError(f"{name}: row needs every metric; missing {missing}")
        if data["failed"]:
            raise ValueError(f"{name}: failed checks {data['failed_checks']}")
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as exc:
        raise ValueError(f"row needs a commit: {exc}") from exc
    return dict(summary, commit=commit)


def disagreements(first: dict, second: dict, spec: dict) -> List[str]:
    """Where two sets of runs of the same code differ by more than the
    benchmark allows: end-to-end medians beyond their bound, or any
    count or digest at all."""
    bad = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for m in spec["end_to_end"]:
            x = a["end_to_end"][m["name"]]["median"]
            y = b["end_to_end"][m["name"]]["median"]
            if abs(y - x) / x > m["bound"]:
                bad.append(f"{name}.{m['name']}: {x:.4f} vs {y:.4f} "
                           f"differ by more than {m['bound']:.0%}")
        for key in ("digest", "events", "attempted"):
            if a[key] != b[key]:
                bad.append(f"{name}: {key} {a[key]} vs {b[key]}")
        for m in spec["per_layer"]:
            x, y = a["per_layer"].get(m["name"]), b["per_layer"].get(m["name"])
            if m["unit"] == "count" and x != y:
                bad.append(f"{name}.{m['name']}: {x} vs {y}")
    return bad


def run_set_in_child(argv: Sequence[str], index: int) -> dict:
    """One set of runs in a process of its own (as the driver's are), so
    neither memory nor caches carry over; returns its summary."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"set{index}.json")
    child = [a for a in argv if a not in ("--selfcheck", "--record")]
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *child, "--summary-to", path]
    )
    if done.returncode not in (0, 1):
        raise SystemExit(f"perfbench: run set {index} died ({done.returncode})")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=DEFAULT_PASSES)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long instead of --passes; "
                             "ends stdout with the driver's JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--record", action="store_true",
                        help="append complete rows to LEDGER.jsonl "
                             "(implies --traced)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets; fail unless they agree")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for test_harness.py")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--summary-to", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    selected = [args.workload] if args.workload else names
    if args.setup_only:
        for name in selected:
            WORKLOADS[name](args.seed, args.quick).close()
        return 0
    if args.seconds is not None and not args.workload:
        parser.error("--seconds needs --workload")
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    traced = bool(args.trace) or args.record
    if args.selfcheck:
        if args.record and not args.trace:
            argv.append("--traced")
        summaries = [run_set_in_child(argv, index) for index in (1, 2)]
    else:
        results = run_set(
            selected, args.seed, args.quick, traced, args.passes, args.seconds,
            probe=not (traced and args.seconds is not None),
        )
        summaries = [summarize_set(results, args.seed)]
        report(summaries[0], spec)
        if args.summary_to:
            with open(args.summary_to, "w", encoding="utf-8") as handle:
                json.dump(summaries[0], handle)

    problems = [
        f"{name}: {data['failed']} of {data['attempted']} ops failed "
        f"{data['failed_checks']}"
        for summary in summaries for name, data in summary["workloads"].items()
        if data["failed"]
    ]
    if args.selfcheck:
        problems += disagreements(summaries[0], summaries[1], spec)
    if args.record and not problems:
        try:
            rows = [ledger_row(summary, spec) for summary in summaries]
        except ValueError as exc:
            problems.append(f"not recorded: {exc}")
        else:
            with open(LEDGER, "a", encoding="utf-8") as handle:
                for row in rows:
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
            print(f"recorded {len(rows)} row(s) in {LEDGER}")
    for problem in problems:
        print("PROBLEM", problem, file=sys.stderr)
    if args.seconds is not None:
        print(driver_line(summaries[-1], args.workload, spec, traced))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
