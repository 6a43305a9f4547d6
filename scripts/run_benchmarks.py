#!/usr/bin/env python
"""Execute the ``benchmarks/`` suite and consolidate ``BENCH_scale.json``.

Drives pytest-benchmark over the benchmark suite (per-subsystem
microbenchmarks plus the engine and scale benches) and distils its verbose JSON
into one small report at the repo root: per-benchmark wall-clock,
events per second (simulation events for packet cells, integration
steps for fluid ones — whatever the bench attached as ``events``), and
the peak swarm size exercised.

Usage::

    PYTHONPATH=src python scripts/run_benchmarks.py                 # full suite
    PYTHONPATH=src python scripts/run_benchmarks.py -k scale        # fluid tier only
    PYTHONPATH=src python scripts/run_benchmarks.py --jobs 4 -o /tmp/bench.json

The consolidated format is stable (sorted keys, one entry per bench),
so CI can archive ``BENCH_scale.json`` as an artifact and runs stay
diffable across commits.  Each run also appends one timestamped line
(commit, wall clock, per-bench events/sec) to the committed
``benchmarks/TRAJECTORY.jsonl``, the repo's long-term perf history;
``--no-trajectory`` skips the append for scratch runs.

Regression gating: ``--baseline PATH`` (e.g. the committed
``benchmarks/BASELINE.json``) compares events-per-second per bench
against recorded numbers and fails when one falls more than
``--threshold`` (default 30%) behind — meaningful only on the machine
that recorded them, so CI does not use it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timezone

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY_PATH = os.path.join(REPO_ROOT, "benchmarks", "TRAJECTORY.jsonl")


def consolidate(raw: dict) -> dict:
    """Distil a pytest-benchmark JSON blob into the BENCH_scale schema."""
    entries = []
    for bench in raw.get("benchmarks", []):
        wall = bench["stats"]["mean"]
        extra = bench.get("extra_info", {}) or {}
        events = extra.get("events")
        entries.append({
            "name": bench["name"],
            "group": bench.get("group"),
            "wall_seconds": wall,
            "events": events,
            "events_per_sec": (events / wall) if events and wall > 0 else None,
            "peak_swarm": extra.get("peak_swarm"),
            "figure": extra.get("figure"),
        })
    entries.sort(key=lambda e: e["name"])
    return {
        "machine_info": {
            k: raw.get("machine_info", {}).get(k)
            for k in ("python_version", "cpu", "system")
        },
        "benchmarks": entries,
        "total_wall_seconds": sum(e["wall_seconds"] for e in entries),
        "peak_swarm_size": max(
            (e["peak_swarm"] for e in entries if e["peak_swarm"]), default=0,
        ),
    }


def trajectory_record(report: dict) -> dict:
    """One compact JSONL line: when, what code, how fast.

    Appended to ``benchmarks/TRAJECTORY.jsonl`` after every suite run, so
    the committed file accumulates the perf history of the repo — one
    line per run, grep-able and plottable without pytest-benchmark's
    storage machinery.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": commit,
        "total_wall_seconds": round(report["total_wall_seconds"], 3),
        "peak_swarm_size": report["peak_swarm_size"],
        "events_per_sec": {
            e["name"]: round(e["events_per_sec"])
            for e in report["benchmarks"] if e["events_per_sec"]
        },
    }


def append_trajectory(report: dict, path: str) -> dict:
    record = trajectory_record(report)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def check_regression(report: dict, threshold: float, baseline: dict) -> list:
    """Return a list of human-readable regression failures (empty = pass)."""
    failures = []
    by_name = {e["name"]: e for e in report["benchmarks"]}

    def eps(entry):
        return entry.get("events_per_sec") or 0.0

    for ref in baseline.get("benchmarks", []):
        current = by_name.get(ref["name"])
        ref_eps = ref.get("events_per_sec")
        if current is None or not ref_eps:
            continue
        floor = (1.0 - threshold) * ref_eps
        if eps(current) < floor:
            failures.append(
                f"{ref['name']}: {eps(current):,.0f} ev/s is >"
                f"{threshold:.0%} below recorded baseline {ref_eps:,.0f} ev/s"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run the benchmark suite, consolidate BENCH_scale.json")
    parser.add_argument("-k", dest="select", default=None,
                        help="pytest -k expression to select benchmarks")
    parser.add_argument("-o", "--output",
                        default=os.path.join(REPO_ROOT, "BENCH_scale.json"),
                        help="consolidated report path (default: repo root)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="REPRO_BENCH_JOBS for the scenario campaigns")
    parser.add_argument("--baseline", default=None,
                        help="recorded BENCH_scale-format JSON to compare "
                             "events/sec against (e.g. benchmarks/BASELINE.json); "
                             "fail when a bench falls --threshold behind it")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed events/sec regression fraction (default 0.30)")
    parser.add_argument("--trajectory", default=TRAJECTORY_PATH,
                        help="JSONL perf-history file to append a timestamped "
                             "record to (default: benchmarks/TRAJECTORY.jsonl)")
    parser.add_argument("--no-trajectory", action="store_true",
                        help="skip the trajectory append (scratch runs)")
    parser.add_argument("--pytest-args", nargs=argparse.REMAINDER, default=[],
                        help="extra args passed through to pytest")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["REPRO_BENCH_JOBS"] = str(args.jobs)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p
    )

    with tempfile.TemporaryDirectory() as tmp:
        raw_path = os.path.join(tmp, "bench.json")
        cmd = [
            sys.executable, "-m", "pytest",
            os.path.join(REPO_ROOT, "benchmarks"),
            "-q", "--benchmark-disable-gc",
            f"--benchmark-json={raw_path}",
        ]
        if args.select:
            cmd += ["-k", args.select]
        cmd += args.pytest_args
        proc = subprocess.run(cmd, env=env, cwd=REPO_ROOT)
        if proc.returncode != 0:
            print("benchmark suite failed; no report written", file=sys.stderr)
            return proc.returncode
        with open(raw_path) as handle:
            raw = json.load(handle)

    report = consolidate(raw)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"\nwrote {args.output}")
    if not args.no_trajectory:
        record = append_trajectory(report, args.trajectory)
        print(f"appended {record['timestamp']} ({record['commit'] or 'no commit'})"
              f" to {args.trajectory}")
    for entry in report["benchmarks"]:
        eps = entry["events_per_sec"]
        print(f"  {entry['name']:<42} {entry['wall_seconds']*1000:>9.1f} ms"
              + (f"  {eps:>12,.0f} ev/s" if eps else "")
              + (f"  peak {entry['peak_swarm']:>9,.0f}"
                 if entry["peak_swarm"] else ""))

    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        failures = check_regression(report, args.threshold, baseline)
        if failures:
            print("\nperformance regression detected:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"\nregression check passed (vs {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
