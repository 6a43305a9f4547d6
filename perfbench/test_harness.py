"""Checks on the benchmark itself: ``pytest perfbench/test_harness.py``.

Not part of the tier-1 suite (``testpaths`` is ``tests/``): these tests
start the harness as the driver does, at ``--quick`` sizes, and take
about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def drive(workload: str, trace: int, seed: int = 5) -> dict:
    """One quick run in the driver's form; the parsed result line."""
    done = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (drive(w, 1), drive(w, 1)) for w in WORKLOADS}


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        why = workload["why"]
        assert why and "\n" not in why and len(why) <= 200
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
        names.append(metric["name"])
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    line = drive(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(traced_twice, workload):
    line = traced_twice[workload][0]
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(traced_twice, workload):
    first, second = traced_twice[workload]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    assert first["attempted"] == second["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_shares_sum_to_one(traced_twice, workload):
    metrics = traced_twice[workload][0]["metrics"]
    total = sum(
        m["value"] for name, m in metrics.items()
        if name.endswith(".share") or name == "sim.loop_share"
    )
    assert total == pytest.approx(1.0, abs=0.02)


def test_layers_land_where_the_readme_says(traced_twice):
    def value(workload, name):
        return traced_twice[workload][0]["metrics"][name]["value"]

    assert value("packet_swarm", "sim.events") > 0
    assert value("packet_swarm", "runner.share") == 0
    assert value("packet_swarm", "cdn.requests") == 0
    assert value("cdn_multiswarm", "cdn.requests") > 0
    assert value("fluid_hybrid", "scale.share") > value("fluid_hybrid", "tcp.share")
    assert value("campaign_runner", "runner.cells") > 0
    assert value("campaign_runner", "runner.warm_wall_s") > 0


def test_partial_ledger_row_is_refused():
    sys.path.insert(0, ROOT)
    from perfbench import run

    results = run.run_set(["fluid_hybrid"], seed=5, quick=True, traced=False,
                          passes=1, seconds=None, probe=False)
    summary = run.summarize_set(results, seed=5)
    with pytest.raises(ValueError, match="missing .*packet_swarm"):
        run.ledger_row(summary, SPEC)
    # All workloads but untraced: per-layer metrics are missing.
    summary["workloads"] = dict.fromkeys(
        WORKLOADS, summary["workloads"]["fluid_hybrid"]
    )
    with pytest.raises(ValueError, match="missing .*setup_s.*sim.events"):
        run.ledger_row(summary, SPEC)


def test_no_result_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
