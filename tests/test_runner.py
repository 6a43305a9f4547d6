"""Tests for the scenario registry and the parallel, cache-aware runner."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import pathlib
import re
import sqlite3
import subprocess
import sys

import pytest

import repro.experiments  # noqa: F401  — registers the figure scenarios
from repro import context
from repro.obs import tracing
from repro.runner import (
    AXES,
    Axis,
    ResultCache,
    Runner,
    RunnerStats,
    Scenario,
    ScenarioSpec,
    UnknownScenarioError,
    code_version,
    collect,
    freeze_params,
    get_scenario,
    scenario,
    scenario_names,
)
from repro.runner import runner as runner_module
from repro.runner.cache import DB_NAME
from repro.runner.spec import cell_digest

import pins

# Tiny fig2a campaign: 2 BERs x 2 seeds x 2 modes = 8 cells, < 1 s total.
FAST_FIG2A = {"runs": 2, "duration": 2.0, "bers": [0.0, 1e-5]}

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _spawn_python(script: str, *args: str) -> subprocess.Popen:
    """Start ``python -c script args`` with the library importable."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", script, *args], env=env)


def _sql(root, statement: str, args: tuple = ()):
    """One statement on the store through a second connection; its first row."""
    conn = sqlite3.connect(os.path.join(root, DB_NAME))
    try:
        with conn:
            return conn.execute(statement, args).fetchone()
    finally:
        conn.close()


# A 400-cell fluid grid whose process kills itself, uncatchably, from the
# progress callback of cell K: everything filed up to then must survive.
# 400 distinct keys (2 variants x 20 sizes x 10 mobile fractions) at one
# seed each, since fluid seeds of one key share a single computation.
GRID_400 = {
    "runs": 1, "dt": 2.0,
    "swarm_sizes": [100 * i for i in range(1, 21)],
    "mobile_fractions": [i / 20 for i in range(1, 11)],
}
_KILLED_CAMPAIGN = """
import json, os, signal, sys
import repro.experiments
from repro.runner import ResultCache, Runner

root, kill_at, grid = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])

def progress(line):
    if f" {kill_at}/400 cells" in line:
        os.kill(os.getpid(), signal.SIGKILL)

Runner(cache=ResultCache(root), backend="fluid", progress=progress).run(
    "figx_scale", grid)
"""

# One of four concurrent writers: 250 digests of its own, 50 everyone writes.
_CONCURRENT_WRITER = """
import sys
from repro.runner import ResultCache

root, who = sys.argv[1], sys.argv[2]
cache = ResultCache(root)
for i in range(300):
    digest = f"shared-{i:03d}" if i < 50 else f"w{who}-{i:03d}"
    cache.put(digest, {"i": i}, meta={"writer": who})
"""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_figure_is_registered(self):
        assert set(scenario_names()) >= {
            "fig2a", "fig2bc", "fig3a", "fig3b", "fig3c", "fig4a",
            "fig4bc", "fig8a", "fig8b", "fig8c", "fig9ab", "fig9c",
        }

    def test_lookup_returns_the_scenario(self):
        scn = get_scenario("fig2a")
        assert scn.name == "fig2a"
        assert scn.description

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(UnknownScenarioError) as exc:
            get_scenario("fig99")
        assert "fig99" in str(exc.value)
        assert "fig2a" in str(exc.value)  # the error lists what *is* known

    def test_unknown_override_key_fails_fast(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            get_scenario("fig2a").params({"durations": 5.0})

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            @scenario
            class Impostor(Scenario):
                name = "fig2a"

    def test_collect_orders_by_seed(self):
        values = {(("a",), 3): 30, (("a",), 1): 10, (("b",), 2): 99, (("a",), 2): 20}
        assert collect(values, ("a",)) == [10, 20, 30]


# ----------------------------------------------------------------------
# Spec hashing
# ----------------------------------------------------------------------
class TestSpec:
    def test_params_are_canonical(self):
        # Tuples and lists hash identically: both become JSON arrays.
        a = ScenarioSpec.create("x", {"bers": (0.0, 1e-5)})
        b = ScenarioSpec.create("x", {"bers": [0.0, 1e-5]})
        assert a == b
        assert a.spec_hash() == b.spec_hash()

    def test_spec_is_hashable(self):
        spec = ScenarioSpec.create("x", {"runs": 2}, seeds=(1, 2))
        assert spec in {spec}

    def test_different_params_different_digest(self):
        a = ScenarioSpec.create("x", {"runs": 2})
        b = ScenarioSpec.create("x", {"runs": 3})
        assert cell_digest(a, ("k",), 1) != cell_digest(b, ("k",), 1)

    def test_digest_depends_on_seed_and_key(self):
        spec = ScenarioSpec.create("x", {"runs": 2})
        assert cell_digest(spec, ("k",), 1) != cell_digest(spec, ("k",), 2)
        assert cell_digest(spec, ("k",), 1) != cell_digest(spec, ("j",), 1)

    def test_code_version_is_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_freeze_params_json_round_trip(self):
        frozen = freeze_params({"a": (1, 2), "b": {"c": 3.0}})
        assert frozen == {"a": [1, 2], "b": {"c": 3.0}}


# ----------------------------------------------------------------------
# Determinism: serial == parallel, bit for bit
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_serial_and_parallel_are_bit_identical(self):
        serial = Runner(jobs=1).run("fig2a", FAST_FIG2A)
        parallel = Runner(jobs=4).run("fig2a", FAST_FIG2A)
        assert serial.values == parallel.values
        s = [(s.label, s.x, s.y, s.y_err) for s in serial.result.series]
        p = [(s.label, s.x, s.y, s.y_err) for s in parallel.result.series]
        assert json.dumps(s) == json.dumps(p)

    def test_trace_sinks_force_serial(self, tmp_path):
        # Global sinks live in this process; the runner must not fan out.
        lines = []
        with tracing.capture(path=str(tmp_path / "t.jsonl")):
            assert tracing.installed()
            run = Runner(jobs=4, progress=lines.append).run("fig2a", FAST_FIG2A)
        assert run.stats.executed == 8
        assert any("serial" in line for line in lines)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestCache:
    def test_cold_run_misses_then_populates(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        assert run.stats.cache_hits == 0
        assert run.stats.executed == run.stats.total_cells == 8
        assert len(cache) == 8

    def test_warm_rerun_executes_zero_simulations(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        warm = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == warm.stats.total_cells
        # and the assembled result is bit-identical to the cold one
        assert warm.values == cold.values
        assert [s.y for s in warm.result.series] == [s.y for s in cold.result.series]

    def test_changed_params_invalidate(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        Runner(cache=cache).run("fig2a", FAST_FIG2A)
        changed = dict(FAST_FIG2A, duration=3.0)
        rerun = Runner(cache=cache).run("fig2a", changed)
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.executed == 8

    def test_changed_code_version_invalidates(self, tmp_path):
        spec = ScenarioSpec.create("fig2a", freeze_params(FAST_FIG2A))
        assert (
            cell_digest(spec, ("uni", 0.0), 100, code="aaaa")
            != cell_digest(spec, ("uni", 0.0), 100, code="bbbb")
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("ab" * 32, {"v": 1})
        _sql(tmp_path, "UPDATE cells SET entry = 'not json{' WHERE digest = ?", ("ab" * 32,))
        hit, value = cache.get("ab" * 32)
        assert not hit and value is None
        assert (cache.misses, cache.corrupt) == (1, 1)
        # An absent entry is a plain miss.
        assert cache.get("cd" * 32) == (False, None)
        assert (cache.misses, cache.corrupt) == (2, 1)

    def test_truncated_entry_reexecutes_and_is_counted(self, tmp_path):
        # Fault injection: one entry of a warm cache is cut short.
        cache = ResultCache(str(tmp_path))
        cold = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        (victim,) = _sql(tmp_path, "SELECT min(digest) FROM cells")
        _sql(tmp_path, "UPDATE cells SET entry = substr(entry, 1, 10) WHERE digest = ?", (victim,))

        damaged = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        assert damaged.stats.cache_corrupt == 1
        assert damaged.stats.executed == 1
        assert damaged.stats.cache_hits == 7
        assert "1 corrupt cache entries" in damaged.stats.summary()
        assert damaged.values == cold.values
        (entry,) = _sql(tmp_path, "SELECT entry FROM cells WHERE digest = ?", (victim,))
        json.loads(entry)  # rewritten whole

        healed = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        assert healed.stats.cache_hits == healed.stats.total_cells
        assert healed.stats.cache_corrupt == 0
        assert "corrupt" not in healed.stats.summary()

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_damaged_database_file_is_quarantined(self, tmp_path, damage):
        # Fault injection at the file level: the whole store is overwritten
        # with noise, or loses its second half, between two campaigns.
        cache = ResultCache(str(tmp_path))
        cold = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        cache.close()
        db = tmp_path / DB_NAME
        original = db.read_bytes()
        damaged_bytes = (
            b"\xde\xad\xbe\xef" * 2048 if damage == "garbage"
            else original[: len(original) // 2]
        )
        db.write_bytes(damaged_bytes)

        rerun = Runner(cache=ResultCache(str(tmp_path))).run("fig2a", FAST_FIG2A)
        assert rerun.stats.cache_corrupt >= 1
        assert "corrupt cache entries" in rerun.stats.summary()
        assert rerun.stats.executed == 8 and not rerun.failures
        assert rerun.values == cold.values
        # Quarantined, not deleted: the damaged bytes are still there to look at.
        quarantined = list(tmp_path.glob(DB_NAME + ".corrupt-*"))
        assert [q.read_bytes() for q in quarantined] == [damaged_bytes]

        warm = Runner(cache=ResultCache(str(tmp_path))).run("fig2a", FAST_FIG2A)
        assert warm.stats.cache_hits == 8 and warm.stats.cache_corrupt == 0
        assert warm.values == cold.values

    def test_unwritable_root_completes_uncached(self, tmp_path):
        # A cache root that runs through a regular file can never be
        # created (this fails the same way for root, unlike chmod).
        (tmp_path / "plainfile").write_text("in the way")
        cache = ResultCache(str(tmp_path / "plainfile" / "cache"))
        lines = []
        run = Runner(cache=cache, progress=lines.append).run(
            "fig2a", FAST_FIG2A
        )
        assert run.values == Runner().run("fig2a", FAST_FIG2A).values
        assert run.stats.executed == 8 and not run.failures
        assert run.stats.cache_put_errors == 8
        assert "8 cache put errors" in run.stats.summary()
        # Said once, with the reason, not once per cell.
        complaints = [line for line in lines if "cache put failed" in line]
        assert len(complaints) == 1 and "NotADirectoryError" in complaints[0]
        # A get on such a root is a plain miss, and nothing was counted corrupt.
        assert cache.get("ab" * 32) == (False, None)
        assert cache.corrupt == 0 and len(cache) == 0
        assert "cache put errors" not in RunnerStats().summary()

    def test_sigkilled_campaign_resumes_without_repeating_a_cell(self, tmp_path):
        # Every put is its own committed transaction: a campaign killed
        # after cell k has exactly k cells filed.
        kill_at = 137
        victim = _spawn_python(
            _KILLED_CAMPAIGN, str(tmp_path), str(kill_at), json.dumps(GRID_400)
        )
        assert victim.wait(timeout=120) == -9
        rerun = Runner(cache=ResultCache(str(tmp_path)), backend="fluid").run(
            "figx_scale", GRID_400
        )
        assert rerun.stats.total_cells == 400
        assert rerun.stats.cache_hits == kill_at
        assert rerun.stats.executed == 400 - kill_at
        assert rerun.stats.cache_corrupt == 0

    def test_four_processes_share_one_store(self, tmp_path):
        writers = [
            _spawn_python(_CONCURRENT_WRITER, str(tmp_path), str(who))
            for who in range(4)
        ]
        assert [w.wait(timeout=120) for w in writers] == [0, 0, 0, 0]
        cache = ResultCache(str(tmp_path))
        assert len(cache) == 4 * 250 + 50
        for i in range(300):
            names = (
                [f"shared-{i:03d}"] if i < 50 else [f"w{who}-{i:03d}" for who in range(4)]
            )
            for name in names:
                assert cache.get(name) == (True, {"i": i})
        assert (cache.hits, cache.misses, cache.corrupt) == (1050, 0, 0)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_is_created_with_no_connection_open(self, tmp_path, monkeypatch, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        cache = ResultCache(str(tmp_path))
        held_at_pool_creation = []

        def pool_context():
            held_at_pool_creation.append(dict(cache._conns))
            return multiprocessing.get_context(method)

        monkeypatch.setattr(runner_module, "_pool_context", pool_context)
        serial = Runner(jobs=1).run("fig2a", FAST_FIG2A)
        cold = Runner(jobs=2, cache=cache).run("fig2a", FAST_FIG2A)
        # The probe opened a connection; the pool never saw it.
        assert held_at_pool_creation == [{}]
        assert cold.stats.executed == 8 and cold.stats.cache_put_errors == 0
        warm = Runner(jobs=2, cache=cache).run("fig2a", FAST_FIG2A)
        assert warm.stats.cache_hits == 8
        assert held_at_pool_creation == [{}]  # a warm run needs no pool
        assert serial.values == cold.values == warm.values

    def test_connection_is_not_used_across_fork(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        cache = ResultCache(str(tmp_path))
        cache.put("parent", 1)
        parent_conn = cache._connection()

        def child(queue):
            cache.put("child", 2)
            queue.put((cache._connection() is not parent_conn, cache.get("parent")))

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=child, args=(queue,))
        proc.start()
        assert queue.get(timeout=60) == (True, (True, 1))
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert cache._connection() is parent_conn  # the parent's was left alone
        assert cache.get("child") == (True, 2)

    def test_meta_says_what_was_filed(self, tmp_path):
        Runner(cache=ResultCache(str(tmp_path))).run("fig2a", FAST_FIG2A)
        entry = json.loads(_sql(tmp_path, "SELECT min(entry) FROM cells")[0])
        assert set(entry) == {"value", "meta"}
        meta = entry["meta"]
        assert set(meta) == {"scenario", "backend", "seed", "key", "seconds"}
        assert (meta["scenario"], meta["backend"]) == ("fig2a", "packet")

    def test_no_cache_runner_never_touches_disk(self, tmp_path):
        Runner(cache=None).run("fig2a", FAST_FIG2A)
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Failure capture and degradation
# ----------------------------------------------------------------------
@scenario
class FlakyScenario(Scenario):
    """Seed 2 always dies."""

    name = "test-flaky"
    description = "test scenario: deterministic failures"
    defaults = {"seeds": [1, 2, 3]}

    def cells(self, p):
        for seed in p["seeds"]:
            yield ("v",), seed

    def run_cell(self, key, seed, p):
        if seed == 2:
            raise RuntimeError("seed 2 always dies")
        return seed * 10

    def assemble(self, p, values, failures):
        return {"values": collect(values, ("v",)), "failed": len(failures)}


class TestFailures:
    def test_dead_seed_is_reported_not_fatal(self):
        run = Runner().run("test-flaky")
        # seed 2 failed, seeds 1 and 3 survived
        assert run.result == {"values": [10, 30], "failed": 1}
        assert [f.seed for f in run.failures] == [2]
        failure = run.failures[0]
        assert "seed 2 always dies" in failure.error
        assert "seed 2 always dies" in failure.summary()
        assert run.stats.failed == 1
        assert run.stats.executed == 3

    def test_a_point_that_lost_every_seed_is_nan_not_fatal(self, monkeypatch):
        scn = get_scenario("fig2a")
        run_cell = type(scn).run_cell

        def refuse_ber_zero(self, key, seed, p):
            if key[1] == 0.0:
                raise RuntimeError("BER 0 refused")
            return run_cell(self, key, seed, p)

        monkeypatch.setattr(type(scn), "run_cell", refuse_ber_zero)
        run = Runner().run("fig2a", FAST_FIG2A)
        assert len(run.failures) == 4  # both modes x both seeds at BER 0
        assert all("BER 0 refused" in f.error for f in run.failures)
        for label in ("Bi-TCP", "Uni-TCP"):
            series = run.result.get(label)
            assert math.isnan(series.y_at(0.0)) and math.isnan(series.err_at(0.0))
            assert series.y_at(1e-5) > 0
        verdicts = scn.check(run)
        assert verdicts and not any(v.ok for v in verdicts)

    def test_a_spec_with_no_cells_is_rejected(self):
        with pytest.raises(ValueError, match="'fig2a' has no cells"):
            Runner().run("fig2a", {"runs": 0})

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        Runner(cache=cache).run("test-flaky", {"seeds": [1, 2]})
        assert len(cache) == 1  # only seed 1's value landed on disk

    def test_invalid_runner_args_rejected(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)


# ----------------------------------------------------------------------
# Seed-free sharing: a fluid cell is identified by its key alone
# ----------------------------------------------------------------------
# 20 distinct keys x 10 seeds of the fluid figx_scale sweep.
FLUID_GRID = {"runs": 10, "dt": 2.0}


class TestSeedFreeSharing:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_key_is_computed_and_filed_once(self, tmp_path, jobs):
        cache = ResultCache(str(tmp_path))
        cold = Runner(jobs=jobs, cache=cache, backend="fluid").run(
            "figx_scale", FLUID_GRID)
        # By hand: one run_cell_fluid call per (key, seed).
        scn = get_scenario("figx_scale")
        params = scn.params(FLUID_GRID)
        expected = {
            (tuple(key), seed): json.loads(json.dumps(scn.run_cell_fluid(key, seed, params)))
            for key, seed in scn.cells(params)
        }
        keys = {key for key, _ in expected}
        assert (cold.stats.total_cells, len(keys)) == (200, 20)
        assert cold.stats.executed == len(keys) == len(cold.stats.cell_seconds)
        assert cold.stats.shared == 200 - len(keys)
        assert cold.stats.cache_hits == 0 and not cold.failures
        assert f"{len(keys)} executed, 180 shared, 0 cache hits" in cold.stats.summary()
        assert len(cache) == len(keys)
        assert cold.values == expected
        assert list(cold.values) == list(expected)  # filled in cell order
        for key in keys:
            group = [value for (k, _), value in cold.values.items() if k == key]
            assert all(value is group[0] for value in group)
        # Each entry is filed under, and names, its key's first seed.
        assert _sql(tmp_path, "SELECT group_concat(DISTINCT "
                    "json_extract(entry, '$.meta.seed')) FROM cells") == ("1500",)

        warm = Runner(jobs=jobs, cache=cache, backend="fluid").run("figx_scale", FLUID_GRID)
        assert warm.stats.cache_hits == warm.stats.total_cells == 200
        assert (warm.stats.executed, warm.stats.shared) == (0, 0)
        assert warm.values == cold.values
        assert [s.y for s in warm.result.series] == [s.y for s in cold.result.series]

    def test_a_failing_key_fails_every_member_alike(self, monkeypatch):
        def boom(self, key, seed, p):
            raise RuntimeError(f"fluid cell {key!r} refused")

        monkeypatch.setattr(type(get_scenario("figx_scale")), "run_cell_fluid", boom)
        run = Runner(backend="fluid").run("figx_scale", {"runs": 3, "dt": 2.0})
        assert run.stats.total_cells == run.stats.failed == len(run.failures) == 60
        assert (run.stats.executed, run.stats.shared) == (20, 40)
        assert run.values == {}
        for key in {f.key for f in run.failures}:
            group = [f for f in run.failures if f.key == key]
            assert [f.seed for f in group] == [1500, 1501, 1502]
            assert len({f.error for f in group}) == 1
            assert f"fluid cell {key!r} refused" in group[0].error

    def test_seeded_backends_keep_one_computation_per_cell(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        assert (cold.stats.executed, cold.stats.shared, len(cache)) == (8, 0, 8)
        assert "shared" not in cold.stats.summary()
        warm = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        assert (warm.stats.cache_hits, warm.stats.executed, warm.stats.shared) == (8, 0, 0)

    def test_cli_json_stats_count_shared_cells(self, capsys):
        from repro.experiments.__main__ import main

        main(["run", "figx_scale", "--no-cache", "--quiet", "--json",
              "--set", "runs=3", "--set", "dt=2.0"])
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert (stats["executed"], stats["shared"], stats["total_cells"]) == (20, 40, 60)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_runner_metrics_and_progress(self):
        lines = []
        run = Runner(progress=lines.append).run("fig2a", FAST_FIG2A)
        assert (run.stats.total_cells, run.stats.executed, run.stats.cache_hits) == (8, 8, 0)
        assert len(run.stats.cell_seconds) == 8
        assert all(seconds > 0 for seconds in run.stats.cell_seconds.values())
        assert sum(1 for line in lines if "/8 cells" in line) == 8
        assert "8 cells: 8 executed" in run.stats.summary()

    def test_run_scenario_front_door(self):
        result = Runner().run("fig2bc", {"duration": 5.0}).result
        assert result.figure == "Figure 2(b, c)"


# ----------------------------------------------------------------------
# Scenario axes and the run context
# ----------------------------------------------------------------------
FAST_ERASURE = {
    "variants": ["replication", "coded", "ma"], "intensities": [1.0], "runs": 1,
    "duration": 120.0, "horizon": 150.0, "source_kib": 512,
}


def _pinned_spec(axes) -> ScenarioSpec:
    return ScenarioSpec.create("figx", {"runs": 2}, seeds=[7], **axes)


class TestAxes:
    @pytest.mark.parametrize("name", sorted(n.replace("_", " ") for n in pins.AXIS_SETTINGS))
    def test_non_default_cell_digest_is_pinned(self, name):
        assert pins.main(["check", "axes/cell_" + name.replace(" ", "_")]) == 0

    @pytest.mark.parametrize("name", ["backend", "content", "strategies", "workload"])
    def test_single_axis_spec_hash_is_pinned(self, name):
        assert pins.main(["check", f"axes/spec_{name}"]) == 0

    def test_chaos_is_in_the_spec_hash(self):
        clean = _pinned_spec({})
        chaotic = _pinned_spec({"chaos": "blackout"})
        assert chaotic.spec_hash() != clean.spec_hash()
        assert _pinned_spec({"chaos": None}).spec_hash() == clean.spec_hash()
        run = Runner(chaos="blackout").run("fig2a", FAST_FIG2A)
        assert run.spec.axes["chaos"] == {
            "preset": "blackout", "intensity": 1.0, "horizon": 300.0,
        }

    def test_unknown_axis_is_refused(self):
        with pytest.raises(TypeError, match="unknown scenario axis"):
            Runner(chaotic="churn")

    def test_axis_bearing_run_is_serial_equals_parallel_cold_and_warm(self, tmp_path):
        axes = {"chaos": "churn", "strategies": {"freerider": 0.25},
                "content": "group:2/3"}
        runs = []
        for jobs in (1, 2):
            cache = ResultCache(str(tmp_path / str(jobs)))
            for _ in ("cold", "warm"):
                runs.append(Runner(jobs=jobs, cache=cache, **axes).run(
                    "figx_erasure", FAST_ERASURE))
        assert [r.stats.cache_hits for r in runs] == [0, 3, 0, 3]
        assert not runs[0].failures
        assert all(r.values == runs[0].values for r in runs)


class TestRunContext:
    def test_failed_activation_is_a_cell_failure_and_leaks_nothing(self, monkeypatch):
        # A raising activation is a cell failure like any other, and
        # nothing entered around it (audit, an earlier axis) stays behind.
        def refuse(value):
            raise RuntimeError("activation refused")

        monkeypatch.setitem(AXES, "doomed", Axis("doomed", lambda v: v, activate=refuse))
        run = Runner(audit=True, chaos="churn", doomed=1).run(
            "test-flaky", {"seeds": [1, 4, 5]})
        assert run.stats.failed == run.stats.total_cells == 3
        assert all("activation refused" in f.error for f in run.failures)
        assert context.active() == {}

    def test_scope_restores_the_previous_state_on_error(self):
        with pytest.raises(RuntimeError):
            with context.scope(chaos="outer"):
                with context.scope(chaos=None, audit={}) as reads:
                    assert context.get("chaos") is None
                    raise RuntimeError("cell died")
        assert reads == {"chaos"}
        assert context.active() == {}

    def test_an_axis_no_cell_read_is_said_out_loud(self, tmp_path):
        lines = []
        cache = ResultCache(str(tmp_path))
        Runner(cache=cache, chaos="blackout", progress=lines.append).run(
            "fig2a", FAST_FIG2A)
        assert "[fig2a] --chaos had no effect: no cell read it" in lines
        lines.clear()
        warm = Runner(cache=cache, chaos="blackout", progress=lines.append).run(
            "fig2a", FAST_FIG2A)
        assert warm.stats.executed == 0
        assert not any("no effect" in line for line in lines)

    def test_an_axis_a_cell_read_is_not_reported(self):
        lines = []
        Runner(chaos="blackout", backend="packet", progress=lines.append).run(
            "figx_chaos", {"runs": 1, "intensities": [1.0]})
        assert not any("no effect" in line for line in lines)

    def test_ambient_state_lives_only_in_the_run_context(self):
        """No ``global`` statement under ``src/repro`` but the run
        context's own and the per-process code-version memo."""
        root = pathlib.Path(SRC)
        offenders = [
            f"{path.relative_to(root)}:{number}"
            for path in sorted((root / "repro").rglob("*.py"))
            if path != root / "repro" / "context.py"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.match(r"\s*global\s+\w+(\s*,\s*\w+)*\s*$", line) and "_CODE_VERSION" not in line
        ]
        assert offenders == []
