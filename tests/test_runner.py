"""Tests for the scenario registry and the parallel, cache-aware runner."""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys

import pytest

import repro.experiments  # noqa: F401  — registers the figure scenarios
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.runner import (
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
    run_scenario,
    scenario,
    scenario_names,
)
from repro.runner import runner as runner_module
from repro.runner.cache import DB_NAME
from repro.runner.spec import cell_digest

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
GRID_400 = {"runs": 20, "dt": 2.0}
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

    def test_wrapper_matches_runner(self):
        direct = run_scenario(
            "fig2a", {"runs": 2, "duration": 2.0, "bers": [0.0, 1e-5]}
        )
        via_runner = Runner(jobs=2).run("fig2a", FAST_FIG2A).result
        assert [s.y for s in direct.series] == [s.y for s in via_runner.series]

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

        metrics = MetricsRegistry()
        damaged = Runner(cache=cache, metrics=metrics).run("fig2a", FAST_FIG2A)
        assert damaged.stats.cache_corrupt == 1
        assert damaged.stats.executed == 1
        assert damaged.stats.cache_hits == 7
        assert "1 corrupt cache entries" in damaged.stats.summary()
        assert metrics.snapshot()["runner.cache_corrupt"]["total"] == 1
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
        metrics = MetricsRegistry()
        lines = []
        run = Runner(cache=cache, metrics=metrics, progress=lines.append).run(
            "fig2a", FAST_FIG2A
        )
        assert run.values == Runner().run("fig2a", FAST_FIG2A).values
        assert run.stats.executed == 8 and not run.failures
        assert run.stats.cache_put_errors == 8
        assert "8 cache put errors" in run.stats.summary()
        assert metrics.snapshot()["runner.cache_put_errors"]["total"] == 8
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
        assert set(meta) == {"scenario", "backend", "seed", "key", "seconds", "attempts"}
        assert (meta["scenario"], meta["backend"], meta["attempts"]) == ("fig2a", "packet", 1)

    def test_no_cache_runner_never_touches_disk(self, tmp_path):
        Runner(cache=None).run("fig2a", FAST_FIG2A)
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Failure capture and degradation
# ----------------------------------------------------------------------
@scenario
class FlakyScenario(Scenario):
    """Seed 2 always dies; seed 3 fails once then succeeds."""

    name = "test-flaky"
    description = "test scenario: deterministic failures"
    defaults = {"seeds": [1, 2, 3]}

    def cells(self, p):
        for seed in p["seeds"]:
            yield ("v",), seed

    def run_cell(self, key, seed, p):
        if seed == 2:
            raise RuntimeError("seed 2 always dies")
        if seed == 3 and not getattr(self, "_seed3_failed", False):
            self._seed3_failed = True
            raise RuntimeError("seed 3 dies once")
        return seed * 10

    def assemble(self, p, values, failures):
        return {"values": collect(values, ("v",)), "failed": len(failures)}


class TestFailures:
    def test_dead_seed_is_reported_not_fatal(self):
        metrics = MetricsRegistry()
        run = Runner(metrics=metrics).run("test-flaky")
        # seed 2 failed (after a retry), seeds 1 and 3 survived
        assert run.result == {"values": [10, 30], "failed": 1}
        assert [f.seed for f in run.failures] == [2]
        failure = run.failures[0]
        assert failure.attempts == 2
        assert "seed 2 always dies" in failure.error
        assert "seed 2 always dies" in failure.summary()
        # stats: retries counted for both the dead and the flaky seed
        assert run.stats.failed == 1
        assert run.stats.retries == 2
        assert run.stats.executed == 3
        assert metrics.counter("runner.failures").total == 1

    def test_zero_retries_fails_immediately(self):
        run = Runner(retries=0).run("test-flaky", {"seeds": [2]})
        assert run.failures[0].attempts == 1

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        Runner(cache=cache).run("test-flaky", {"seeds": [1, 2]})
        assert len(cache) == 1  # only seed 1's value landed on disk

    def test_invalid_runner_args_rejected(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)
        with pytest.raises(ValueError):
            Runner(retries=-1)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_runner_metrics_and_progress(self):
        metrics = MetricsRegistry()
        lines = []
        run = Runner(metrics=metrics, progress=lines.append).run(
            "fig2a", FAST_FIG2A
        )
        assert metrics.counter("runner.cells").total == 8
        assert metrics.counter("runner.executed").total == 8
        assert metrics.counter("runner.cache_hits").total == 0
        assert metrics.histogram("runner.cell_seconds").snapshot()["count"] == 8
        assert len(run.stats.cell_seconds) == 8
        assert sum(1 for line in lines if "/8 cells" in line) == 8
        assert "8 cells: 8 executed" in run.stats.summary()

    def test_run_scenario_front_door(self):
        result = run_scenario("fig2bc", {"duration": 5.0})
        assert result.figure == "Figure 2(b, c)"
