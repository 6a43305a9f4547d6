"""A file budget for the result store — a count, so it repeats exactly.

Filing a cell must not cost more than running it.  A fluid cell
integrates in a third of a millisecond; creating a file on a local
volume costs as much or more however the write is spelled, so the only
cache that is cheaper than its cells is one that creates *fewer files*
(docs/PERFORMANCE.md § Campaign cold path).  The parent of the PR that
introduced this test left 200 files in up to 200 directories behind the
grid below; the store now is one SQLite database plus its write-ahead
log and shared-memory index.  The same idea pins the warm path in
objects rather than seconds: a rerun opens the database once, not once
per cell.
"""

from __future__ import annotations

import os
import sqlite3

import cache_check

import repro.experiments  # noqa: F401  — registers the figure scenarios
from repro.runner import ResultCache, Runner

# 200 distinct grid points of the fluid figx_scale sweep (2 variants x 10
# sizes x 10 mobile fractions), one seed each: fluid seeds of one key
# share a single entry, so only distinct keys fill the store.
GRID_200 = {
    "runs": 1, "dt": 2.0,
    "swarm_sizes": [100 * i for i in range(1, 11)],
    "mobile_fractions": [i / 20 for i in range(1, 11)],
}

FILE_BUDGET = 3  # database, -wal, -shm


def run_grid(cache: ResultCache):
    return Runner(cache=cache, backend="fluid").run("figx_scale", GRID_200)


def test_cold_grid_stays_within_the_file_budget(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_grid(cache)
    assert cold.stats.executed == 200 and cold.stats.cache_put_errors == 0

    files, directories = [], []
    for _, dirnames, filenames in os.walk(tmp_path):
        directories += dirnames
        files += filenames
    assert directories == []
    assert len(files) <= FILE_BUDGET, sorted(files)
    assert len(cache) == 200

    # Committed, not buffered: another handle on the same root sees them
    # all while the writer is still open.
    other = ResultCache(tmp_path)
    assert len(other) == 200
    warm = run_grid(other)
    assert warm.stats.cache_hits == 200 and warm.values == cold.values


def test_warm_rerun_opens_the_database_once(tmp_path, monkeypatch):
    run_grid(ResultCache(tmp_path))

    opened = []
    real_connect = sqlite3.connect

    def counting_connect(*args, **kwargs):
        opened.append(args[0])
        return real_connect(*args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    warm = run_grid(ResultCache(tmp_path))
    assert warm.stats.cache_hits == 200 and warm.stats.executed == 0
    assert len(opened) == 1, opened


def test_cache_check_reads_the_artifact(tmp_path, capsys):
    assert cache_check.main([str(tmp_path / "absent")]) == 0
    assert not (tmp_path / "absent").exists()  # looking creates nothing

    run_grid(ResultCache(tmp_path))
    (tmp_path / "cells.sqlite3.corrupt-0").write_bytes(b"kept for inspection")
    assert cache_check.main([str(tmp_path), "--expect-entries", "200"]) == 0
    out = capsys.readouterr().out
    assert "200 entries" in out and "figx_scale: 200" in out
    assert "quarantined:" in out and "corrupt-0" in out
    assert cache_check.main([str(tmp_path), "--expect-entries", "199"]) == 1
