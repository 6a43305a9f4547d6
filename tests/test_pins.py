"""Every value pin of the repository, through ``scripts/pins.py``.

One check per tier against ``tests/data/pins/`` (the ``perfbench`` tier
takes ~35 s and runs in CI's perf-smoke job), the packet tier once more
under two hash seeds, and the store's rules on a two-row fake tier.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import pins

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("tier", ["packet", "fluid", "grammar", "axes"])
def test_tier_matches_its_pins(tier):
    assert pins.main(["check", tier]) == 0


def test_packet_rows_do_not_depend_on_the_hash_seed():
    """Tier-1 runs under one random hash seed; here two fixed ones."""
    rows = ["packet/swarm_restart_churn", "packet/cdn_churn_default",
            "packet/chaos_mixed_wp2p"]
    runs = [
        subprocess.Popen(
            [sys.executable, pins.__file__, "check", *rows], stdout=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
    ]
    assert [run.wait() for run in runs] == [0, 0]


# ----------------------------------------------------------------------
# The rules, on a fake tier: no simulation
# ----------------------------------------------------------------------
PINNED = {"a": 1, "b": {"x": [1, 2]}}


@pytest.fixture
def fake(tmp_path, monkeypatch):
    """The values a two-row tier computes (the test edits them), pinned
    under ``tmp_path``; MOVED.md lives there too."""
    values = dict(PINNED)
    monkeypatch.setattr(pins, "PINS", tmp_path)
    monkeypatch.setattr(pins, "MOVED", tmp_path / "MOVED.md")
    monkeypatch.setattr(pins, "TIERS", {
        "fake": lambda pinned: {name: lambda name=name: values[name] for name in values},
    })
    assert pins.main(["record"]) == 0
    return values


def _bytes(tmp_path) -> tuple:
    moved = tmp_path / "MOVED.md"
    return (tmp_path / "fake.json").read_bytes(), moved.exists() and moved.read_bytes()


def test_record_appends_only_missing_rows(fake, tmp_path):
    assert pins.load("fake") == PINNED
    fake["c"] = 3
    assert pins.main(["check", "fake/a"]) == 0
    assert pins.main(["check"]) == 1
    assert pins.main(["record", "fake"]) == 0
    assert pins.load("fake") == dict(PINNED, c=3)
    assert pins.main(["check"]) == 0


def test_record_writes_nothing_when_a_row_drifted(fake, tmp_path):
    fake["a"] = 2
    fake["c"] = 3
    before = _bytes(tmp_path)
    assert pins.main(["record"]) == 1
    assert _bytes(tmp_path) == before
    assert pins.main(["check", "fake/b"]) == 0
    assert pins.main(["check", "fake/a"]) == 1


def test_accept_without_a_cause_writes_nothing(fake, tmp_path):
    fake["a"] = 2
    before = _bytes(tmp_path)
    with pytest.raises(SystemExit):
        pins.main(["accept", "fake/a"])
    with pytest.raises(SystemExit, match="cause"):
        pins.main(["accept", "--cause", " ", "fake/a"])
    assert _bytes(tmp_path) == before


def test_accept_of_an_undrifted_row_writes_nothing(fake, tmp_path):
    fake["a"] = 2
    before = _bytes(tmp_path)
    with pytest.raises(SystemExit, match="b did not drift"):
        pins.main(["accept", "--cause", "why", "fake/a", "fake/b"])
    assert _bytes(tmp_path) == before


def test_accept_rewrites_exactly_the_named_rows(fake, tmp_path):
    fake["a"] = 2
    fake["b"] = {"x": [3]}
    assert pins.main(["accept", "--cause", "the fix", "fake/a"]) == 0
    assert json.loads((tmp_path / "fake.json").read_text()) == {
        "rows": {"a": 2, "b": PINNED["b"]},
    }
    line, = (tmp_path / "MOVED.md").read_text(encoding="utf-8").splitlines()
    assert line.startswith("- `fake/a` @ ")
    assert line.endswith(": 1 → 2. Cause: the fix")
    assert pins.main(["check", "fake/b"]) == 1
