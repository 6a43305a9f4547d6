"""Packet-tier results, event counts and push counts are pinned by value.

The numbers in ``tests/data/packet_golden.json`` were recorded at the
commit *before* the packet hot path was flattened (handle-free pushes,
the run loop popping the heap itself, straight-through link hops); this
is the same check ``scripts/packet_golden.py --check`` and the CI
``audit`` job run.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "packet_golden.py"

#: Two of the quickest pinned cases.
SUBSET = ("fig2_downlink_only_clean", "traced_fig8a")


def _load():
    spec = importlib.util.spec_from_file_location("packet_golden", SCRIPT)
    packet_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(packet_golden)
    return packet_golden


def _write(path: pathlib.Path, cases: dict) -> None:
    path.write_text(json.dumps({"cases": cases}, indent=2, sort_keys=True) + "\n")


def test_packet_results_events_and_pushes_match_the_recorded_values():
    assert _load().check() == []


def test_record_appends_missing_cases_and_never_reblesses_drift(tmp_path, monkeypatch):
    """``--record`` on a two-case copy: a tampered entry leaves the file
    byte-identical with exit 1; a missing case is appended."""
    packet_golden = _load()
    pinned = json.loads(packet_golden.GOLDEN_PATH.read_text())["cases"]
    every = packet_golden.cases()
    monkeypatch.setattr(packet_golden, "cases", lambda: {n: every[n] for n in SUBSET})
    path = tmp_path / "packet_golden.json"
    monkeypatch.setattr(packet_golden, "GOLDEN_PATH", path)
    first, second = SUBSET

    _write(path, {first: dict(pinned[first], events=pinned[first]["events"] + 1),
                  second: pinned[second]})
    before = path.read_bytes()
    assert packet_golden.main(["--record"]) == 1
    assert path.read_bytes() == before

    _write(path, {first: pinned[first]})
    assert packet_golden.main(["--record"]) == 0
    assert json.loads(path.read_text())["cases"] == {n: pinned[n] for n in SUBSET}
