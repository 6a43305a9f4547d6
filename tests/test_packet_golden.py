"""Packet-tier results, event counts and push counts are pinned by value.

The numbers in ``tests/data/packet_golden.json`` were recorded at the
commit *before* the packet hot path was flattened (handle-free pushes,
the run loop popping the heap itself, straight-through link hops); this
is the same check ``scripts/packet_golden.py --check`` and the CI
``audit`` job run.
"""

from __future__ import annotations

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "packet_golden.py"


def test_packet_results_events_and_pushes_match_the_recorded_values():
    spec = importlib.util.spec_from_file_location("packet_golden", SCRIPT)
    packet_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(packet_golden)
    assert packet_golden.check() == []
