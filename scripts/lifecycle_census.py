#!/usr/bin/env python
"""Count what connection churn leaves behind for the cycle collector.

A closed connection must die by reference count
(docs/PERFORMANCE.md § Object lifecycle): whatever only the cycle
collector can free is paid for in collector passes over everything that
is still alive, and cProfile bills those pauses to whichever line
happened to allocate.  :func:`census` runs one packet cell twice and
reports both sides of that:

* collector **on** — automatic passes by generation and the seconds
  spent inside them (``gc.callbacks``), as a benchmark run pays them;
* collector **off** — the simulators the cell built stay referenced,
  then one ``gc.collect()`` counts the unreachable objects and their
  types.  A count, so it repeats exactly.

``tests/test_lifecycle_budget.py`` pins the count for the CDN churn
cell through the same function; the CI ``perf-smoke`` job runs
``--check`` (counts only, no timing thresholds).

Usage::

    PYTHONPATH=src python scripts/lifecycle_census.py
    PYTHONPATH=src python scripts/lifecycle_census.py --check
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import pathlib
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List

from repro.bittorrent.peer import PeerConnection
from repro.sim import Simulator
from repro.tcp.connection import TCPConnection

#: Unreachable objects one cell may leave (scenario-level cycles that
#: die with a stopped client, not with each connection).
BUDGET = 200


def _packet_golden():
    """The sibling script that defines the pinned packet cells."""
    path = pathlib.Path(__file__).resolve().parent / "packet_golden.py"
    spec = importlib.util.spec_from_file_location("packet_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cells() -> Dict[str, Callable[[], object]]:
    """One churn cell of each packet shape, as ``packet_golden`` pins them."""
    golden = _packet_golden().cases()
    return {
        name: golden[name]
        for name in (
            "swarm_quick_default", "swarm_restart_churn",
            "cdn_churn_default", "hybrid_cell",
        )
    }


def _counting(cls: type, built: Counter) -> Callable[[], None]:
    """Count ``cls`` constructions in ``built``; returns the undo."""
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built[cls.__name__] += 1
        init(self, *args, **kwargs)

    cls.__init__ = counting_init
    return lambda: setattr(cls, "__init__", init)


def census(cell: Callable[[], object]) -> Dict[str, object]:
    """Run ``cell`` with the collector on, then off; see the module text."""
    passes = [0, 0, 0]
    seconds = 0.0
    started = 0.0

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        nonlocal seconds, started
        if phase == "start":
            started = perf_counter()
        else:
            passes[info["generation"]] += 1
            seconds += perf_counter() - started

    was_enabled = gc.isenabled()
    gc.collect()
    gc.enable()
    gc.callbacks.append(on_gc)
    try:
        cell()
    finally:
        gc.callbacks.remove(on_gc)

    sims: List[Simulator] = []
    built: Counter = Counter()
    sim_init = Simulator.__init__

    def recording_init(self, *args, **kwargs):
        sim_init(self, *args, **kwargs)
        sims.append(self)

    undo = [_counting(TCPConnection, built), _counting(PeerConnection, built)]
    Simulator.__init__ = recording_init
    gc.collect()
    gc.disable()
    try:
        cell()
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        types = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        Simulator.__init__ = sim_init
        for restore in undo:
            restore()
        if was_enabled:
            gc.enable()
    return {
        "events": sum(sim.events_processed for sim in sims),
        "tcp_connections": built["TCPConnection"],
        "peer_connections": built["PeerConnection"],
        "gc_passes": passes,
        "gc_seconds": seconds,
        "unreachable": unreachable,
        "unreachable_types": types.most_common(12),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="connection lifecycle census")
    parser.add_argument("--check", action="store_true",
                        help=f"fail if any cell leaves > {BUDGET} unreachable objects")
    args = parser.parse_args(argv)
    print(f"{'cell':<22}{'events':>9}{'tcp':>7}{'peer':>7}"
          f"{'gc passes':>14}{'gc s':>8}{'unreachable':>13}")
    over = []
    for name, cell in cells().items():
        row = census(cell)
        print(f"{name:<22}{row['events']:>9}{row['tcp_connections']:>7}"
              f"{row['peer_connections']:>7}"
              f"{'/'.join(map(str, row['gc_passes'])):>14}"
              f"{row['gc_seconds']:>8.3f}{row['unreachable']:>13}")
        if row["unreachable"] > BUDGET:
            over.append(name)
            print(f"  {row['unreachable_types']}", file=sys.stderr)
    if args.check and over:
        print(f"FAIL over budget ({BUDGET}): {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
