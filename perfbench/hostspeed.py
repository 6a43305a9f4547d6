"""Host-speed reference: a frozen kernel timed between measured ops.

The sandbox this benchmark runs in slows a single-threaded Python
process by 1.1x to 2x for seconds to minutes at a time (README.md
§ Noise has the measurements: 23% quartile spread on an identical 2 s
simulation repeated back to back, 25% between runs of this harness).
Repetition inside one 20 s run cannot average out a slow minute, so
every host time the harness reports is divided by how much slower than
nominal this kernel ran *right around* the measured op.

The kernel is shaped like the simulator's hot loop (a heap of small
slotted objects, a method call, a dict update) over a working set of a
few MB, because a cache-resident loop reacted to contention differently
from the simulator and tracked it worse.  It imports nothing from
``repro``, so no change to the program can move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Seconds one :meth:`HostSpeed.spin` takes on the recording machine
#: when nothing else contends for the core (its floor over ~500 spins).
#: Normalised times read as "seconds on that machine, quiet"; only
#: ratios between commits matter.
NOMINAL_SPIN_S = 0.0750

SPIN_STEPS = 30_000
NODES = 120_000
TABLE_KEYS = 60_000
HEAP_SIZE = 4096


class _Node:
    __slots__ = ("time", "key")

    def __init__(self, time: float, key: int) -> None:
        self.time = time
        self.key = key

    def __lt__(self, other: "_Node") -> bool:
        return self.time < other.time


class HostSpeed:
    """The reference kernel and its working set; build one per process."""

    def __init__(self) -> None:
        self._nodes = [_Node(i * 0.01, i) for i in range(NODES)]
        self._table = {(i * 7919) % 1_000_003: i for i in range(TABLE_KEYS)}
        self._keys = list(self._table)
        self._heap = [_Node(i * 0.01, i) for i in range(HEAP_SIZE)]
        heapq.heapify(self._heap)
        self._state = 12345

    @staticmethod
    def _touch(node: _Node, value: int) -> int:
        node.time += 1e-4
        return node.key ^ value

    def spin(self) -> float:
        """Run the kernel once; return its wall seconds."""
        started = perf_counter()
        nodes, table, keys, heap = self._nodes, self._table, self._keys, self._heap
        touch = self._touch
        state, acc = self._state, 0
        for _ in range(SPIN_STEPS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            acc ^= touch(nodes[state % NODES], state)
            key = keys[(state >> 7) % TABLE_KEYS]
            table[key] += 1
            top = heapq.heappop(heap)
            top.time += (state % 997) * 1e-4
            heapq.heappush(heap, top)
        self._state = state
        return perf_counter() - started


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the host ran between two spins."""
    return (before + after) / (2.0 * NOMINAL_SPIN_S)
