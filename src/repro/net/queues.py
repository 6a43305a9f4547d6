"""Drop-tail packet queues.

Every transmitting element (wired link direction, wireless channel end) owns
one.  Overflow drops are recorded with timestamps because the paper's
Figure 2(b, c) plots buffer-drop events against packets in flight.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from .packet import DropRecord, Packet


class DropTailQueue:
    """A FIFO packet queue bounded in packets."""

    __slots__ = (
        "name", "capacity_packets", "_queue", "_bytes",
        "drops", "enqueued", "dequeued", "bytes_enqueued", "bytes_dequeued",
        "cleared", "cleared_bytes",
    )

    def __init__(self, name: str, capacity_packets: int = 100) -> None:
        if capacity_packets <= 0:
            raise ValueError("capacity_packets must be positive")
        self.name = name
        self.capacity_packets = capacity_packets
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.drops: List[DropRecord] = []
        self.enqueued = 0
        self.dequeued = 0
        self.bytes_enqueued = 0
        self.bytes_dequeued = 0
        self.cleared = 0
        self.cleared_bytes = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Append ``packet``; returns False (and records a drop) on overflow."""
        size = packet.size_bytes
        if len(self._queue) >= self.capacity_packets:
            self.drops.append(DropRecord(now, self.name, "buffer_overflow", size))
            return False
        self._queue.append(packet)
        self._bytes += size
        self.enqueued += 1
        self.bytes_enqueued += size
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop the head packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        size = packet.size_bytes
        self._bytes -= size
        self.dequeued += 1
        self.bytes_dequeued += size
        return packet

    def clear(self) -> int:
        """Discard all queued packets (interface down); returns count."""
        count = len(self._queue)
        self.cleared += count
        self.cleared_bytes += self._bytes
        self._queue.clear()
        self._bytes = 0
        return count

    @property
    def depth_packets(self) -> int:
        return len(self._queue)

    @property
    def depth_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._queue)
