"""Event primitives for the discrete-event simulation kernel.

The kernel is callback-based: an :class:`Event` couples a firing time with a
zero-argument callable (arguments are bound at scheduling time).  Events are
totally ordered by ``(time, sequence)`` so that two events scheduled for the
same instant fire in scheduling order, which keeps runs deterministic.

:class:`EventQueue` is one binary heap of ``(time, seq, event)`` tuples,
which keeps every comparison on the C fast path (``seq`` is unique, so a
comparison never reaches the event).  ``docs/PERFORMANCE.md`` records the
calendar queue that was measured against it and removed.

Cancellation is lazy: cancelling marks the event dead and the queue
discards it when it reaches the heap head (compacting when dead entries
pile up), keeping push O(log n) and cancellation O(1).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Instances are created by the kernel; user code receives them as handles
    that can be cancelled via :meth:`cancel` or :meth:`Simulator.cancel`.
    ``cancelled`` is also set when the queue pops the event to fire it,
    so a spent handle is not :attr:`alive` and cancelling it is a no-op.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def cancel(self) -> None:
        """Mark the event so it will not fire.

        Safe to call multiple times and after the event has fired (a no-op
        in that case).
        """
        self.cancelled = True
        # Drop references so cancelled events pinned in the queue do not keep
        # large object graphs (packets, connections) alive.
        self.callback = _noop
        self.args = ()

    @property
    def alive(self) -> bool:
        """True until the event fires or is cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled or fired" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None


#: ``Event.__new__`` cached for the queue push hot path: ``Event`` has no
#: ``__init__``, the queue builds events by direct attribute stores.
_new_event = Event.__new__


# One queue entry: ``(time, seq, event)``.  ``seq`` is unique, so tuple
# comparison never falls through to the event itself — every heap
# comparison is a C-level float/int compare.
_Entry = Tuple[float, int, Event]


class EventQueue:
    """A cancellable priority queue over one binary heap."""

    __slots__ = ("_heap", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._live = 0
        self._dead = 0

    def push(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        seq = self._seq
        self._seq = seq + 1
        # Build the Event without an __init__ frame (push runs ~1M times
        # per packet-level figure; attribute stores are all it does).
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (idempotent)."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1
            dead = self._dead = self._dead + 1
            if dead > 512 and dead > self._live:
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (order preserving)."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(self._heap)
        self._dead = 0

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[2]
            if not event.cancelled:
                self._live -= 1
                event.cancelled = True  # spent: a late cancel is a no-op
                return event
            self._dead -= 1
        return None

    def pop_due(self, until: Optional[float]) -> Optional[Event]:
        """Pop the earliest live event with ``time <= until`` (or any when
        ``until`` is None); returns None without popping otherwise."""
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            if until is not None and head[0] > until:
                return None
            heappop(heap)
            self._live -= 1
            event.cancelled = True  # spent: a late cancel is a no-op
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
