"""Event primitives for the discrete-event simulation kernel.

The kernel is callback-based: an event couples a firing time with a
callable and the arguments bound at scheduling time.  Events are totally
ordered by ``(time, sequence)`` so that two events scheduled for the
same instant fire in scheduling order, which keeps runs deterministic.

:class:`EventQueue` is one binary heap of 4-tuples, which keeps every
comparison on the C fast path (``seq`` is unique, so a comparison never
reaches the third field).  An entry takes one of two shapes, and which
one is a property of the *caller* — does it ever cancel?

* ``(time, seq, handle, None)`` — a *handle* the caller may cancel: an
  :class:`Event` allocated by :meth:`EventQueue.push`, or a
  :class:`~repro.sim.timers.Timer` / ``PeriodicTask``, which is its own
  handle and is re-armed in place by :meth:`EventQueue.arm`.
* ``(time, seq, callback, args)`` — :meth:`EventQueue.post` is
  fire-and-forget: no handle exists, so the entry cannot be cancelled
  (link serialisation, propagation and core-delay hops — most of a
  packet run's pushes).  It consumes ``seq`` exactly as ``push`` does,
  so mixing the two never reorders anything.

Handles have one liveness rule: an entry is live iff its handle is armed
under that entry's ``seq`` (``handle._live == seq``; ``None`` while
disarmed — cancelled, or popped to fire).  Cancelling and re-arming
never touch the heap: the old entry stops matching and whoever pops the
heap discards it (the queue compacts in place when stale entries pile
up), keeping push O(log n) and cancellation O(1).  Until then a stale
entry pins its handle and what the handle's callback references.  The
queue counts one thing, the stale entries still in the heap; its length
is derived from that.

``docs/PERFORMANCE.md`` records the calendar queue that was measured
against the heap and removed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback the caller may cancel.

    Instances are created by :meth:`EventQueue.push`; user code receives
    them as handles and cancels them with ``Simulator.cancel(event)``,
    which goes through :meth:`EventQueue.cancel` — the one place that
    keeps the queue's accounting, which is why the handle has no cancel
    method of its own.  ``_live`` equals ``seq`` until the event is
    cancelled or popped to fire, so a spent handle is not :attr:`alive`
    and cancelling it is a no-op.
    """

    __slots__ = ("time", "seq", "callback", "args", "_live")

    @property
    def alive(self) -> bool:
        """True until the event fires or is cancelled."""
        return self._live is not None


#: ``Event.__new__`` cached for the queue push hot path: ``Event`` has no
#: ``__init__``, the queue builds events by direct attribute stores.
_new_event = Event.__new__


# One queue entry: ``(time, seq, handle, None)`` from push() / arm() or
# ``(time, seq, callback, args)`` from post().  ``seq`` is unique, so tuple
# comparison never falls through to the third field — every heap
# comparison is a C-level float/int compare.
_Entry = Tuple[float, int, Any, Optional[tuple]]


class EventQueue:
    """A cancellable priority queue over one binary heap."""

    __slots__ = ("_heap", "_seq", "_dead")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0  # pushes so far == the next entry's tie-break
        self._dead = 0  # cancelled entries still in the heap

    def push(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``; returns its handle."""
        seq = self._seq
        self._seq = seq + 1
        # Build the Event without an __init__ frame.
        event = _new_event(Event)
        event.time = time
        event.seq = event._live = seq
        event.callback = callback
        event.args = args
        heappush(self._heap, (time, seq, event, None))
        return event

    def arm(self, handle: Any, time: float) -> None:
        """Arm a disarmed handle (``time``, ``_live``, ``callback``,
        ``args``) at absolute ``time``: ``seq`` is consumed exactly as
        :meth:`push` consumes it, only the heap entry is allocated."""
        seq = handle._live = self._seq
        self._seq = seq + 1
        handle.time = time
        heappush(self._heap, (time, seq, handle, None))

    def post(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` at absolute ``time``, fire-and-forget.

        For callers that never cancel: the heap entry carries the
        callback itself, no :class:`Event` is allocated, and ``seq`` is
        consumed exactly as :meth:`push` consumes it.
        """
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, callback, args))

    def cancel(self, handle: Any) -> None:
        """Disarm a handle (idempotent, spent included): its heap entry
        goes stale and is counted dead until popped or compacted."""
        if handle._live is not None:
            handle._live = None
            dead = self._dead = self._dead + 1
            if dead > 512 and dead + dead > len(self._heap):
                self._compact()

    def _compact(self) -> None:
        """Drop stale entries and re-heapify (order preserving).

        In place: ``Simulator.run`` holds the list across callbacks.
        """
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[3] is not None or entry[2]._live == entry[1]
        ]
        heapify(heap)
        self._dead = 0

    def pop(self) -> Optional[Any]:
        """Remove and return the earliest live event, or None if empty."""
        return self.pop_due(None)

    def pop_due(self, until: Optional[float]) -> Optional[Any]:
        """Pop the earliest live event with ``time <= until`` (or any when
        ``until`` is None); returns None without popping it otherwise.

        A handle comes back spent (a late cancel is a no-op); a
        handle-free entry comes back as an :class:`Event` built here.
        """
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            time, seq, callback, args = heappop(heap)
            if args is None:  # a handle in the third field
                event = callback
                if event._live != seq:
                    self._dead -= 1
                    continue
            else:
                event = _new_event(Event)
                event.time = time
                event.seq = seq
                event.callback = callback
                event.args = args
            event._live = None
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, or None."""
        heap = self._heap
        while heap and heap[0][3] is None and heap[0][2]._live != heap[0][1]:
            heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap) - self._dead
