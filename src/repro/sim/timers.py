"""Restartable timers and periodic tasks built on the kernel.

TCP retransmission timers, BitTorrent choker rounds, tracker re-announces and
mobility schedules all need "restart / cancel / fire periodically" semantics;
these helpers encapsulate the event-handle bookkeeping so protocol code stays
readable.

Both classes are their own queue handle (:mod:`repro.sim.events`): arming
allocates nothing but the heap entry, and the run loop dispatches
``handle.callback(*handle.args)`` with the handle already disarmed.
Neither stores a bound method of itself; the one cycle left runs through
the owner whose method is the callback, and the owner breaks it at
teardown (``TCPConnection._finish``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .kernel import SimulationError, Simulator


class Timer:
    """A one-shot timer that can be (re)started and cancelled.

    ``callback`` is invoked with no arguments when the timer expires — by
    the run loop directly, the timer already disarmed.  Restarting an
    armed timer supersedes the previous deadline.  ``_live`` is the
    ``seq`` of that deadline's queue entry, ``None`` exactly while
    disarmed.
    """

    __slots__ = ("_sim", "callback", "time", "_live")

    args = ()

    def __init__(self, sim: Simulator, callback: Callable[[], Any]) -> None:
        self._sim = sim
        self.callback = callback
        self._live: Optional[int] = None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        sim = self._sim
        if self._live is not None:
            sim._queue.cancel(self)
        sim._queue.arm(self, sim._now + delay)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._live is not None:
            self._sim._queue.cancel(self)

    @property
    def armed(self) -> bool:
        return self._live is not None

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or None when disarmed."""
        return self.time if self._live is not None else None

    @property
    def _callback(self) -> Callable[[], Any]:
        """``callback`` under the name ``PeriodicTask`` keeps its own by."""
        return self.callback


class PeriodicTask:
    """Invoke a callback every ``interval`` seconds until stopped.

    The first invocation happens after ``first_delay`` (default: one full
    interval).  The callback may call :meth:`stop` to end the series.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_running", "time", "_live")

    args = ()

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._running = False
        self._live: Optional[int] = None

    def start(self, first_delay: Optional[float] = None) -> "PeriodicTask":
        """Begin ticking; returns self for chaining."""
        if self._running:
            return self
        delay = self._interval if first_delay is None else first_delay
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        self._running = True
        self._sim._queue.arm(self, self._sim._now + delay)
        return self

    def stop(self) -> None:
        """Stop ticking.  Safe to call from within the callback."""
        self._running = False
        self._sim._queue.cancel(self)

    @property
    def running(self) -> bool:
        return self._running

    @property
    def interval(self) -> float:
        return self._interval

    def callback(self) -> None:
        """One tick, dispatched by the run loop (a method looked up per
        tick: a stored bound method would make the task a cycle)."""
        self._callback()
        if self._running and self._live is None:  # not stopped, not restarted
            self._sim._queue.arm(self, self._sim._now + self._interval)
