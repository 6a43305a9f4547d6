"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock, the event queue, and the named
random streams for a run.  Components never read wall-clock time or the
global ``random`` module; they hold a reference to their simulator and use
``sim.now``, ``sim.schedule`` and ``sim.rng``.
"""

from __future__ import annotations

from heapq import heappop
from time import perf_counter
from typing import Any, Callable, Optional

from ..audit import apply_defaults as _audit_defaults
from ..obs import tracing as _tracing
from ..obs.metrics import MetricsRegistry
from ..obs.profiling import KernelProfiler
from .events import Event, EventQueue
from .randomness import RngRegistry


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


class Simulator:
    """A single simulation run: clock + event queue + random streams.

    Observability hangs directly off the kernel so every component that
    holds a simulator reference can reach it: ``sim.trace`` is the
    structured event bus (:class:`~repro.obs.tracing.TraceBus`, disabled
    until a sink is attached — globally installed default sinks are
    picked up here at construction), ``sim.metrics`` is the run's
    :class:`~repro.obs.metrics.MetricsRegistry` sharing the virtual
    clock, and :meth:`enable_profiling` arms per-event kernel timing.

    Parameters
    ----------
    seed:
        Master seed for all named random streams (see
        :class:`~repro.sim.randomness.RngRegistry`).
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue = EventQueue()
        # Bound-method cache: schedule()/call_soon() run ~1M times per
        # packet-level figure, so skip the two attribute loads per call.
        self._push = self._queue.push
        # The handle-free push (absolute time, like _push) for components
        # that never cancel: links, the wireless cell, the core.
        self._post = self._queue.post
        self._now = 0.0
        self.rng = RngRegistry(seed)
        self._running = False
        self._stopped = False
        self.events_processed = 0
        self.trace = _tracing.TraceBus(clock=lambda: self._now)
        _tracing.apply_defaults(self.trace)
        self.metrics = MetricsRegistry(clock=lambda: self._now)
        self._profiler: Optional[KernelProfiler] = None
        # Invariant auditing (repro.audit): None unless an Auditor is
        # attached — components and the event loop pay one `is None`
        # test when off.  Globally installed audit defaults attach here.
        self.audit = None
        _audit_defaults(self)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self._push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, current time is {self._now!r}"
            )
        return self._push(time, callback, args)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at the current instant.

        It fires after all already-queued events for this instant; useful for
        breaking re-entrancy (e.g. delivering application callbacks outside a
        packet-processing call chain).
        """
        return self._push(self._now, callback, args)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a scheduled event (the handle has no cancel method of
        its own).  ``None`` and spent events are no-ops."""
        if event is not None:
            self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or stop().

        Returns the simulated time at which the run stopped.  If ``until``
        is given, the clock is advanced to exactly ``until`` even when the
        queue drains early, so back-to-back ``run`` calls compose (an
        event not yet due stays queued under its ``(time, seq)`` key).
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        processed = 0
        profiler = self._profiler
        auditor = self.audit
        trace = self.trace
        if trace.enabled:
            trace.event(
                "sim", "run_begin", until=until, pending=len(self._queue)
            )
        run_started_wall = perf_counter() if profiler is not None else 0.0
        run_started_sim = self._now
        queue = self._queue
        try:
            if auditor is None and profiler is None and max_events is None:
                # Fast path: the common unobserved bulk run pops the heap
                # itself — no queue call, no per-event feature checks.
                # Callbacks push into, and cancel() compacts, this list.
                heap = queue._heap
                horizon = float("inf") if until is None else until
                while heap and heap[0][0] <= horizon:
                    time, seq, callback, args = heappop(heap)
                    if args is None:  # a handle in the third field
                        handle = callback
                        if handle._live != seq:  # stale: cancelled or re-armed
                            queue._dead -= 1
                            continue
                        handle._live = None  # spent: a late cancel is a no-op
                        callback = handle.callback
                        args = handle.args
                    self._now = time
                    callback(*args)
                    processed += 1
                    if self._stopped:
                        break
            else:
                pop_due = queue.pop_due
                while True:
                    event = pop_due(until)
                    if event is None:
                        break
                    if auditor is not None:
                        auditor.before_event(event.time)
                    self._now = event.time
                    if profiler is not None:
                        started = perf_counter()
                        event.callback(*event.args)
                        profiler.record(event.callback, perf_counter() - started)
                    else:
                        event.callback(*event.args)
                    processed += 1
                    if self._stopped:
                        break
                    if max_events is not None and processed >= max_events:
                        break
        finally:
            self._running = False
            self.events_processed += processed
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        if auditor is not None:
            auditor.on_run_end()
        if profiler is not None:
            profiler.note_run(
                self._now - run_started_sim,
                perf_counter() - run_started_wall,
            )
        if trace.enabled:
            trace.event(
                "sim",
                "run_end",
                processed=processed,
                now=self._now,
                stopped=self._stopped,
            )
        return self._now

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True
        if self.trace.enabled:
            self.trace.event("sim", "stop")

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def enable_profiling(self) -> KernelProfiler:
        """Arm per-event kernel timing; returns the (reused) profiler.

        While armed, every event dispatch is wall-clock timed and
        aggregated per handler (see
        :class:`~repro.obs.profiling.KernelProfiler`).  Unarmed runs pay
        only an ``is None`` check per event.
        """
        if self._profiler is None:
            self._profiler = KernelProfiler()
        return self._profiler

    def disable_profiling(self) -> None:
        """Disarm profiling (collected statistics are discarded)."""
        self._profiler = None

    @property
    def profiler(self) -> Optional[KernelProfiler]:
        """The armed profiler, or ``None``."""
        return self._profiler
