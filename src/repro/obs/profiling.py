"""Lightweight kernel profiling: where does the wall clock go?

The ROADMAP's north star is hardware-speed simulation, and perf work is
guesswork without a cheap answer to three questions:

* how many events does the kernel process per wall-clock second?
* how much wall time does one simulated second cost?
* which event handlers dominate?

:class:`KernelProfiler` answers all three.  It is armed per simulator via
:meth:`~repro.sim.kernel.Simulator.enable_profiling`; while armed, the
kernel times every callback dispatch and feeds it here.  Unarmed (the
default, and with no auditor attached) the kernel's one dispatch loop
pays a single boolean test per event.

>>> sim = Simulator()                      # doctest: +SKIP
>>> prof = sim.enable_profiling()          # doctest: +SKIP
>>> sim.run(until=60.0)                    # doctest: +SKIP
>>> print(prof.format_report())            # doctest: +SKIP
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple


def _callback_label(callback: Callable) -> str:
    """A stable, aggregatable name for an event callback.

    Bound methods aggregate per class (``TCPConnection._on_rto``), plain
    functions per qualified name — instance identity would fragment the
    table into one row per object.
    """
    self_obj = getattr(callback, "__self__", None)
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        return repr(callback)
    if self_obj is not None:
        return f"{type(self_obj).__name__}.{callback.__name__}"
    return qualname


class HandlerStats:
    """Aggregated cost of one handler label."""

    __slots__ = ("label", "calls", "total_s", "max_s")

    def __init__(self, label: str) -> None:
        self.label = label
        self.calls = 0
        self.total_s = 0.0
        self.max_s = 0.0

    @property
    def mean_s(self) -> float:
        """Mean wall-clock seconds per call."""
        return self.total_s / self.calls if self.calls else 0.0


class KernelProfiler:
    """Collects per-event timing from an armed simulation kernel.

    The kernel calls :meth:`record` once per dispatched event and
    :meth:`note_run` once per :meth:`~repro.sim.kernel.Simulator.run`
    call; everything else is derived at report time.
    """

    def __init__(self) -> None:
        self.events = 0
        self.busy_s = 0.0  # wall time inside event callbacks
        self.run_wall_s = 0.0  # wall time inside run() overall
        self.sim_seconds = 0.0  # simulated time covered by profiled runs
        self.runs = 0
        self._handlers: Dict[str, HandlerStats] = {}

    # ------------------------------------------------------------------
    # Kernel-facing hooks
    # ------------------------------------------------------------------
    def record(self, callback: Callable, elapsed_s: float) -> None:
        """One event dispatched: ``callback`` ran for ``elapsed_s``."""
        self.events += 1
        self.busy_s += elapsed_s
        label = _callback_label(callback)
        stats = self._handlers.get(label)
        if stats is None:
            stats = HandlerStats(label)
            self._handlers[label] = stats
        stats.calls += 1
        stats.total_s += elapsed_s
        if elapsed_s > stats.max_s:
            stats.max_s = elapsed_s

    def note_run(self, sim_elapsed: float, wall_elapsed: float) -> None:
        """One ``run()`` finished, covering ``sim_elapsed`` sim-seconds."""
        self.runs += 1
        self.sim_seconds += max(0.0, sim_elapsed)
        self.run_wall_s += max(0.0, wall_elapsed)

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    @property
    def events_per_second(self) -> float:
        """Events dispatched per wall-clock second spent in ``run()``."""
        return self.events / self.run_wall_s if self.run_wall_s > 0 else 0.0

    @property
    def wall_per_sim_second(self) -> float:
        """Wall-clock seconds needed per simulated second (lower = faster)."""
        return self.run_wall_s / self.sim_seconds if self.sim_seconds > 0 else 0.0

    def top_handlers(self) -> List[HandlerStats]:
        """The ten costliest handler labels by total wall time."""
        ranked = sorted(
            self._handlers.values(), key=lambda h: h.total_s, reverse=True
        )
        return ranked[:10]

    def snapshot(self) -> Dict[str, float]:
        """JSON-friendly headline numbers."""
        return {
            "events": self.events,
            "runs": self.runs,
            "run_wall_s": self.run_wall_s,
            "busy_s": self.busy_s,
            "sim_seconds": self.sim_seconds,
            "events_per_second": self.events_per_second,
            "wall_per_sim_second": self.wall_per_sim_second,
        }

    def format_report(self) -> str:
        """A plain-text profile summary with the top-handler table."""
        lines = [
            "== kernel profile ==",
            f"events processed : {self.events}",
            f"wall in run()    : {self.run_wall_s:.3f}s "
            f"({self.busy_s:.3f}s inside handlers)",
            f"events/sec       : {self.events_per_second:,.0f}",
            f"wall per sim-sec : {self.wall_per_sim_second * 1000:.3f} ms",
            "",
            f"{'handler':<44} {'calls':>8} {'total ms':>10} {'mean us':>9}",
        ]
        for stats in self.top_handlers():
            lines.append(
                f"{stats.label:<44} {stats.calls:>8} "
                f"{stats.total_s * 1000:>10.2f} {stats.mean_s * 1e6:>9.1f}"
            )
        return "\n".join(lines)
