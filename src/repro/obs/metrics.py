"""Metric primitives bound to a clock.

This module is the measurement half of the observability layer
(:mod:`repro.obs`).  Each instrument is owned by the component that
feeds it and read off that component:

* :class:`Counter` — monotonically increasing totals, optionally with a
  ``(time, total)`` history for cumulative curves (Figure 3(c), 8(b));
* :class:`WindowRateMeter` — the sliding-window byte-rate estimator real
  BitTorrent clients use for tit-for-tat ranking;
* :class:`TimeSeries` — append-only ``(time, value)`` samples.

All instruments are clock-agnostic: they take a ``clock`` callable
(usually ``lambda: sim.now``) instead of importing the simulation kernel,
so protocol code can own them without an import cycle and unit tests
can drive them with plain floats.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Tuple

from ..summation import left_sum

Clock = Callable[[], float]


def _zero_clock() -> float:
    return 0.0


class Counter:
    """A monotonically increasing counter with optional history.

    With ``record_history=True`` every :meth:`add` appends
    ``(time, total)``, which lets experiments reconstruct cumulative
    curves (e.g. Figure 3(c)'s downloaded size vs time) and
    :meth:`value_at` answer "how much by time t?" queries.
    """

    def __init__(
        self,
        name: str = "",
        clock: Optional[Clock] = None,
        record_history: bool = False,
    ) -> None:
        self.name = name
        self._clock = clock or _zero_clock
        self.total = 0.0
        self.history: List[Tuple[float, float]] = []
        self._record = record_history

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter by ``amount`` (default 1)."""
        self.total += amount
        if self._record:
            self.history.append((self._clock(), self.total))

    def value_at(self, time: float) -> float:
        """Cumulative value at ``time`` (requires history recording)."""
        if not self._record:
            raise ValueError(f"counter {self.name!r} does not record history")
        idx = bisect_right(self.history, (time, float("inf")))
        return self.history[idx - 1][1] if idx else 0.0

    def reset(self) -> None:
        """Zero the counter and clear its history."""
        self.total = 0.0
        self.history.clear()


class WindowRateMeter:
    """Sliding-window rate estimator (units/second).

    Mirrors the 20-second rolling average real BitTorrent clients use for
    tit-for-tat rate ranking; the window is configurable.  Young meters
    (observed for less than a full window) divide by the observed span so
    early readings are not artificially deflated.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        window: float = 20.0,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self._clock = clock or _zero_clock
        self.window = window
        self._samples: Deque[Tuple[float, float]] = deque()
        self._window_bytes = 0.0
        self.total_bytes = 0.0

    def add(self, nbytes: float) -> None:
        """Record ``nbytes`` transferred now."""
        now = self._clock()
        self._samples.append((now, nbytes))
        self._window_bytes += nbytes
        self.total_bytes += nbytes
        self._expire(now)

    def rate(self) -> float:
        """Current rate over the sliding window, in units/second."""
        now = self._clock()
        self._expire(now)
        if not self._samples:
            return 0.0
        span = max(now - self._samples[0][0], 1e-9)
        if span < self.window:
            return self._window_bytes / min(max(span, 1e-9), self.window)
        return self._window_bytes / self.window

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            _, nbytes = samples.popleft()
            self._window_bytes -= nbytes
        if not samples:
            self._window_bytes = 0.0


class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""


    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError("samples must be recorded in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def last(self) -> Optional[Tuple[float, float]]:
        """The newest ``(time, value)`` sample, or ``None`` when empty."""
        if not self.times:
            return None
        return self.times[-1], self.values[-1]

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= time < end`` as a new series."""
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        out = TimeSeries(self.name)
        out.times = self.times[lo:hi]
        out.values = self.values[lo:hi]
        return out

    def bucketed_counts(
        self, bucket: float, start: float = 0.0, end: Optional[float] = None
    ) -> List[Tuple[float, int]]:
        """Histogram of sample *counts* per time bucket.

        Used for "number of packets per interval" plots (Figure 2(b, c)).
        """
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        if end is None:
            end = self.times[-1] if self.times else start
        counts: List[Tuple[float, int]] = []
        t = start
        while t < end or (t == start and start == end):
            lo = bisect_left(self.times, t)
            hi = bisect_left(self.times, t + bucket)
            counts.append((t, hi - lo))
            t += bucket
            if t >= end:
                break
        return counts


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty iterable."""
    vals = list(values)
    return left_sum(vals) / len(vals) if vals else 0.0
