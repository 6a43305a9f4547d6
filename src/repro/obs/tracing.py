"""Structured event tracing: the cross-layer bus and its sinks.

Every simulator owns a :class:`TraceBus` (``sim.trace``).  Instrumented
code emits *structured events* — a layer, a name, and free-form fields —
instead of log lines::

    trace = self.sim.trace
    if trace.enabled:
        trace.event("tcp", "fast_retransmit", conn=label, cwnd=cwnd)

The ``enabled`` guard is the whole overhead story: a disabled bus costs
one attribute load and one boolean test per call site, so tracing can be
compiled into every hot path (TCP retransmissions, choker rounds, AM
filters) and still leave production runs unmeasurably slower.  Events
are plain dicts ``{"t": <sim time>, "layer": ..., "event": ..., **fields}``
delivered to pluggable sinks:

* :class:`RingBufferSink` — bounded in-memory capture for tests and
  interactive debugging;
* :class:`JSONLSink` — one JSON object per line, the interchange format
  :mod:`repro.analysis.runreport` and ``scripts/run_report.py`` consume;
* :class:`NullSink` — swallow events (keeps a bus "enabled" for
  overhead measurements without retaining anything).

Experiments construct their simulators internally, so sinks can also be
made *ambient*: :func:`capture` (or :func:`install`) puts default sinks
in the run context (:mod:`repro.context`), and every subsequently created
:class:`~repro.sim.kernel.Simulator` picks them up — that is how
``python -m repro.experiments run fig8a --trace run.jsonl`` traces a whole
figure reproduction without threading a sink through every call.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import context

Clock = Callable[[], float]
TraceRecord = Dict[str, object]


class TraceSink:
    """Base class for event consumers attached to a :class:`TraceBus`."""

    def write(self, record: TraceRecord) -> None:
        """Consume one event record (a plain dict)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; further writes are undefined."""


class NullSink(TraceSink):
    """Accepts and discards every event (for overhead measurement)."""

    def write(self, record: TraceRecord) -> None:
        pass


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self.total_written = 0

    def write(self, record: TraceRecord) -> None:
        self._records.append(record)
        self.total_written += 1

    @property
    def records(self) -> List[TraceRecord]:
        """The retained events, oldest first."""
        return list(self._records)

    def by_layer(self, layer: str) -> List[TraceRecord]:
        """Retained events from one layer."""
        return [r for r in self._records if r.get("layer") == layer]

    def matching(self, event: str) -> List[TraceRecord]:
        """Retained events with the given event name."""
        return [r for r in self._records if r.get("event") == event]

    def clear(self) -> None:
        """Drop all retained events (the total counter is kept)."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)


class JSONLSink(TraceSink):
    """Appends one JSON object per event to a file.

    The file is opened lazily on the first event and must be
    :meth:`close`\\ d (or the sink used via :func:`capture`) to guarantee
    a flush.  Records round-trip through :func:`read_jsonl`.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = None
        self.records_written = 0

    def write(self, record: TraceRecord) -> None:
        if self._file is None:
            self._file = open(self.path, "w", encoding="utf-8")
        self._file.write(json.dumps(record, default=str))
        self._file.write("\n")
        self.records_written += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def read_jsonl(path: str) -> List[TraceRecord]:
    """Load an event log written by :class:`JSONLSink`.

    Raises :class:`ValueError` naming the offending line number if the
    file contains a line that is not a JSON object.
    """
    records: List[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return records


def _noop_event(layer: str, name: str, **fields: object) -> None:
    """Stand-in for :meth:`TraceBus._emit` while no sink is attached."""
    return None


class TraceBus:
    """Per-simulator event bus: timestamping, layer filtering, fan-out.

    ``enabled`` is ``True`` exactly when at least one sink is attached;
    instrumented code checks it before building event fields so a bus
    with no consumers costs nothing beyond the check itself.

    ``event`` is a *precomputed no-op guard*: while the bus is disabled
    it is a module-level no-op function, swapped for the real
    :meth:`_emit` when the first sink attaches.  Unguarded call sites
    therefore never reach the enabled/layer checks at all — a disabled
    bus performs zero sink calls and zero record allocations (pinned by
    a regression test).  Hot paths should still prefer the
    ``if bus.enabled:`` guard so keyword arguments are never built.
    """

    __slots__ = (
        "enabled", "event", "events_emitted", "_clock", "_sinks", "_layers"
    )

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._sinks: List[TraceSink] = []
        self._layers: Optional[frozenset] = None
        self.enabled = False
        self.event = _noop_event
        self.events_emitted = 0

    # ------------------------------------------------------------------
    # Sink management
    # ------------------------------------------------------------------
    def attach(
        self, sink: TraceSink, layers: Optional[Sequence[str]] = None
    ) -> TraceSink:
        """Attach ``sink`` (and optionally restrict the bus to ``layers``).

        Layer restrictions are bus-wide: the union of all ``layers``
        arguments ever passed; ``layers=None`` means "everything" and
        clears any restriction.  Returns the sink for chaining.
        """
        self._sinks.append(sink)
        if layers is None:
            self._layers = None
        elif self._layers is not None or len(self._sinks) == 1:
            existing = self._layers or frozenset()
            self._layers = existing | frozenset(layers)
        self.enabled = True
        self.event = self._emit
        return sink

    def detach(self, sink: TraceSink) -> None:
        """Remove ``sink``; disables the bus when no sinks remain."""
        if sink in self._sinks:
            self._sinks.remove(sink)
        if not self._sinks:
            self.enabled = False
            self.event = _noop_event
            self._layers = None

    @property
    def sinks(self) -> List[TraceSink]:
        """The currently attached sinks."""
        return list(self._sinks)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(self, layer: str, name: str, **fields: object) -> None:
        """Emit one structured event to every attached sink.

        Bound to ``self.event`` while at least one sink is attached; a
        disabled bus routes ``event`` to a module-level no-op instead.
        """
        if not self.enabled:
            return
        if self._layers is not None and layer not in self._layers:
            return
        record: TraceRecord = {"t": self._clock(), "layer": layer, "event": name}
        record.update(fields)
        self.events_emitted += 1
        for sink in self._sinks:
            sink.write(record)


# ----------------------------------------------------------------------
# Ambient defaults: sinks every new Simulator picks up at construction,
# held in the run context as ``trace = (sinks, layers)``.
# ----------------------------------------------------------------------
def _with_defaults(
    sinks: Sequence[TraceSink], layers: Optional[Sequence[str]]
) -> Optional[Tuple[Tuple[TraceSink, ...], Optional[List[str]]]]:
    """The context's trace value with ``sinks`` added (``layers`` replace);
    ``None`` while there is no sink at all."""
    active = context.get("trace")
    combined = (active[0] if active is not None else ()) + tuple(sinks)  # type: ignore[index]
    if not combined:
        return None
    return combined, list(layers) if layers is not None else None


def install(*sinks: TraceSink, layers: Optional[Sequence[str]] = None) -> None:
    """Register ``sinks`` as defaults for every *new* simulator.

    Until :func:`uninstall`, or until the enclosing run-context scope
    ends; prefer :func:`capture`, which cannot outlive its block.
    Already-created simulators are unaffected.
    """
    context.update(trace=_with_defaults(sinks, layers))


def uninstall() -> None:
    """Clear all default sinks (attached buses keep theirs)."""
    context.update(trace=None)


def installed() -> bool:
    """True when at least one default sink is registered."""
    return context.get("trace") is not None


def apply_defaults(bus: TraceBus) -> None:
    """Attach the run context's default sinks to ``bus`` (kernel hook)."""
    active = context.get("trace")
    if active is not None:
        sinks, layers = active  # type: ignore[misc]
        for sink in sinks:
            bus.attach(sink, layers=layers)


@contextmanager
def capture(
    path: Optional[str] = None,
    ring: Optional[int] = None,
) -> Iterator[List[TraceSink]]:
    """Trace every simulator created inside the block.

    >>> with capture(path="run.jsonl") as sinks:     # doctest: +SKIP
    ...     Runner().run("fig8a", {"runs": 1})
    ...
    >>> events = read_jsonl("run.jsonl")             # doctest: +SKIP

    Yields the created sinks (a :class:`JSONLSink` when ``path`` is
    given, a :class:`RingBufferSink` when ``ring`` is); on exit the
    previous defaults are restored and file sinks closed.
    """
    sinks: List[TraceSink] = []
    if path is not None:
        sinks.append(JSONLSink(path))
    if ring is not None:
        sinks.append(RingBufferSink(ring))
    if not sinks:
        sinks.append(RingBufferSink())
    try:
        with context.scope(trace=_with_defaults(sinks, None)):
            yield sinks
    finally:
        for sink in sinks:
            sink.close()
