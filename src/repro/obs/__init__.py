"""Unified observability: metrics, structured tracing, and profiling.

This package is the single instrumentation spine of the library.  Three
concerns, one home:

* **Metrics** (:mod:`repro.obs.metrics`) — counters, gauges, histograms,
  and rate meters behind a get-or-create :class:`MetricsRegistry`.  The
  legacy probes in :mod:`repro.sim.probes` are thin compatibility shims
  over these classes.
* **Tracing** (:mod:`repro.obs.tracing`) — a structured cross-layer
  event bus (``sim.trace.event(layer, name, **fields)``) with pluggable
  sinks (ring buffer, JSONL file, null).  Wired into the sim kernel, TCP
  congestion/retransmit paths, the BitTorrent choker and piece manager,
  and all three wP2P components, so one JSONL log correlates, e.g., a
  burst of TCP timeouts with the choke round and AM state flip around it.
* **Profiling** (:mod:`repro.obs.profiling`) — per-event kernel timing:
  events/second, wall-clock per sim-second, top handler costs.

Everything is off by default and costs a boolean check when off.  Typical
use::

    from repro.obs import tracing
    from repro.runner import run_scenario

    with tracing.capture(path="fig8a.jsonl"):
        run_scenario("fig8a", {"runs": 1})

then render the log with ``python scripts/run_report.py fig8a.jsonl``.
"""

from .metrics import (
    Counter,
    EwmaRateMeter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    TimeSeries,
    WindowRateMeter,
    mean,
)
from .profiling import HandlerStats, KernelProfiler
from .tracing import (
    JSONLSink,
    NullSink,
    RingBufferSink,
    TraceBus,
    TraceSink,
    capture,
    install,
    read_jsonl,
    uninstall,
)

__all__ = [
    "Counter",
    "EwmaRateMeter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "TimeSeries",
    "WindowRateMeter",
    "mean",
    "HandlerStats",
    "KernelProfiler",
    "JSONLSink",
    "NullSink",
    "RingBufferSink",
    "TraceBus",
    "TraceSink",
    "capture",
    "install",
    "read_jsonl",
    "uninstall",
]
