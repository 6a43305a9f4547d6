"""Unified observability: metrics, structured tracing, and profiling.

This package is the single instrumentation spine of the library.  Three
concerns, one home:

* **Metrics** (:mod:`repro.obs.metrics`) — counters, rate meters and
  time series, each owned by the component that feeds it and bound to
  the simulator clock (``lambda: sim.now``).
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
    from repro.runner import Runner

    with tracing.capture(path="fig8a.jsonl"):
        Runner().run("fig8a", {"runs": 1})

then render the log with ``python scripts/run_report.py fig8a.jsonl``.
"""

from .metrics import (
    Counter,
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
