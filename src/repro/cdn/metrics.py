"""``cdn.*`` metrics through :mod:`repro.obs`.

One thin layer owning the CDN tier's instruments so every scenario and
the fuzzer emit the same names:

* ``cdn.requests`` / ``cdn.local_hits`` / ``cdn.completions`` — counters
* ``cdn.catalog_completion`` — gauge, fraction of requests served
* ``cdn.origin_activations`` / ``cdn.origin_evictions`` — counters
  (emitted by :class:`~repro.cdn.origin.Origin`)

Structured trace events ride the ``"cdn"`` layer (``request``,
``join``, ``local_hit``, ``complete``, ``origin_activate``,
``origin_evict``).
"""

from __future__ import annotations

from ..sim import Simulator


class CdnMetrics:
    """Request-path instrumentation for one CDN scenario."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.requests = sim.metrics.counter("cdn.requests")
        self.local_hits = sim.metrics.counter("cdn.local_hits")
        self.completions = sim.metrics.counter("cdn.completions")
        self.catalog_completion = sim.metrics.gauge("cdn.catalog_completion")
        self._seen = 0
        self._served = 0

    def on_request(self, peer: str, rank: int, local: bool) -> None:
        self.requests.add()
        self._seen += 1
        if local:
            self.local_hits.add()
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "cdn", "local_hit" if local else "request",
                peer=peer, rank=rank,
            )

    def on_join(self, peer: str, rank: int) -> None:
        if self.sim.trace.enabled:
            self.sim.trace.event("cdn", "join", peer=peer, rank=rank)

    def on_completion(self, peer: str, rank: int, latency: float) -> None:
        self.completions.add()
        self._served += 1
        self.catalog_completion.set(self._served / max(self._seen, 1))
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "cdn", "complete", peer=peer, rank=rank, latency=latency
            )
