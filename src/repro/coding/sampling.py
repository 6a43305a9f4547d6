"""Probabilistic data-availability sampling for coded swarms.

PeerDAS-style availability checks: instead of tracking every peer's
full bitfield, a node periodically probes a few *random* coded indices
per group against what it can see (its own verified pieces plus the
advertised bitfields of its connected peers) and keeps a per-group
availability estimate.  The estimates surface as ``group_estimates``
and one ``sample_sweep`` trace event per sweep (mean and worst group),
so chaos experiments can watch group availability erode under churn
before swarms actually stall.

All randomness comes from the dedicated per-client RNG stream
``coding.sample.<name>``, so sampling never perturbs protocol streams
and sweeps are bit-reproducible.
"""

from __future__ import annotations

from typing import Dict

from ..sim import PeriodicTask

SWEEP_INTERVAL = 10.0
"""Seconds between two sweeps."""

SAMPLES_PER_GROUP = 4
"""Random probes per group and sweep."""


class AvailabilitySampler:
    """Periodic per-group availability estimation at one coded client.

    A probe of index ``i`` succeeds when the client holds piece ``i`` or
    any connected peer advertises it.  The per-group estimate is the
    success fraction of this sweep's probes — deliberately a *sample*,
    not a census, to mirror real DAS cost constraints.
    """

    def __init__(self, client) -> None:
        codec = client.manager.codec
        if codec.trivial:
            raise ValueError("availability sampling needs a grouped codec")
        self.client = client
        self.codec = codec
        self.sweeps = 0
        #: Latest per-group availability estimate in [0, 1].
        self.group_estimates: Dict[int, float] = {}
        self._rng = client.sim.rng.stream(f"coding.sample.{client.name}")
        self._task = PeriodicTask(client.sim, SWEEP_INTERVAL, self.sweep)

    def start(self) -> None:
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    def sweep(self) -> None:
        """Probe every group once; update the estimates and the trace."""
        client = self.client
        codec = self.codec
        bitfield = client.manager.bitfield
        availability = client.availability
        total = 0.0
        worst = 1.0
        for group in range(codec.num_groups):
            members = codec.group_indices(group)
            span = len(members)
            hits = 0
            for _ in range(SAMPLES_PER_GROUP):
                index = members[self._rng.randrange(span)]
                if bitfield.has(index) or availability.get(index, 0) > 0:
                    hits += 1
            estimate = hits / SAMPLES_PER_GROUP
            self.group_estimates[group] = estimate
            total += estimate
            if estimate < worst:
                worst = estimate
        self.sweeps += 1
        mean = total / codec.num_groups
        trace = client.sim.trace
        if trace.enabled:
            trace.event(
                "coding", "sample_sweep", client=client.name,
                mean=round(mean, 4), min=round(worst, 4),
                groups=codec.num_groups,
            )
