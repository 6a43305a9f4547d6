"""MTTR accounting: how long after each fault goodput actually recovers.

Fault *counts* say nothing about how much a swarm suffered — a crash the
swarm shrugs off in two seconds and one that stalls it for two minutes
are both "one fault".  The :class:`RecoveryTracker` closes that gap with
the classic mean-time-to-recovery measurement: it samples the swarm's
aggregate goodput on a fixed cadence (read-only — it never touches the
peers, so arming it cannot perturb results), snapshots the pre-fault
goodput level when each fault fires, and records the elapsed time until
the aggregate rate re-crosses that level as that fault's MTTR.

Every recovery lands in :attr:`RecoveryTracker.recoveries` and (when
tracing) emits a ``("chaos", "recovered")`` event, so run reports can
show per-fault recovery times next to the fault log.  Faults whose
goodput never re-crosses the pre-fault level within the run are left in
:attr:`RecoveryTracker.open_faults` — censored, not silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.timers import PeriodicTask
from ..summation import left_sum

SAMPLE_INTERVAL = 1.0
"""Seconds between two goodput samples."""


@dataclass
class Recovery:
    """One fault's completed recovery measurement."""

    fault_time: float
    kind: str
    target: str
    baseline: float
    recovered_at: float

    @property
    def mttr(self) -> float:
        return self.recovered_at - self.fault_time


@dataclass
class OpenFault:
    """A fired fault whose goodput has not yet re-crossed its baseline."""

    fault_time: float
    kind: str
    target: str
    baseline: float


class RecoveryTracker:
    """Samples aggregate goodput and measures per-fault recovery time.

    ``scenario`` is duck-typed like the :class:`ChaosController`'s:
    anything with ``sim`` and ``peers`` (name -> handle with a
    ``client``) works.  Peers without a ``downloaded`` counter (e.g. the
    hybrid backend's background facade) contribute nothing.
    """

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.sim = scenario.sim
        self.recoveries: List[Recovery] = []
        self.open_faults: List[OpenFault] = []
        self.samples = 0
        self._last_time: Optional[float] = None
        self._last_bytes = 0.0
        self._rate = 0.0
        self._task = PeriodicTask(self.sim, SAMPLE_INTERVAL, self._tick)
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> "RecoveryTracker":
        if not self._running:
            self._running = True
            # Sample immediately so the first fault has a baseline.
            self._task.start(first_delay=0.0)
        return self

    def stop(self) -> None:
        if self._running:
            self._running = False
            self._task.stop()

    # ------------------------------------------------------------------
    def _total_bytes(self) -> float:
        total = 0.0
        for handle in self.scenario.peers.values():
            counter = getattr(handle.client, "downloaded", None)
            if counter is not None:
                total += counter.total
        return total

    def _tick(self) -> None:
        now = self.sim.now
        total = self._total_bytes()
        if self._last_time is not None and now > self._last_time:
            self._rate = (total - self._last_bytes) / (now - self._last_time)
        self._last_time = now
        self._last_bytes = total
        self.samples += 1
        if self.open_faults:
            self._check_recoveries()

    def _check_recoveries(self) -> None:
        still_open: List[OpenFault] = []
        for fault in self.open_faults:
            if self._rate >= fault.baseline:
                self._close(fault)
            else:
                still_open.append(fault)
        self.open_faults = still_open

    def _close(self, fault: OpenFault) -> None:
        recovery = Recovery(
            fault_time=fault.fault_time,
            kind=fault.kind,
            target=fault.target,
            baseline=fault.baseline,
            recovered_at=self.sim.now,
        )
        self.recoveries.append(recovery)
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "chaos", "recovered",
                fault=fault.kind, target=fault.target,
                baseline=fault.baseline, mttr=recovery.mttr,
            )

    # ------------------------------------------------------------------
    def note_fault(self, kind: str, target: str) -> None:
        """Register a fired fault; called by the controller's recorder.

        The baseline is the goodput rate over the most recent sampling
        interval *before* the fault's effects land — faults fire from
        simulator callbacks, so at call time the current rate estimate is
        still pre-fault.
        """
        self.open_faults.append(
            OpenFault(
                fault_time=self.sim.now,
                kind=kind,
                target=target,
                baseline=self._rate,
            )
        )

    # ------------------------------------------------------------------
    def mean_mttr(self) -> Optional[float]:
        """Mean recovery time over completed recoveries (None if none)."""
        if not self.recoveries:
            return None
        return left_sum(r.mttr for r in self.recoveries) / len(self.recoveries)

    def summary(self) -> dict:
        return {
            "recoveries": len(self.recoveries),
            "censored": len(self.open_faults),
            "mean_mttr": self.mean_mttr(),
            "max_mttr": max((r.mttr for r in self.recoveries), default=None),
        }
