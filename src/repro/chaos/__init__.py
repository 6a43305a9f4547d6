"""repro.chaos — deterministic, schedule-driven fault injection.

The robustness analogue of :mod:`repro.audit`: where auditing asserts
that invariants *hold*, chaos deliberately breaks the environment —
peer crashes and Poisson churn, tracker outages, link blackouts and
quality ramps, forced IP-handoff storms, piece-corruption bursts — and
lets the protocols prove they degrade gracefully.  Every fault fires at
a schedule-fixed simulated time, with any randomness drawn from the
simulation's seeded RNG streams, so a chaos run is exactly as
reproducible (and cacheable) as a clean one.

Two ways to use it, mirroring :mod:`repro.audit`:

Explicitly, on one scenario::

    from repro.chaos import preset_schedule

    swarm = SwarmScenario(seed=7)
    ...build peers...
    swarm.add_chaos(preset_schedule("mixed", intensity=1.0, horizon=300.0))
    swarm.start_all()
    swarm.run(until=300.0)

Ambiently, for code that builds its scenarios internally — the run
context's ``chaos`` schedule, which ``Runner(chaos=...)`` and the CLI's
``--chaos`` flag enter around every cell::

    from repro import context

    with context.scope(chaos=preset_schedule("blackout", 2.0, 300.0)):
        run_cell(...)        # every new SwarmScenario gets the schedule

An ambient schedule is armed when the scenario is built, so a later
``add_chaos`` on it raises.  Chaos is **off by default** and costs one
context lookup per scenario constructed when off.
"""

from __future__ import annotations

from typing import Optional

from .. import context
from .controller import ChaosController
from .presets import PRESET_NAMES, PRESETS, preset_schedule
from .recovery import OpenFault, Recovery, RecoveryTracker
from .schedule import (
    ChaosSchedule,
    CorruptionBurst,
    FaultEvent,
    HandoffStorm,
    LinkBlackout,
    LinkDegradation,
    PeerChurn,
    PeerCrash,
    TrackerOutage,
)

__all__ = [
    "ChaosController",
    "ChaosSchedule",
    "CorruptionBurst",
    "FaultEvent",
    "HandoffStorm",
    "LinkBlackout",
    "LinkDegradation",
    "OpenFault",
    "PRESET_NAMES",
    "PRESETS",
    "PeerChurn",
    "PeerCrash",
    "Recovery",
    "RecoveryTracker",
    "TrackerOutage",
    "apply_defaults",
    "preset_schedule",
]


def apply_defaults(scenario) -> Optional[ChaosController]:
    """Scenario hook: arm the run context's chaos schedule, if any.

    Called by ``SwarmScenario.__init__``; each scenario gets its own
    controller, which draws its churn arrivals from that scenario's
    seeded RNG.
    """
    schedule = context.get("chaos")
    if schedule is None:
        return None
    return scenario.add_chaos(schedule)
