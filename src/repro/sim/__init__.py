"""Discrete-event simulation kernel: clock, events, timers, RNG.

Measurement (counters, rate meters, time series) lives in
:mod:`repro.obs.metrics`; each component owns its instruments and
binds them to ``sim.now``.
"""

from .events import Event, EventQueue
from .kernel import SimulationError, Simulator
from .randomness import RngRegistry, derive_seed
from .timers import PeriodicTask, Timer

__all__ = [
    "Event",
    "EventQueue",
    "SimulationError",
    "Simulator",
    "RngRegistry",
    "derive_seed",
    "PeriodicTask",
    "Timer",
]
