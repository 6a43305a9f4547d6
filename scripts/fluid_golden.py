"""The fluid tier's pinned cases: what ``scripts/pins.py`` checks as ``fluid``.

Spec digests say *what* was asked; nothing else in the suite fails when
a fluid number drifts in its last digit.  :func:`cases` is a fixed set
of :class:`~repro.scale.fluid.FluidSwarm` integrations (clean, every
chaos preset, coded content, arrivals + churn, overlapping windows with
impulses, one hybrid co-simulation with its per-coupling boundary
trace); each row of ``tests/data/pins/fluid.json`` is the sha256 of
``canonical_json`` of one case's JSON data.

Further cases pin the steady-epoch fast-forward of
:meth:`~repro.scale.fluid.FluidSwarm.advance` (the ``fluid_hybrid``
benchmark's 10^6-peer cell at ``dt=0.003``, a long steady epoch cut by
samples, a window edge and crashes, constant boundary terms over
coupling slices, a chaos-free co-simulation) and the size sums of
:func:`~repro.cdn.surrogate.cdn_fluid_cell` (three catalog shapes).

The fluid integrator's contract is *the same IEEE operations on the
same operands in the same order* (docs/PERFORMANCE.md § Fluid
integrator), so after any change to ``src/repro/scale/fluid.py`` run::

    PYTHONPATH=src python scripts/pins.py check fluid
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.chaos import PRESET_NAMES, preset_schedule
from repro.chaos.schedule import (
    ChaosSchedule,
    CorruptionBurst,
    LinkBlackout,
    LinkDegradation,
    PeerChurn,
    PeerCrash,
    TrackerOutage,
)
from repro.cdn import cdn_fluid_cell
from repro.experiments.figx_scale import FigXScale, scale_spec
from repro.scale import FluidParams, FluidSwarm, HybridSpec, HybridSwarm, PeerClass

MIB = 1 << 20


def _classes(arrival_rate: float = 0.0) -> tuple:
    return (
        PeerClass("seeds", 5.0, 96_000.0, 1_000_000.0, seed=True),
        PeerClass("wired", 75.0, 48_000.0, 500_000.0, arrival_rate=arrival_rate),
        PeerClass("mobile", 20.0, 24_000.0, 100_000.0, mobile=True,
                  wireless_shared=True, handoff_interval=90.0),
    )


#: The clean 4 MiB swarm; the other cases vary it with ``replace``.
CLEAN = FluidParams(file_size=4 * MIB, piece_length=65_536, classes=_classes())


def _fluid(params: FluidParams, chaos: Optional[ChaosSchedule] = None) -> object:
    return FluidSwarm(params, chaos=chaos).run().to_jsonable()


def _coded() -> object:
    # Custody holders on a duty cycle plus a blackout of the wireless
    # cell, so the holder-availability surrogate is exercised both ways.
    classes = (
        PeerClass("custody", 4.0, 48_000.0, 1_000_000.0, seed=True,
                  mobile=True, wp2p=True, handoff_interval=30.0,
                  handoff_downtime=8.0, reconnect_cost=0.0),
        PeerClass("wired", 30.0, 8_000.0, 500_000.0),
        PeerClass("mobile", 10.0, 12_000.0, 64_000.0, mobile=True,
                  wp2p=True, wireless_shared=True, handoff_interval=45.0,
                  selection="inorder"),
    )
    params = replace(CLEAN, classes=classes, max_time=3_600.0,
                     content_mode="group", code_k=4, code_n=6)
    return _fluid(params, ChaosSchedule((
        LinkBlackout(start=20.0, duration=15.0, target="wireless"),
        PeerCrash(start=50.0, target="custody", downtime=None),
    )))


def _arrivals_churn() -> object:
    params = replace(CLEAN, classes=_classes(arrival_rate=0.5), max_time=400.0,
                     departure_rate=0.002, dt=0.1)
    return _fluid(params, ChaosSchedule((
        PeerChurn(start=10.0, duration=120.0, rate_per_min=6.0,
                  downtime=20.0, target="*"),
    )))


def _overlapping() -> object:
    # Nested and overlapping windows on every modifier axis, boundaries
    # both on and off the dt grid, windows shorter than one step (one
    # covering a step time, one between two), and impulses
    # (transient, back-to-back, zero-downtime, permanent) inside them.
    return _fluid(replace(CLEAN, max_time=1_200.0), ChaosSchedule((
        PeerChurn(start=5.0, duration=60.0, rate_per_min=4.0,
                  downtime=12.0, target="wired"),
        PeerChurn(start=20.0, duration=20.0, rate_per_min=9.0,
                  downtime=30.0, target="*"),
        TrackerOutage(start=25.0, duration=10.1),
        LinkDegradation(start=12.5, duration=40.0, target="wireless",
                        rate_factor=0.4, ber=2e-5),
        LinkBlackout(start=30.0, duration=4.33, target="mobile"),
        CorruptionBurst(start=30.0, duration=0.1, target="*",
                        probability=0.5),
        CorruptionBurst(start=35.05, duration=0.1, target="*",
                        probability=0.7),
        CorruptionBurst(start=18.0, duration=33.0, target="wired",
                        probability=0.2),
        PeerCrash(start=22.0, target="wired", downtime=15.0),
        PeerCrash(start=22.0, target="mobile", downtime=0.0),
        PeerCrash(start=22.3, target="wired", downtime=40.0),
        PeerCrash(start=48.0, target="mobile", downtime=None),
    )))


def _boundary(fluid: FluidSwarm) -> List[float]:
    return [fluid.t, fluid.last_supply, fluid.last_demand, fluid.last_utilization]


def _hybrid(chaos: Optional[ChaosSchedule]) -> object:
    # One co-simulation; the boundary observables after every
    # FluidSwarm.advance() are what the packet side consumes.
    spec = HybridSpec(
        focal_seeds=0, focal_wired=1, focal_mobile=1,
        background_seeds=200.0, background_wired=800.0,
        background_mobile=200.0, file_size=512 * 1024,
        handoff_interval=40.0, max_time=900.0,
    )
    swarm = HybridSwarm(spec, seed=3, chaos=chaos)
    fluid = swarm.fluid
    advance = fluid.advance
    boundary: List[List[float]] = []

    def recording_advance(until, **kw):
        advance(until, **kw)
        boundary.append(_boundary(fluid))

    fluid.advance = recording_advance
    return {"result": swarm.run().to_jsonable(), "boundary": boundary}


def _figx_scale_cell(wp2p: bool) -> object:
    # The fluid_hybrid benchmark's largest cell: 10^6 peers at a fine
    # dt, where most steps repeat the one before.
    p = dict(FigXScale.defaults, dt=0.003)
    return _fluid(scale_spec(1_000_000, 0.221, wp2p, p).fluid_params())


def _steady_interrupted() -> object:
    # One long steady epoch cut by everything that must end a steady
    # run: off-grid sample points, window edges on and off the dt grid,
    # a transient crash whose pool drains for a while, and a
    # zero-downtime crash that moves nothing but still fires.
    params = replace(CLEAN, dt=0.05, sample_interval=0.7, max_time=1_200.0)
    return _fluid(params, ChaosSchedule((
        LinkDegradation(start=61.37, duration=30.0, target="wireless",
                        rate_factor=0.5),
        PeerCrash(start=120.02, target="mobile", downtime=4.0),
        PeerCrash(start=100.0, target="wired", downtime=0.0),
    )))


def _external_slices() -> object:
    # Nonzero boundary terms held constant over 2 s coupling slices:
    # each advance() call starts a fresh steady run.
    fluid = FluidSwarm(replace(CLEAN, dt=0.05, max_time=1_200.0))
    fluid.external_supply = 40_000.0
    fluid.external_demand = 250_000.0
    boundary: List[List[float]] = []
    until = 0.0
    while not fluid.finished and until < fluid.params.max_time:
        until += 2.0
        fluid.advance(until)
        boundary.append(_boundary(fluid))
    return {"result": fluid.finish().to_jsonable(), "boundary": boundary}


def cases() -> Dict[str, Callable[[], object]]:
    """Case name -> thunk producing the JSON data that is hashed."""
    out: Dict[str, Callable[[], object]] = {
        "clean_dt0.25": lambda: _fluid(CLEAN),
        "clean_dt0.05": lambda: _fluid(replace(CLEAN, dt=0.05)),
    }
    for preset in PRESET_NAMES:
        out[f"preset_{preset}_x2"] = lambda preset=preset: _fluid(
            CLEAN, preset_schedule(preset, 2.0, 300.0)
        )
    out["coded_group_4_6"] = _coded
    out["arrivals_churn"] = _arrivals_churn
    out["overlapping_windows_impulses"] = _overlapping
    out["hybrid_mixed"] = lambda: _hybrid(preset_schedule("mixed", 2.0, 30.0))
    out["hybrid_clean"] = lambda: _hybrid(None)
    out["figx_scale_1e6_default"] = lambda: _figx_scale_cell(False)
    out["figx_scale_1e6_wp2p"] = lambda: _figx_scale_cell(True)
    out["steady_interrupted"] = _steady_interrupted
    out["external_constant_slices"] = _external_slices
    out["cdn_uniform_1e4"] = lambda: cdn_fluid_cell(
        catalog={"assets": 10_000, "size_kib": 256, "piece_kib": 16},
        demand="zipf:0.9@50.0",
        origin={"policy": "pin_top_k", "k": 100, "capacity": 10_000},
        peers=100_000, mobile_fraction=0.221, horizon=600.0,
    )
    out["cdn_sizes_kib"] = lambda: cdn_fluid_cell(
        catalog={"assets": 40,
                 "sizes_kib": [64 + 97 * (i % 13) for i in range(40)]},
        demand="zipf:1.1@4.0", origin={"policy": "pin_top_k", "k": 3},
        peers=50, mobile_fraction=0.5, wp2p=True,
    )
    out["cdn_flash_lru"] = lambda: cdn_fluid_cell(
        catalog={"assets": 300, "size_kib": 512},
        demand={"kind": "zipf", "alpha": 0.8, "rate": 6.0,
                "flash_crowd": {"at": 60.0, "rank": 7, "size": 40,
                                "width": 5.0}},
        origin={"policy": "lru_evict", "capacity": 8},
        peers=400, mobile_fraction=0.3, horizon=900.0,
    )
    return out
