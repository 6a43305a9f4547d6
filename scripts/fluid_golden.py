#!/usr/bin/env python
"""Pin fluid-tier results by value: the bit-identity gate of the engine.

Spec digests say *what* was asked; nothing else in the suite fails when
a fluid number drifts in its last digit.  This script runs a fixed set
of :class:`~repro.scale.fluid.FluidSwarm` integrations (clean, every
chaos preset, coded content, arrivals + churn, overlapping windows with
impulses, one hybrid co-simulation with its per-coupling boundary
trace), hashes ``canonical_json(result.to_jsonable())`` of each, and
compares against ``tests/data/fluid_golden.json``.

The fluid integrator's contract is *the same IEEE operations on the
same operands in the same order* (docs/PERFORMANCE.md § Fluid
integrator), so after any change to ``src/repro/scale/fluid.py`` run
``--check``; ``--record`` only when a result change is intended and
explained.  ``tests/test_fluid_golden.py`` and the CI ``scale`` job call
the same :func:`check`.

Usage::

    PYTHONPATH=src python scripts/fluid_golden.py --check
    PYTHONPATH=src python scripts/fluid_golden.py --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
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
from repro.runner import canonical_json
from repro.scale import FluidParams, FluidSwarm, HybridSpec, HybridSwarm, PeerClass

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests" / "data" / "fluid_golden.json"
)

MIB = 1 << 20


def _classes(**wired_kw) -> tuple:
    return (
        PeerClass("seeds", 5.0, 96_000.0, 1_000_000.0, seed=True),
        PeerClass("wired", 75.0, 48_000.0, 500_000.0, **wired_kw),
        PeerClass("mobile", 20.0, 24_000.0, 100_000.0, mobile=True,
                  wireless_shared=True, handoff_interval=90.0),
    )


def _params(classes: Optional[tuple] = None, **kw) -> FluidParams:
    return FluidParams(
        file_size=4 * MIB, piece_length=65_536,
        classes=classes if classes is not None else _classes(), **kw,
    )


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
    params = _params(classes, max_time=3_600.0, content_mode="group",
                     code_k=4, code_n=6)
    return _fluid(params, ChaosSchedule((
        LinkBlackout(start=20.0, duration=15.0, target="wireless"),
        PeerCrash(start=50.0, target="custody", downtime=None),
    )))


def _arrivals_churn() -> object:
    params = _params(_classes(arrival_rate=0.5), max_time=400.0,
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
    return _fluid(_params(max_time=1_200.0), ChaosSchedule((
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


def _hybrid() -> object:
    # One chaotic co-simulation; the boundary observables after every
    # FluidSwarm.advance() are what the packet side consumes.
    spec = HybridSpec(
        focal_seeds=0, focal_wired=1, focal_mobile=1,
        background_seeds=200.0, background_wired=800.0,
        background_mobile=200.0, file_size=512 * 1024,
        handoff_interval=40.0, max_time=900.0,
    )
    swarm = HybridSwarm(spec, seed=3, chaos=preset_schedule("mixed", 2.0, 30.0))
    fluid = swarm.fluid
    advance = fluid.advance
    boundary: List[List[float]] = []

    def recording_advance(until, **kw):
        advance(until, **kw)
        boundary.append(
            [fluid.t, fluid.last_supply, fluid.last_demand, fluid.last_utilization]
        )

    fluid.advance = recording_advance
    return {"result": swarm.run().to_jsonable(), "boundary": boundary}


def cases() -> Dict[str, Callable[[], object]]:
    """Case name -> thunk producing the JSON data that is hashed."""
    out: Dict[str, Callable[[], object]] = {
        "clean_dt0.25": lambda: _fluid(_params()),
        "clean_dt0.05": lambda: _fluid(_params(dt=0.05)),
    }
    for preset in PRESET_NAMES:
        out[f"preset_{preset}_x2"] = lambda preset=preset: _fluid(
            _params(), preset_schedule(preset, 2.0, 300.0)
        )
    out["coded_group_4_6"] = _coded
    out["arrivals_churn"] = _arrivals_churn
    out["overlapping_windows_impulses"] = _overlapping
    out["hybrid_mixed"] = _hybrid
    return out


def compute() -> Dict[str, str]:
    return {
        name: hashlib.sha256(canonical_json(thunk()).encode("utf-8")).hexdigest()
        for name, thunk in cases().items()
    }


def check(path: pathlib.Path = GOLDEN_PATH) -> List[str]:
    """One line per case whose hash differs from the recorded one
    (empty when the engine still computes every pinned value)."""
    recorded = json.loads(path.read_text(encoding="utf-8"))["cases"]
    current = compute()
    return [
        f"{name}: recorded {recorded.get(name)} != current {current.get(name)}"
        for name in sorted(set(recorded) | set(current))
        if recorded.get(name) != current.get(name)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fluid-tier value pins")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare against tests/data/fluid_golden.json")
    mode.add_argument("--record", action="store_true",
                      help="rewrite tests/data/fluid_golden.json")
    args = parser.parse_args(argv)
    if args.record:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps({"cases": compute()}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"recorded {len(cases())} cases -> {GOLDEN_PATH}")
        return 0
    drift = check()
    for line in drift:
        print(f"DRIFT {line}", file=sys.stderr)
    print(f"{len(cases()) - len(drift)}/{len(cases())} fluid golden cases match")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
