"""The four benchmark workloads, as lists of short, checkable ops.

A workload turns ``--seed`` into inputs once (:meth:`Workload.__init__`)
and then offers the same ops for every pass.  An op is one call into a
public entry point of ``repro`` that runs for roughly 0.3-2.5 s, short
enough that the host-speed spins taken on either side of it (see
hostspeed.py) describe the machine it actually ran on.  Each op returns
its result as JSON data, the exact amount of simulated work it did, and
how many cells it attempted and lost, so the harness can check outputs
while it measures.

Why these four is recorded next to each class and in README.md.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cdn import cdn_fluid_cell
from repro.experiments.figx_cdn import FigXCdn, cdn_run
from repro.experiments.figx_scale import FigXScale, fluid_cell, packet_cell
from repro.obs import tracing
from repro.runner import ResultCache, Runner, ScenarioRun, get_scenario


#: Everything the benchmark writes (caches, span dumps) goes here, inside
#: the checkout; git ignores it.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def scratch_dir(prefix: str) -> str:
    """A fresh directory under :data:`OUT_DIR`; the caller removes it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)


@dataclass
class Outcome:
    """What one op produced."""

    value: object  # JSON data; enters the pass digest
    events: int = 0  # kernel events + fluid steps, exact
    cells: int = 1  # cells attempted
    failed: int = 0  # cells that ended as a CellFailure
    counts: Dict[str, int] = field(default_factory=dict)  # per-layer counters
    #: Raw host seconds the program itself reported (``RunnerStats``).
    timings: Dict[str, float] = field(default_factory=dict)


@dataclass
class OpRecord:
    """One op as the harness measured it."""

    outcome: Outcome
    raw_s: float  # host seconds as timed
    speed: float  # 1 / slowdown of the host around the op (hostspeed.py)

    @property
    def wall_s(self) -> float:
        """Host seconds at nominal host speed."""
        return self.raw_s * self.speed


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Outcome]
    #: ``campaign_runner`` times its warm-cache reruns apart from the
    #: cold phases; every other op is "main".
    phase: str = "main"


#: Per-layer metrics only some workloads can state, from op counts or
#: :meth:`Workload.layer_metrics`; the others report 0 for them.
OWN_METRICS = (
    "scale.fluid_steps", "scale.fluid_us_per_step", "scale.hybrid_couplings",
    "scale.hybrid_s", "scale.cdn_fluid_ms", "runner.cells",
    "runner.overhead_ms_per_cell", "runner.pool_overhead_s",
    "runner.warm_wall_s",
)


class Workload:
    """Inputs generated from a seed, ops over them, and output checks."""

    name = ""
    why = ""

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Unmeasured work the output checks need (reference results)."""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def checks(self, outcomes: Dict[str, Outcome]) -> Dict[str, bool]:
        """Named output checks over one pass's outcomes."""
        return {}

    def layer_metrics(self, ops: Dict[str, OpRecord]) -> Dict[str, float]:
        """Per-layer timings this workload can state from one untraced
        pass, at nominal host speed."""
        return {}

    def close(self) -> None:
        """Release what :meth:`__init__` opened."""


# ----------------------------------------------------------------------
class PacketSwarm(Workload):
    name = "packet_swarm"
    why = (
        "one 24-peer swarm, 20% mobile, default then wP2P clients: "
        "steady bulk transfer where sim/net/tcp/bittorrent do all the "
        "work and runner/scale/cdn none"
    )

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        # A 1 MiB file with a handoff every 40 s keeps one handoff inside
        # every download (so wP2P's identity retention is exercised and
        # beats the default client by a wide margin on every seed tried)
        # while a cell stays near 265k events, about 2 s.
        self.params = dict(
            FigXScale.defaults, file_size_kib=1024, handoff_interval=40.0
        )
        self.size = 24
        if quick:
            self.params["file_size_kib"] = 256
            self.params["handoff_interval"] = 10.0
            self.size = 10

    def _cell(self, wp2p: bool) -> Outcome:
        value = packet_cell(self.seed, self.size, 0.2, wp2p, self.params)
        return Outcome(value, events=int(value["steps"]))

    def ops(self) -> List[Op]:
        return [
            Op("default", lambda: self._cell(False)),
            Op("wp2p", lambda: self._cell(True)),
        ]

    def checks(self, outcomes):
        default = outcomes["default"].value["completion"]
        wp2p = outcomes["wp2p"].value["completion"]
        return {
            "all_leechers_complete": default is not None and wp2p is not None,
            "wp2p_completion_le_default": (
                default is not None and wp2p is not None and wp2p <= default
            ),
        }


# ----------------------------------------------------------------------
class CdnMultiswarm(Workload):
    name = "cdn_multiswarm"
    why = (
        "the same packet layers used differently: many short per-asset "
        "swarms, announces, handshakes, shared-uplink buckets, origin "
        "activation; a bulk fast path that costs set-up shows here"
    )

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        # Flat, dense demand (2 requests/s, Zipf 0.3) over four 128 KiB
        # assets: within the horizon every one of the 40 (peer, asset)
        # pairs is fetched, so the work in a pass barely depends on the
        # seed (6% quartile spread in events over ten seeds, against 25%
        # at the figure's default demand) and wall_s compares across seeds.
        self.params = dict(
            FigXCdn.defaults,
            catalog="assets:4,size_kib:128,piece_kib:16",
            demand="zipf:0.3@2.0",
            duration=12.0 if quick else 220.0,
        )

    def _cell(self, client: str) -> Outcome:
        value = cdn_run(self.seed, client, 0.4, self.params)
        return Outcome(value, events=int(value["steps"]))

    def ops(self) -> List[Op]:
        return [
            Op("default", lambda: self._cell("default")),
            Op("wp2p", lambda: self._cell("wp2p")),
        ]

    def checks(self, outcomes):
        return {
            "requests_arrived": all(
                o.value["requests"] > 0 for o in outcomes.values()
            ),
            "same_demand_both_clients": (
                outcomes["default"].value["requests"]
                == outcomes["wp2p"].value["requests"]
            ),
        }


# ----------------------------------------------------------------------
class FluidHybrid(Workload):
    name = "fluid_hybrid"
    why = (
        "scale does the work: fluid cells at 1e2/1e4/1e6 peers with a "
        "fine dt, a hybrid grid, a 1e4-asset CDN surrogate; a kernel "
        "queue, net or tcp change should not move it"
    )

    CDN_FLUID_REPS = 25
    FLUID_SIZES = {"fluid_1e2": 100, "fluid_1e4": 10_000, "fluid_1e6": 1_000_000}

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        rng = random.Random(seed)
        # The fluid engine takes no seed, so the seed picks the sweep
        # point instead: the mobile share of every fluid swarm.
        self.mobile_fraction = round(rng.uniform(0.15, 0.45), 3)
        self.fluid_params = dict(
            FigXScale.defaults, dt=0.25 if quick else 0.003
        )
        # One background size of the default figx_hybrid grid (5 of its
        # 15 cells): each hybrid cell is ~35k *packet* events around a
        # few dozen couplings, so the full grid would make this workload
        # half packet simulation and defeat its purpose.
        self.hybrid = get_scenario("figx_hybrid")
        overrides: Dict[str, object] = {
            "base_seed": seed, "background_sizes": [10_000],
        }
        if quick:
            overrides.update(focal_mobile_fractions=[1.0], file_size_kib=256)
        self.hybrid_params = self.hybrid.params(overrides)
        self.demand_rate = round(rng.uniform(30.0, 70.0), 1)

    def _fluid(self, size: int) -> Outcome:
        value = fluid_cell(size, self.mobile_fraction, False, self.fluid_params)
        steps = int(value["steps"])
        return Outcome(value, events=steps, counts={"scale.fluid_steps": steps})

    def _hybrid(self) -> Outcome:
        values = [
            [list(key), seed,
             self.hybrid.run_cell_hybrid(key, seed, self.hybrid_params)]
            for key, seed in self.hybrid.cells(self.hybrid_params)
        ]
        return Outcome(
            values,
            events=sum(int(v["steps"]) for _, _, v in values),
            cells=len(values),
            counts={"scale.hybrid_couplings": sum(
                int(v["couplings"]) for _, _, v in values
            )},
        )

    def _cdn_fluid(self) -> Outcome:
        for _ in range(self.CDN_FLUID_REPS):
            value = cdn_fluid_cell(
                catalog={"assets": 10_000, "size_kib": 256, "piece_kib": 16},
                demand=f"zipf:0.9@{self.demand_rate}",
                origin={"policy": "pin_top_k", "k": 100, "capacity": 10_000},
                peers=100_000,
                mobile_fraction=self.mobile_fraction,
                wp2p=False,
                horizon=600.0,
            )
        steps = int(value["steps"]) * self.CDN_FLUID_REPS
        return Outcome(value, events=steps, cells=self.CDN_FLUID_REPS,
                       counts={"scale.fluid_steps": steps})

    def ops(self) -> List[Op]:
        return [
            Op(name, lambda size=size: self._fluid(size))
            for name, size in self.FLUID_SIZES.items()
        ] + [
            Op("hybrid_grid", self._hybrid),
            Op("cdn_fluid", self._cdn_fluid),
        ]

    def checks(self, outcomes):
        return {
            "fluid_swarms_complete": all(
                outcomes[name].value["completion"] is not None
                for name in self.FLUID_SIZES
            ),
            "hybrid_focals_complete": all(
                v["completion"] is not None and v["couplings"] > 0
                for _, _, v in outcomes["hybrid_grid"].value
            ),
            "cdn_surrogate_log_cost": outcomes["cdn_fluid"].value["steps"] <= 16,
        }

    def layer_metrics(self, ops):
        fluid = [ops[name] for name in self.FLUID_SIZES]
        return {
            "scale.fluid_us_per_step": 1e6 * sum(r.wall_s for r in fluid)
            / sum(r.outcome.events for r in fluid),
            "scale.hybrid_s": ops["hybrid_grid"].wall_s,
            "scale.cdn_fluid_ms":
                1e3 * ops["cdn_fluid"].wall_s / self.CDN_FLUID_REPS,
        }


# ----------------------------------------------------------------------
class _KernelEventCounter(tracing.TraceSink):
    """Sums the events every simulator reports at the end of each run."""

    def __init__(self) -> None:
        self.events = 0

    def write(self, record) -> None:
        if record["event"] == "run_end":
            self.events += int(record["processed"])


def _run_values(run: ScenarioRun) -> list:
    """A run's cell values and assembled series as ordered JSON data."""
    cells = sorted(
        ([list(key), seed, value] for (key, seed), value in run.values.items()),
        key=repr,
    )
    series = [[s.label, list(s.x), list(s.y)] for s in run.result.series]
    return [cells, series]


def grid_overrides(seed: int, quick: bool = False) -> Dict[str, object]:
    """The fluid ``figx_scale`` grid of ``campaign_runner`` (and of the
    runner drivers): 20 grid points x 50 seeds at a coarse dt, ~1.5 ms of
    integrator per cell, so spec, digest, canonical JSON and cache put
    are a visible share of the grid's wall time."""
    return {"runs": 2 if quick else 50, "dt": 2.0, "base_seed": seed}


class CampaignRunner(Workload):
    name = "campaign_runner"
    why = (
        "the whole Runner.run path with a fresh ResultCache: fig8c cold "
        "at jobs=2, a 1000-cell fluid grid cold at jobs=1, then warm "
        "reruns, so cache writes, reads and per-cell overhead all show"
    )

    GRID_WARM_REPS = 3
    FIG8C_WARM_REPS = 20

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        # Figure 8(c) with one run per point (8 cells) and a 6 s
        # measurement window after its 10 s warm-up: the pool, pickling
        # and cache path are what this workload is for, not cell length.
        self.fig8c = {"runs": 1, "duration": 6.0, "base_seed": seed}
        self.grid = grid_overrides(seed, quick)
        if quick:
            self.fig8c.update(bandwidths=[100_000.0], duration=2.0)
        self.root = scratch_dir("cache-")
        self._cache: Optional[ResultCache] = None  # a fresh one per pass
        self.reference: list = []
        self.fig8c_events = 0

    def prepare(self) -> None:
        # jobs=1, uncached: the values every jobs=2 pass must reproduce.
        # A sim-layer trace sink is the public way to learn how many
        # kernel events those cells are (their values are bare floats).
        counter = _KernelEventCounter()
        tracing.install(counter, layers=["sim"])
        try:
            run = Runner(jobs=1).run("fig8c", self.fig8c)
        finally:
            tracing.uninstall()
        self.reference = _run_values(run)
        self.fig8c_events = counter.events

    def _outcome(self, run: ScenarioRun, events: int, **counts: int) -> Outcome:
        stats = run.stats
        counts.update({
            "runner.cells": stats.total_cells,
            "runner.cache_hits": stats.cache_hits,
        })
        return Outcome(
            _run_values(run), events=events, cells=stats.total_cells,
            failed=stats.failed, counts=counts,
            timings={
                "elapsed_s": stats.elapsed_s,
                "cell_seconds": sum(stats.cell_seconds.values()),
            },
        )

    def _run_fig8c(self) -> ScenarioRun:
        return Runner(jobs=2, cache=self._cache).run("fig8c", self.fig8c)

    def _run_grid(self) -> ScenarioRun:
        return Runner(jobs=1, cache=self._cache, backend="fluid").run(
            "figx_scale", self.grid
        )

    def _fig8c_cold(self) -> Outcome:
        self._cache = ResultCache(tempfile.mkdtemp(dir=self.root))
        return self._outcome(self._run_fig8c(), self.fig8c_events)

    def _grid_cold(self) -> Outcome:
        run = self._run_grid()
        steps = sum(int(v["steps"]) for v in run.values.values())
        return self._outcome(run, steps, **{"scale.fluid_steps": steps})

    def _fig8c_warm(self) -> Outcome:
        for _ in range(self.FIG8C_WARM_REPS):
            run = self._run_fig8c()
        return self._outcome(run, 0)

    def _grid_warm(self) -> Outcome:
        for _ in range(self.GRID_WARM_REPS):
            run = self._run_grid()
        return self._outcome(run, 0)

    def ops(self) -> List[Op]:
        return [
            Op("fig8c_cold", self._fig8c_cold),
            Op("grid_cold", self._grid_cold),
            Op("fig8c_warm", self._fig8c_warm, phase="warm"),
            Op("grid_warm", self._grid_warm, phase="warm"),
        ]

    def checks(self, outcomes):
        def all_hits(name: str) -> bool:
            counts = outcomes[name].counts
            return counts["runner.cache_hits"] == counts["runner.cells"]

        return {
            "jobs2_equals_jobs1": outcomes["fig8c_cold"].value == self.reference,
            "cold_runs_hit_nothing": (
                outcomes["fig8c_cold"].counts["runner.cache_hits"] == 0
                and outcomes["grid_cold"].counts["runner.cache_hits"] == 0
            ),
            "warm_equals_cold": (
                outcomes["fig8c_warm"].value == outcomes["fig8c_cold"].value
                and outcomes["grid_warm"].value == outcomes["grid_cold"].value
            ),
            "warm_hits_every_cell": all_hits("fig8c_warm") and all_hits("grid_warm"),
        }

    def layer_metrics(self, ops):
        def timing(name: str, key: str) -> float:
            return ops[name].outcome.timings[key] * ops[name].speed

        grid_cells = ops["grid_cold"].outcome.cells
        return {
            "runner.overhead_ms_per_cell": 1e3 * (
                timing("grid_cold", "elapsed_s")
                - timing("grid_cold", "cell_seconds")
            ) / grid_cells,
            "runner.pool_overhead_s": (
                timing("fig8c_cold", "elapsed_s")
                - timing("fig8c_cold", "cell_seconds") / 2
            ),
            "runner.warm_wall_s":
                ops["fig8c_warm"].wall_s + ops["grid_warm"].wall_s,
        }

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (PacketSwarm, CdnMultiswarm, FluidHybrid, CampaignRunner)
}
