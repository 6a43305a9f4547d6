"""Laws the fluid tier did not write: an exact scaling law and the
minimum distribution time of Kumar & Ross.

Everything else in the suite checks :class:`~repro.scale.fluid.FluidSwarm`
against itself (golden hashes, a lockstep reference stepper).  These
tests check it against closed forms, and were written down with their
tolerances before they were first run.

* **Exact scaling.**  Multiplying every rate by 2 and dividing every
  time by 2 multiplies or divides every operand of the integrator by a
  power of two, which commutes with IEEE rounding.  Every rate·dt
  product, availability ratio and utilization is therefore unchanged bit
  for bit, and every completion time halves *exactly*: no tolerance.
* **Kumar–Ross (2006).**  No swarm distributes a file of ``F`` bytes to
  ``N`` leechers before ``D_min = max{F/u_s, F/d_min, N·F/(u_s + Σu_i)}``.
  At ``efficiency=1`` and ``startup_delay=0`` the fluid tier meets the
  second and third terms on a 144-config homogeneous grid.  Where a
  class downloads at exactly ``d_min`` its completion equals ``F/d_min``
  up to the rounding of a few hundred summed increments, hence a
  relative tolerance of 1e-9.
* **The ``F/u_s`` term fails** in 12 of those 144 configs, all with one
  seed uploading 20 kB/s against leechers uploading 48 kB/s.  A
  mean-field leecher uploads at its full capacity once warm, so leechers
  share bytes no seed has uploaded yet.  The worst config is pinned
  below as a strict ``xfail``.  The fix moves fluid digests, so it
  waits for the results-change protocol (ROADMAP item 5); see
  docs/IMPLEMENTATION_NOTES.md § Fluid tier vs Kumar–Ross.
* **The seed is not an input.**  The runner computes a fluid cell once
  per key and hands that one value object to every seed of the key
  (``SEED_FREE_BACKENDS``).  That is sound only while every scenario's
  ``run_cell_fluid`` returns the same value under any seed, clean or
  under a chaos preset, and ``assemble`` leaves the shared values alone.
  A fluid cell that starts reading its seed fails here first.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

import repro.experiments  # noqa: F401  — registers the figure scenarios
from repro import context
from repro.runner import canonical_json, get_scenario, scenario_names
from repro.runner.axes import SEED_FREE_BACKENDS, activate, normalize_axes
from repro.scale import FluidParams, FluidSwarm, PeerClass

MIB = 1 << 20
#: Relative rounding allowance of the Kumar–Ross bounds (see above).
ROUNDING = 1e-9


def _scaled(params: FluidParams, c: float) -> FluidParams:
    """``params`` with every rate times ``c`` and every time over ``c``."""
    classes = tuple(
        dataclasses.replace(
            cls,
            upload_rate=cls.upload_rate * c,
            download_rate=cls.download_rate * c,
            arrival_rate=cls.arrival_rate * c,
            handoff_interval=(
                None if cls.handoff_interval is None
                else cls.handoff_interval / c
            ),
            handoff_downtime=cls.handoff_downtime / c,
            restart_delay=cls.restart_delay / c,
            reconnect_cost=cls.reconnect_cost / c,
        )
        for cls in params.classes
    )
    return dataclasses.replace(
        params, classes=classes, dt=params.dt / c,
        startup_delay=params.startup_delay / c,
        departure_rate=params.departure_rate * c,
        sample_interval=params.sample_interval / c,
        max_time=params.max_time / c,
    )


def _scaling_configs():
    # 8 configs: both clients, two dt, a closed swarm and an open one
    # with arrivals and departures.
    for wp2p, dt, (departure_rate, arrival_rate) in itertools.product(
        (False, True), (0.25, 0.05), ((0.0, 0.0), (0.002, 0.05)),
    ):
        yield FluidParams(
            file_size=4 * MIB, piece_length=65_536, dt=dt, max_time=2_000.0,
            departure_rate=departure_rate,
            classes=(
                PeerClass("seeds", 5.0, 96_000.0, 1_000_000.0, seed=True),
                PeerClass("wired", 75.0, 48_000.0, 500_000.0,
                          arrival_rate=arrival_rate),
                PeerClass("mobile", 20.0, 24_000.0, 100_000.0, mobile=True,
                          wp2p=wp2p, wireless_shared=True,
                          handoff_interval=90.0, handoff_downtime=3.0),
            ),
        )


@pytest.mark.parametrize("params", list(_scaling_configs()))
def test_doubling_rates_and_halving_times_halves_completion_exactly(params):
    base = FluidSwarm(params).run()
    fast = FluidSwarm(_scaled(params, 2.0)).run()
    assert fast.utilization_mean == base.utilization_mean
    for name, cls in base.classes.items():
        if cls.completion_time is None:
            assert fast.classes[name].completion_time is None
        else:
            assert fast.classes[name].completion_time == cls.completion_time / 2


def _homogeneous(seeds, seed_up, leechers, leech_up, leech_down, file_size):
    return FluidParams(
        file_size=file_size, piece_length=65_536, dt=0.25,
        efficiency=1.0, startup_delay=0.0,
        classes=(
            PeerClass("seeds", float(seeds), seed_up, 1_000_000.0, seed=True),
            PeerClass("leechers", float(leechers), leech_up, leech_down),
        ),
    )


#: seeds, seed upload, leechers, leecher upload, leecher download, file.
GRID = list(itertools.product(
    (1, 5), (20_000.0, 96_000.0, 400_000.0), (10, 100, 1000),
    (12_000.0, 48_000.0), (100_000.0, 500_000.0), (1 * MIB, 4 * MIB),
))


def test_completion_respects_the_download_and_capacity_bounds():
    assert len(GRID) == 144
    for seeds, seed_up, n, leech_up, leech_down, size in GRID:
        done = FluidSwarm(_homogeneous(
            seeds, seed_up, n, leech_up, leech_down, size,
        )).run().leecher_completion_time()
        floor = 1.0 - ROUNDING
        assert done >= floor * size / leech_down
        assert done >= floor * n * size / (seeds * seed_up + n * leech_up)


@pytest.mark.xfail(strict=True, reason=(
    "mean-field leechers upload bytes no seed has sent yet: with 1 seed "
    "at 20 kB/s, 10 leechers uploading 48 kB/s and a 4 MiB file the swarm "
    "completes at 0.45 x F/u_s (ROADMAP item 5 owns the fix)"
))
def test_completion_respects_the_seed_upload_bound():
    size, seed_up = 4 * MIB, 20_000.0
    done = FluidSwarm(_homogeneous(
        1, seed_up, 10, 48_000.0, 500_000.0, size,
    )).run().leecher_completion_time()
    assert done >= (1.0 - ROUNDING) * size / seed_up


FLUID_SCENARIOS = [
    name for name in scenario_names() if "fluid" in get_scenario(name).backends
]


def _keys(scn, params):
    """Every distinct cell key, in enumeration order, and its first seed."""
    firsts = {}
    for key, seed in scn.cells(params):
        firsts.setdefault(tuple(key), seed)
    return firsts


def test_fluid_is_the_seed_free_backend():
    assert SEED_FREE_BACKENDS == ("fluid",)
    assert FLUID_SCENARIOS, "no scenario offers the fluid backend"


@pytest.mark.parametrize("chaos", [None, "churn"])
@pytest.mark.parametrize("name", FLUID_SCENARIOS)
def test_fluid_cells_return_the_same_value_under_any_seed(name, chaos):
    scn = get_scenario(name)
    params = scn.params()
    with context.scope(**activate(normalize_axes({"chaos": chaos}))):
        for key, seed in _keys(scn, params).items():
            first = canonical_json(scn.run_cell_fluid(key, seed, params))
            other = canonical_json(scn.run_cell_fluid(key, seed + 7919, params))
            assert first == other, key


@pytest.mark.parametrize("name", FLUID_SCENARIOS)
def test_assemble_leaves_shared_values_unmodified(name):
    scn = get_scenario(name)
    params = scn.params()
    shared = {
        key: scn.run_cell_fluid(key, seed, params)
        for key, seed in _keys(scn, params).items()
    }
    # One value object per key, given to every seed, as the runner does.
    values = {(tuple(key), seed): shared[tuple(key)] for key, seed in scn.cells(params)}
    before = canonical_json(sorted(map(list, values.items()), key=repr))
    scn.assemble(params, values, [])
    assert canonical_json(sorted(map(list, values.items()), key=repr)) == before
    assert all(values[cell] is shared[cell[0]] for cell in values)
