"""One rule for a grid point that lost seeds.

A failed cell is absent from ``values``.  Every sweep averages over the
seeds that survived (never dividing by ``runs``), and a point with no
surviving seed is NaN — ``point_estimate``'s rule — so the campaign
still assembles and a claim about that point fails instead of raising.
These tests call ``assemble`` on hand-built values; no simulation runs.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import repro.experiments  # noqa: F401  (registers the scenarios)
from repro.runner import get_scenario


def _assemble(name, overrides, value, drop=lambda key, seed: False):
    """``name``'s result over ``value(key, seed)`` at every cell not dropped,
    plus a stand-in run for ``check()``."""
    scn = get_scenario(name)
    params = scn.params(overrides)
    values = {
        (key, seed): value(key, seed)
        for key, seed in scn.cells(params) if not drop(key, seed)
    }
    result = scn.assemble(params, values, [])
    spec = SimpleNamespace(params=params, backend=scn.backends[0])
    return result, SimpleNamespace(spec=spec, result=result)


def _failed(verdicts):
    return [v.name for v in verdicts if not v.ok]


FIG9C = {"intervals": [120.0, 60.0], "runs": 2}


def test_fig9c_point_that_lost_one_seed_averages_the_survivor():
    result, _ = _assemble(
        "fig9c", FIG9C, lambda key, seed: 10_000.0,
        drop=lambda key, seed: key == ("default", 60.0) and seed == 981,
    )
    assert result.get("Default P2P").y == [10.0, 10.0]


def test_fig9c_point_that_lost_every_seed_is_nan_and_fails_its_claims():
    result, run = _assemble(
        "fig9c", FIG9C, lambda key, seed: 10_000.0 if key[0] == "wp2p" else 8_000.0,
        drop=lambda key, seed: key == ("default", 60.0),
    )
    assert math.isnan(result.get("Default P2P").y[1])
    failed = _failed(get_scenario("fig9c").check(run))
    assert {"advantage_grows_with_mobility", "default_degrades_with_mobility"} <= set(failed)


def _cdn_value(key, seed):
    client, fraction = key
    offload = 0.8 - fraction * (0.1 if client == "wp2p" else 0.5)
    return {"offload": offload, "mean_latency": 2.0, "catalog_completion": 1.0}


def test_figx_cdn_point_that_lost_every_seed_is_nan_and_fails_its_claims():
    overrides = {"mobile_fractions": [0.0, 0.4, 0.8], "runs": 2}
    result, run = _assemble(
        "figx_cdn", overrides, _cdn_value, drop=lambda key, seed: key == ("default", 0.4),
    )
    offload = result.get("Default clients").y
    assert offload[0] == 0.8 and math.isnan(offload[1])
    assert "nan" in result.notes
    assert "offload_monotone_decreasing" in _failed(get_scenario("figx_cdn").check(run))


def test_figx_chaos_point_that_lost_every_seed_is_nan():
    result, _ = _assemble(
        "figx_chaos", {"intensities": [0.0, 1.0], "runs": 2},
        lambda key, seed: {"completion": 100.0, "goodput": 2e4, "faults": 3.0},
        drop=lambda key, seed: key == ("wp2p", 1.0),
    )
    assert result.get("wP2P").y[0] == 100.0
    assert math.isnan(result.get("wP2P").y[1])
    assert math.isnan(result.parameters["mean_faults"]["wp2p"][1])


def _erasure_value(key, seed):
    variant, intensity, _ = key
    survival = 1.0 if variant == "coded" or intensity == 0.0 else 0.5
    return {"survival": survival, "completion": None, "mean_completion": 150.0,
            "faults": 0.0, "mean_mttr": None}


def test_figx_erasure_point_that_lost_every_seed_is_nan_and_fails_its_claims():
    overrides = {"intensities": [0.0, 8.0, 16.0], "runs": 2}
    result, run = _assemble(
        "figx_erasure", overrides, _erasure_value,
        drop=lambda key, seed: key[:2] == ("coded", 16.0),
    )
    coded = result.get("Erasure 4-of-6").y
    assert coded[:2] == [1.0, 1.0] and math.isnan(coded[2])
    failed = _failed(get_scenario("figx_erasure").check(run))
    assert {"survival_advantage_monotone", "coded_survives_at_gate"} <= set(failed)


def test_figx_scale_censors_unfinished_runs_and_nans_an_empty_point():
    overrides = {"swarm_sizes": [100, 1000], "mobile_fractions": [0.2], "runs": 2,
                 "max_time": 500.0}
    result, _ = _assemble(
        "figx_scale", overrides,
        lambda key, seed: {"completion": None if seed == 1501 else 300.0,
                           "mobile_completion": None, "mobile_goodput": None,
                           "wired_goodput": None, "playable_at_half": None,
                           "steps": 10, "peak_swarm": 100.0},
        drop=lambda key, seed: key == ("wp2p", 1000, 0.2),
    )
    default, wp2p = result.series
    assert default.y == [400.0, 400.0]
    assert wp2p.y[0] == 400.0 and math.isnan(wp2p.y[1])
