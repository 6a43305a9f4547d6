"""The sweep grammar's inputs and outputs, pinned for every scenario.

``tests/data/scenario_grammar.json`` holds, per registered scenario:

* ``cells`` — the sorted ``(key, seed)`` cell list at default params;
* ``first_seed`` — for the fluid-capable scenarios, the first seed of
  each key in ``cells()`` order (the runner files a seed-free group
  under it, so it names the cached value);
* ``overrides`` / ``values`` — the cell values of one tiny run on the
  scenario's default backend;
* ``assembled`` — the sha256 of
  ``canonical_json(asdict(assemble(params, values, [])))`` over those
  recorded values.

The file was recorded at the commit before ``Scenario`` gained its
sweep grammar, from a checkout of that commit with this file copied in::

    PYTHONPATH=src python -m tests.test_scenario_grammar --record

so a port of a scenario's ``cells()`` / ``assemble()`` that changes a
cell, a seed or one bit of an assembled result fails here.  The test
runs no simulation: it re-assembles the recorded values.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from dataclasses import asdict
from typing import Dict, List

import repro.experiments  # noqa: F401  (registers the scenarios)
from repro.runner import Runner, canonical_json, get_scenario, scenario_names

DATA = pathlib.Path(__file__).resolve().parent / "data" / "scenario_grammar.json"

#: Scenarios whose fluid results are shared across seeds by key.
FLUID = ("figx_cdn", "figx_erasure", "figx_scale")

#: One tiny run per scenario: few points, two seeds where the scenario
#: has ``runs``, short horizons.
TINY: Dict[str, Dict[str, object]] = {
    "fig2a": {"bers": [0.0, 1e-5], "runs": 2, "duration": 3.0},
    "fig2bc": {"duration": 4.0},
    "fig3a": {"fractions": [0.2, 0.6], "runs": 2, "duration": 5.0},
    "fig3b": {"fractions": [0.2, 0.6], "runs": 2, "duration": 5.0},
    "fig3c": {"duration": 40.0, "runs": 2, "file_mb": 1.0},
    "fig4a": {"intervals": [None, 30.0], "runs": 2, "duration": 30.0},
    "fig4bc": {"num_pieces": 8, "runs": 2},
    "fig8a": {"bers": [1e-6, 1e-5], "runs": 2, "duration": 5.0},
    "fig8b": {"duration": 40.0, "runs": 2},
    "fig8c": {"bandwidths": [50_000.0, 100_000.0], "runs": 2, "duration": 5.0},
    "fig9ab": {"num_pieces": 8, "runs": 2},
    "fig9c": {"intervals": [60.0, 30.0], "runs": 2, "duration": 40.0},
    "figx_arena": {
        "mixes": ["clean", "freeriders", "tyrants", "robust-tyrants"],
        "runs": 1, "leechers": 4, "file_size_kib": 512, "duration": 60.0,
    },
    "figx_cdn": {"mobile_fractions": [0.0, 0.8], "runs": 2, "peers": 4,
                 "duration": 60.0},
    "figx_chaos": {"intensities": [0.0, 1.0], "runs": 2, "duration": 60.0,
                   "file_size_kib": 256},
    "figx_erasure": {"intensities": [0.0, 8.0], "runs": 2, "duration": 60.0,
                     "source_kib": 192},
    "figx_hybrid": {"background_sizes": [1000], "focal_mobile_fractions": [0.0, 1.0],
                    "focal_hosts": 2, "file_size_kib": 256, "max_time": 300.0},
    "figx_scale": {"swarm_sizes": [100, 1000], "runs": 2, "dt": 2.0},
    "ablation_am_gamma": {"gammas": [2920, 8760], "runs": 2, "duration": 5.0},
    "ablation_lihd": {"runs": 2, "duration": 5.0},
    "ablation_mf_schedule": {"runs": 2, "num_pieces": 8},
    "ablation_rr_vs_tracker": {"tracker_intervals": [30.0, 60.0], "runs": 2,
                               "duration": 20.0},
    "ablation_sack": {"bers": [1e-6, 1e-5], "runs": 2, "duration": 5.0},
}


def _names() -> List[str]:
    """Every scenario ``repro.experiments`` registers (tests add probes)."""
    return [
        n for n in scenario_names()
        if type(get_scenario(n)).__module__.startswith("repro.experiments")
    ]


def _cell_list(name: str) -> List[list]:
    cells = get_scenario(name).cells(get_scenario(name).params())
    return sorted(([list(key), seed] for key, seed in cells), key=canonical_json)


def _first_seeds(name: str) -> Dict[str, int]:
    first: Dict[str, int] = {}
    for key, seed in get_scenario(name).cells(get_scenario(name).params()):
        first.setdefault(canonical_json(list(key)), seed)
    return first


def _assembled_digest(name: str, recorded: List[list]) -> str:
    scn = get_scenario(name)
    values = {(tuple(key), seed): value for key, seed, value in recorded}
    result = scn.assemble(scn.params(TINY[name]), values, [])
    return hashlib.sha256(canonical_json(asdict(result)).encode()).hexdigest()


def record() -> None:
    """Run every tiny campaign and write :data:`DATA`."""
    pins: Dict[str, object] = {}
    for name in _names():
        run = Runner(jobs=2).run(name, TINY[name])
        assert not run.failures, run.failures
        recorded = sorted(
            ([list(key), seed, value] for (key, seed), value in run.values.items()),
            key=lambda row: canonical_json(row[:2]),
        )
        pins[name] = {
            "cells": _cell_list(name),
            "overrides": TINY[name],
            "values": recorded,
            "assembled": _assembled_digest(name, recorded),
        }
        if name in FLUID:
            pins[name]["first_seed"] = _first_seeds(name)
    DATA.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def _pins() -> Dict[str, dict]:
    return json.loads(DATA.read_text())


def test_every_scenario_is_pinned():
    assert sorted(_pins()) == _names() == sorted(TINY)


def test_cells_at_default_params_are_unchanged():
    pins = _pins()
    for name in _names():
        assert _cell_list(name) == pins[name]["cells"], name


def test_fluid_groups_keep_their_first_seed():
    pins = _pins()
    for name in FLUID:
        assert _first_seeds(name) == pins[name]["first_seed"], name


def test_assemble_is_bit_identical_on_recorded_values():
    pins = _pins()
    for name in _names():
        assert pins[name]["overrides"] == TINY[name], name
        assert _assembled_digest(name, pins[name]["values"]) == \
            pins[name]["assembled"], name


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
