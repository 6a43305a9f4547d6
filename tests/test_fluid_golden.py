"""Fluid-tier results are pinned by value, not just by spec digest.

The hashes in ``tests/data/fluid_golden.json`` were recorded at the
commit *before* the integrator's hot path was rewritten around a
per-epoch rate plan; this is the same check ``scripts/fluid_golden.py
--check`` and the CI ``scale`` job run.
"""

from __future__ import annotations

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "fluid_golden.py"


def test_fluid_results_match_the_recorded_hashes():
    spec = importlib.util.spec_from_file_location("fluid_golden", SCRIPT)
    fluid_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fluid_golden)
    assert fluid_golden.check() == []
