"""The names the committed benchmark (``perfbench/``) imports, wraps and
calls must keep existing.

``perfbench/`` is frozen between benchmark changes and runs against
every PR, so a rename under ``src/`` or ``benchmarks/`` that it depends
on would only surface in the benchmark pipeline.  This imports its
modules the way ``perfbench/run.py`` does and touches each patch point;
it runs no simulation.
"""

from __future__ import annotations

import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_import_and_patch_surface(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    tracer = importlib.import_module("perfbench.tracer")
    importlib.import_module("perfbench.drivers")
    importlib.import_module("perfbench.workloads")
    for owner, attr, _layer, name in tracer.SPAN_POINTS:
        assert callable(getattr(owner, attr)), name

    bench_micro = importlib.import_module("bench_micro")
    for driver in ("_queue_churn", "_wireless_saturation", "_tcp_bulk_transfer",
                   "_obs_off_calls"):
        assert callable(getattr(bench_micro, driver)), driver
    monkeypatch.setattr(bench_micro, "QUEUE_OPS", 100)
    assert bench_micro._queue_churn(None) == 100
    monkeypatch.setattr(bench_micro, "OBS_CALLS", 100)
    assert bench_micro._obs_off_calls() == 100
