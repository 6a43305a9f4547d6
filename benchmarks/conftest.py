"""Benchmark harness helpers.

Scenario benches are full simulation campaigns, not microbenchmarks, so
each runs exactly one round (``benchmark.pedantic``), prints the measured
series, attaches them to the benchmark record via ``extra_info`` (so
``--benchmark-json`` output carries the data), and asserts the
scenario's claims — its ``check()`` verdicts.

Scenarios are executed through :class:`repro.runner.Runner` — uncached
(a benchmark must actually simulate) and serial by default so the
measured wall time stays comparable across machines.  Set
``REPRO_BENCH_JOBS=N`` to fan cells out over ``N`` worker processes
when you only care about the results, not the timings.
"""

from __future__ import annotations

import os

import repro.experiments  # noqa: F401  — registers the figure scenarios
from repro.analysis import ExperimentResult
from repro.runner import Runner, get_scenario


def run_figure(benchmark, name: str, **params) -> ExperimentResult:
    """Execute one registered scenario under pytest-benchmark."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    run = benchmark.pedantic(
        lambda: Runner(jobs=jobs).run(name, params or None), rounds=1, iterations=1
    )
    result = run.result
    print()
    print(result.table())
    benchmark.extra_info["figure"] = result.figure
    benchmark.extra_info["series"] = {
        s.label: {"x": list(s.x), "y": list(s.y)} for s in result.series
    }
    benchmark.extra_info["paper_expectation"] = result.paper_expectation
    failed = [v.line() for v in get_scenario(name).check(run) if not v.ok]
    assert not failed, failed
    return result
