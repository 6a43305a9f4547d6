"""Declarative scenario registry and the parallel, cache-aware runner.

This package turns the one-off figure scripts into one orchestrated job
system.  Three pieces cooperate:

* :mod:`repro.runner.spec` — :class:`ScenarioSpec`, a typed, hashable,
  canonical description of *what* to run (scenario name + parameters +
  seeds + non-default scenario axes, declared once each in
  :mod:`repro.runner.axes`) plus the content hash that keys the result
  cache;
* :mod:`repro.runner.registry` — the :class:`Scenario` base class and the
  :func:`scenario` class decorator that registers every experiment under
  a name (``repro.experiments`` registers one scenario per paper figure),
  plus :class:`Verdict`, what a scenario's ``check()`` returns about a
  finished run;
* :mod:`repro.runner.runner` — the :class:`Runner`, which fans a
  scenario's independent simulation cells out over ``multiprocessing``
  workers, captures per-cell failures (retry once, then report — a dead
  seed is never fatal), and consults the content-addressed
  :class:`~repro.runner.cache.ResultCache` so identical cells are never
  simulated twice.

Determinism contract: each cell is a pure function of
``(code, scenario, cell key, seed, params, axes)``, so serial (``jobs=1``) and
parallel (``jobs=N``) execution of the same spec produce bit-identical
per-seed results, and a cached value is indistinguishable from a fresh
one (every value is canonicalised through JSON either way).

Quick use::

    from repro.runner import Runner
    result = Runner(jobs=4).run("fig2a", {"runs": 2}).result
    print(result.table())
"""

from .axes import AXES, BACKENDS, Axis
from .cache import ResultCache, default_cache_dir
from .registry import (
    Scenario,
    UnknownScenarioError,
    Verdict,
    collect,
    get_scenario,
    scenario,
    scenario_names,
)
from .runner import (
    CellFailure,
    CellTimeout,
    Runner,
    RunnerStats,
    ScenarioRun,
    print_progress,
)
from .spec import ScenarioSpec, canonical_json, code_version, freeze_params

__all__ = [
    "AXES",
    "Axis",
    "BACKENDS",
    "CellFailure",
    "CellTimeout",
    "ResultCache",
    "Runner",
    "RunnerStats",
    "Scenario",
    "ScenarioRun",
    "ScenarioSpec",
    "UnknownScenarioError",
    "Verdict",
    "canonical_json",
    "code_version",
    "collect",
    "default_cache_dir",
    "freeze_params",
    "get_scenario",
    "print_progress",
    "scenario",
    "scenario_names",
]
