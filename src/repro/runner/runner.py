"""The parallel, cache-aware experiment runner.

:class:`Runner` executes a scenario's independent cells — serially in
process for ``jobs=1``, or fanned out over a ``multiprocessing`` pool
for ``jobs=N`` — then hands the collected values to the scenario's
``assemble`` hook.  Around that core it provides:

* **Caching** — give the runner a :class:`~repro.runner.cache.ResultCache`
  and every cell is looked up by content digest before it is simulated;
  a warm cache re-run executes zero simulations.
* **Failure capture** — a cell that raises is retried once (in the same
  worker) and, if it dies again, recorded as a :class:`CellFailure`
  with its traceback; the campaign continues and ``assemble`` aggregates
  over the surviving seeds.  A dead seed is reported, never fatal.
* **Observability** — per-cell wall timing, cache hit/miss counters and
  retry counts flow into a :class:`~repro.obs.metrics.MetricsRegistry`
  (``runner.*`` metrics) and an optional progress callback.
* **Determinism** — values are canonicalised through JSON whether they
  came from a worker or the cache, and aggregation order is fixed by
  the cell enumeration, so ``jobs=1`` and ``jobs=N`` produce
  bit-identical results.

When global trace sinks are installed (``repro.obs.tracing.install`` /
the CLI's ``--trace``), the runner degrades to serial execution: sinks
live in this process, and simulators created inside pool workers would
escape capture.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import signal
import sqlite3
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs import tracing
from .cache import ResultCache
from .registry import Cell, CellKey, CellValues, Scenario, get_scenario
from .spec import ScenarioSpec, cell_digest, code_version

Progress = Callable[[str], None]


class CellTimeout(Exception):
    """A cell exceeded the runner's per-cell wall-clock budget."""


@contextmanager
def _cell_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`CellTimeout` if the block runs longer than ``seconds``.

    Implemented with ``SIGALRM``/``setitimer`` so it fires even when the
    cell is stuck inside a single long-running call (the deadlock case
    the timeout exists for).  Signals only work on the main thread of a
    process — which is exactly where cells run, both inline (``jobs=1``)
    and in pool workers — so on platforms without ``SIGALRM`` (Windows)
    or off the main thread the guard degrades to a no-op rather than
    failing the cell.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise CellTimeout(f"cell exceeded {seconds:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class CellFailure:
    """One cell that kept failing after its retry."""

    key: CellKey
    seed: int
    error: str
    attempts: int

    def summary(self) -> str:
        last_line = self.error.strip().splitlines()[-1] if self.error else "?"
        return f"cell {self.key!r} seed {self.seed}: {last_line} ({self.attempts} attempts)"


@dataclass
class RunnerStats:
    """What one :meth:`Runner.run` actually did."""

    total_cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    retries: int = 0
    #: Cache entries that existed but could not be read (re-executed).
    cache_corrupt: int = 0
    #: Values the cache refused to store (computed and returned, not cached).
    cache_put_errors: int = 0
    elapsed_s: float = 0.0
    cell_seconds: Dict[Cell, float] = field(default_factory=dict)

    def summary(self) -> str:
        corrupt = (
            f"{self.cache_corrupt} corrupt cache entries, "
            if self.cache_corrupt else ""
        )
        unfiled = (
            f"{self.cache_put_errors} cache put errors, "
            if self.cache_put_errors else ""
        )
        return (
            f"{self.total_cells} cells: {self.executed} executed, "
            f"{self.cache_hits} cache hits, {corrupt}{unfiled}{self.failed} failed, "
            f"{self.retries} retries [{self.elapsed_s:.1f}s]"
        )


@dataclass
class ScenarioRun:
    """A completed scenario: the assembled result plus the raw material."""

    spec: ScenarioSpec
    result: object  # ExperimentResult
    values: CellValues
    failures: List[CellFailure]
    stats: RunnerStats


def _canonical_value(value: object) -> object:
    """Round-trip a cell value through JSON.

    Executed and cached values pass through the identical
    transformation, so a warm-cache run is bit-identical to a cold one.
    """
    return json.loads(json.dumps(value))


def _execute_cell(
    payload: Tuple[
        str, str, list, int, Mapping[str, object], int, bool,
        Optional[float], Optional[Mapping[str, object]], str,
        Optional[Mapping[str, Mapping[str, float]]],
        Optional[Mapping[str, object]],
        Optional[Mapping[str, object]],
    ]
):
    """Worker entry point: run one cell, retrying once on failure.

    Module-level (picklable) and self-bootstrapping: it imports the
    scenario's defining module first, so it works under both ``fork``
    and ``spawn`` start methods.  When the payload's audit flag is set,
    invariant auditing (:mod:`repro.audit`) is installed around the cell
    so every simulator the cell builds is checked; a violation surfaces
    as an ordinary cell failure carrying the ``AuditViolation``
    traceback.  When chaos options are present, :mod:`repro.chaos` is
    installed the same way, so every scenario the cell builds gets the
    fault schedule — and a strategy mix (:mod:`repro.strategy`) likewise,
    so strategic peer populations reach scenarios that build their own
    swarms — and a content mode (:mod:`repro.coding`) likewise, so
    erasure-coded piece pipelines reach them too — and a CDN workload
    (:mod:`repro.cdn`) likewise, so catalog/demand/origin presets reach
    every CDN scenario the cell builds.  A :class:`CellTimeout` (the ``cell_timeout``
    budget expiring) is terminal: a cell that ran out of wall clock once
    will again, so it fails immediately with no retry.
    """
    (
        module_name, scenario_name, key_list, seed, params, retries,
        audit_on, cell_timeout, chaos_options, backend, strategy_mix,
        content, workload,
    ) = payload
    importlib.import_module(module_name)
    scn = get_scenario(scenario_name)
    run_cell = scn.cell_runner(backend)
    key = tuple(key_list)
    attempts = 0
    start = time.perf_counter()
    if audit_on:
        from .. import audit as _audit

        _audit.install()
    if chaos_options is not None:
        from .. import chaos as _chaos

        _chaos.install(
            str(chaos_options["preset"]),
            intensity=float(chaos_options["intensity"]),  # type: ignore[arg-type]
            horizon=float(chaos_options["horizon"]),      # type: ignore[arg-type]
        )
    if strategy_mix is not None:
        from .. import strategy as _strategy

        _strategy.install_mix(strategy_mix)
    if content is not None:
        from .. import coding as _coding

        _coding.install(content)
    if workload is not None:
        from .. import cdn as _cdn

        _cdn.install(workload)
    try:
        while True:
            attempts += 1
            try:
                with _cell_deadline(cell_timeout):
                    value = run_cell(key, seed, params)
            except CellTimeout:
                return (
                    key_list, seed, False, traceback.format_exc(),
                    time.perf_counter() - start, attempts,
                )
            except Exception:
                if attempts > retries:
                    return (
                        key_list, seed, False, traceback.format_exc(),
                        time.perf_counter() - start, attempts,
                    )
            else:
                return (
                    key_list, seed, True, _canonical_value(value),
                    time.perf_counter() - start, attempts,
                )
    finally:
        if workload is not None:
            _cdn.uninstall()
        if content is not None:
            _coding.uninstall()
        if strategy_mix is not None:
            _strategy.uninstall_mix()
        if chaos_options is not None:
            _chaos.uninstall()
        if audit_on:
            _audit.uninstall()


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (fast, inherits registrations), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class Runner:
    """Parallel, cache-aware executor for registered scenarios.

    >>> runner = Runner(jobs=4, cache=ResultCache())    # doctest: +SKIP
    >>> run = runner.run("fig2a", {"runs": 2})          # doctest: +SKIP
    >>> print(run.result.table(), run.stats.summary())  # doctest: +SKIP

    ``jobs=1`` executes cells inline (no pool); ``jobs=N`` uses ``N``
    worker processes.  ``cache=None`` disables caching entirely.

    ``cell_timeout`` bounds each cell's wall-clock time: a cell that
    exceeds it becomes a :class:`CellFailure` (no retry) instead of
    hanging the campaign.  ``chaos`` names a :mod:`repro.chaos` preset
    to install around every cell; chaotic results are deterministic, so
    they stay cacheable — under a digest that folds in the chaos
    options, disjoint from the clean run's.

    ``strategy`` names a single :mod:`repro.strategy` strategy the whole
    peer population runs; ``strategy_mix`` is the general name→fraction
    form (optionally per population: ``{"mobile": {...}}``).  Either is
    installed ambiently around every cell, and — like chaos — folded
    into the spec hash and cell digests only when the mix is not the
    pure-``reference`` default, so ordinary runs keep their addresses.

    ``content`` selects the content mode (:mod:`repro.coding`) —
    ``"replication"`` (the default pipeline), ``"group:K/N"`` k-of-n
    erasure coding, or a mapping.  Installed ambiently around every cell
    and folded into digests only when non-default, exactly like the
    strategy mix.

    ``workload`` is the CDN workload axis (:mod:`repro.cdn`) — a
    ``{"catalog": ..., "demand": ..., "origin": ...}`` mapping (each
    sub-spec in its mapping or CLI-string form, e.g. the ``--catalog``/
    ``--demand`` flags).  Installed ambiently around every cell so CDN
    scenarios serve it in place of their own parameters, and folded into
    digests only when non-default.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        retries: int = 1,
        progress: Optional[Progress] = None,
        metrics: Optional[MetricsRegistry] = None,
        audit: bool = False,
        cell_timeout: Optional[float] = None,
        chaos: Optional[str] = None,
        chaos_intensity: float = 1.0,
        chaos_horizon: float = 300.0,
        backend: Optional[str] = None,
        strategy: Optional[str] = None,
        strategy_mix: Optional[Mapping[str, object]] = None,
        content=None,
        workload: Optional[Mapping[str, object]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")
        self.jobs = jobs
        # An audited run must actually simulate: cached values were (or
        # would be) produced without the checkers, so caching is disabled
        # in both directions while auditing.
        self.cache = None if audit else cache
        self.audit = audit
        self.retries = retries
        self.progress = progress
        self.cell_timeout = cell_timeout
        # None = per-scenario default (first entry of Scenario.backends);
        # resolved and validated against the scenario inside run().
        self.backend = backend
        self.chaos_options: Optional[Dict[str, object]] = None
        if chaos is not None:
            from ..chaos import preset_schedule

            # Validate eagerly so a bad preset fails at construction.
            preset_schedule(chaos, chaos_intensity, chaos_horizon)
            self.chaos_options = {
                "preset": chaos,
                "intensity": float(chaos_intensity),
                "horizon": float(chaos_horizon),
            }
        if strategy is not None and strategy_mix is not None:
            raise ValueError("pass either strategy or strategy_mix, not both")
        self.strategy_mix: Optional[Dict[str, Dict[str, float]]] = None
        mix_input = (
            {"all": {strategy: 1.0}} if strategy is not None else strategy_mix
        )
        if mix_input is not None:
            from .. import strategy as strategy_layer

            # Validate eagerly (unknown names / bad fractions fail here);
            # a pure-reference mix is the default and keeps digests as-is.
            normalized = strategy_layer.normalize_mix(mix_input)
            if not strategy_layer.mix_is_default(normalized):
                self.strategy_mix = normalized
        self.content: Optional[Dict[str, object]] = None
        if content is not None:
            from .. import coding as coding_layer

            # Validate eagerly; plain replication is the default and
            # keeps digests exactly where they were.
            normalized_content = coding_layer.normalize_content(content)
            if not coding_layer.content_is_default(normalized_content):
                self.content = normalized_content
        self.workload: Optional[Dict[str, object]] = None
        if workload is not None:
            from .. import cdn as cdn_layer

            # Validate eagerly (malformed catalog/demand/origin specs
            # fail here); an empty workload is the default and keeps
            # digests exactly where they were.
            normalized_workload = cdn_layer.normalize_workload(workload)
            if not cdn_layer.workload_is_default(normalized_workload):
                self.workload = normalized_workload
        # `is not None`, not truthiness: an empty registry is falsy (len 0).
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(clock=time.perf_counter)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        name_or_scenario,
        overrides: Optional[Mapping[str, object]] = None,
    ) -> ScenarioRun:
        """Run one scenario end-to-end and assemble its result."""
        scn: Scenario = (
            name_or_scenario
            if isinstance(name_or_scenario, Scenario)
            else get_scenario(name_or_scenario)
        )
        params = scn.params(overrides)
        backend = scn.resolve_backend(self.backend)
        cells: List[Cell] = [(tuple(key), seed) for key, seed in scn.cells(params)]
        spec = ScenarioSpec.create(
            scn.name, params,
            seeds=sorted({seed for _, seed in cells}),
            description=scn.description,
            backend=backend,
            strategies=self.strategy_mix,
            content=self.content,
            workload=self.workload,
        )

        start = time.perf_counter()
        stats = RunnerStats(total_cells=len(cells))
        values: CellValues = {}
        failures: List[CellFailure] = []

        # Cache probe: anything already known is served without simulating.
        # A missed cell's digest is kept for its put.
        pending: List[Cell] = []
        digests: Dict[Cell, str] = {}
        if self.cache is not None:
            code = code_version()
            corrupt_before = self.cache.corrupt
            for cell in cells:
                digest = cell_digest(
                    spec, cell[0], cell[1], code, chaos=self.chaos_options
                )
                hit, value = self.cache.get(digest)
                if hit:
                    values[cell] = value
                    stats.cache_hits += 1
                else:
                    digests[cell] = digest
                    pending.append(cell)
        else:
            pending = list(cells)

        jobs = min(self.jobs, max(len(pending), 1))
        if jobs > 1 and tracing.installed():
            # Global trace sinks live in this process; simulators built in
            # pool workers would escape them.  Trace implies serial.
            self._emit_progress(
                f"[{scn.name}] trace sinks installed -> running serially"
            )
            jobs = 1

        module_name = type(scn).__module__
        payloads = [
            (
                module_name, scn.name, list(key), seed, params, self.retries,
                self.audit, self.cell_timeout, self.chaos_options, backend,
                self.strategy_mix, self.content, self.workload,
            )
            for key, seed in pending
        ]

        done = stats.cache_hits
        if payloads:
            if jobs == 1:
                outcomes = map(_execute_cell, payloads)
            else:
                # SQLite: no open connection across a fork (the puts reopen it).
                if self.cache is not None:
                    self.cache.close()
                pool = _pool_context().Pool(processes=jobs)
                outcomes = pool.imap_unordered(_execute_cell, payloads)
            observe = self.metrics.histogram("runner.cell_seconds").observe
            filed = {"scenario": scn.name, "backend": backend}
            try:
                for key_list, seed, ok, value, duration, attempts in outcomes:
                    cell = (tuple(key_list), seed)
                    stats.executed += 1
                    stats.retries += attempts - 1
                    stats.cell_seconds[cell] = duration
                    observe(duration)
                    if ok:
                        values[cell] = value
                        if self.cache is not None:
                            try:
                                self.cache.put(digests[cell], value, meta=dict(
                                    filed, seed=seed, key=key_list,
                                    seconds=duration, attempts=attempts,
                                ))
                            except (OSError, sqlite3.Error) as exc:
                                # A cache is an optimisation: the value stands, unfiled.
                                stats.cache_put_errors += 1
                                if stats.cache_put_errors == 1:
                                    self._emit_progress(
                                        f"[{scn.name}] cache put failed: {exc!r}"
                                    )
                    else:
                        failure = CellFailure(cell[0], seed, value, attempts)
                        failures.append(failure)
                        stats.failed += 1
                        self._emit_progress(f"[{scn.name}] FAILED {failure.summary()}")
                    done += 1
                    if self.progress is not None:
                        self.progress(
                            f"[{scn.name}] {done}/{stats.total_cells} cells "
                            f"({time.perf_counter() - start:.1f}s)"
                        )
            finally:
                if jobs > 1:
                    pool.close()
                    pool.join()

        if self.cache is not None:
            stats.cache_corrupt = self.cache.corrupt - corrupt_before
        stats.elapsed_s = time.perf_counter() - start
        self.metrics.counter("runner.cells").add(stats.total_cells)
        self.metrics.counter("runner.executed").add(stats.executed)
        self.metrics.counter("runner.cache_hits").add(stats.cache_hits)
        self.metrics.counter("runner.cache_corrupt").add(stats.cache_corrupt)
        self.metrics.counter("runner.cache_put_errors").add(stats.cache_put_errors)
        self.metrics.counter("runner.failures").add(stats.failed)
        self.metrics.counter("runner.retries").add(stats.retries)

        failures.sort(key=lambda f: (repr(f.key), f.seed))
        result = scn.assemble(params, values, failures)
        return ScenarioRun(
            spec=spec, result=result, values=values, failures=failures, stats=stats
        )

    # ------------------------------------------------------------------
    def _emit_progress(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)


def print_progress(line: str) -> None:
    """A ready-made progress callback: one line per event to stderr."""
    print(line, file=sys.stderr, flush=True)


def run_scenario(
    name: str,
    overrides: Optional[Mapping[str, object]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Progress] = None,
    audit: bool = False,
    cell_timeout: Optional[float] = None,
    chaos: Optional[str] = None,
    chaos_intensity: float = 1.0,
    chaos_horizon: float = 300.0,
    backend: Optional[str] = None,
    strategy: Optional[str] = None,
    strategy_mix: Optional[Mapping[str, object]] = None,
    content=None,
    workload: Optional[Mapping[str, object]] = None,
):
    """Run a registered scenario and return its ``ExperimentResult``.

    The convenience front door for library callers, the benchmarks, and
    ``scripts/generate_experiments_md.py``.  For the failure list and
    runner statistics, use :class:`Runner` directly.
    """
    runner = Runner(
        jobs=jobs, cache=cache, progress=progress, audit=audit,
        cell_timeout=cell_timeout, chaos=chaos,
        chaos_intensity=chaos_intensity, chaos_horizon=chaos_horizon,
        backend=backend, strategy=strategy, strategy_mix=strategy_mix,
        content=content, workload=workload,
    )
    return runner.run(name, overrides).result
