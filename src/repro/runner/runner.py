"""The parallel, cache-aware experiment runner.

:class:`Runner` executes a scenario's independent cells — serially in
process for ``jobs=1``, or fanned out over a ``multiprocessing`` pool
for ``jobs=N`` — then hands the collected values to the scenario's
``assemble`` hook.  Around that core it provides:

* **Caching** — give the runner a :class:`~repro.runner.cache.ResultCache`
  and every cell is looked up by content digest before it is simulated;
  a warm cache re-run executes zero simulations.
* **Seed-free sharing** — on a backend in
  :data:`~repro.runner.axes.SEED_FREE_BACKENDS` a cell is identified by
  its key alone: the key's first seed is computed and cached once, and
  every other seed of that key gets the same value object.
* **Failure capture** — a cell that raises is recorded as a
  :class:`CellFailure` with its traceback, and not re-run: a seeded cell
  fails the same way every time.  The campaign continues and
  ``assemble`` aggregates over the surviving seeds.  A dead seed is
  reported, never fatal.
* **Accounting** — per-cell wall timing and cache hit/miss counts go
  into the run's :class:`RunnerStats`, and progress lines into an
  optional callback.
* **Determinism** — values are canonicalised through JSON whether they
  came from a worker or the cache, and aggregation order is fixed by
  the cell enumeration, so ``jobs=1`` and ``jobs=N`` produce
  bit-identical results.

* **Scenario axes** — ``Runner(chaos="churn", strategies="freerider",
  ...)`` takes one keyword per :data:`~repro.runner.axes.AXES` entry;
  each cell runs inside the run context (:mod:`repro.context`) holding
  them, and an axis no executed cell read is reported as having had no
  effect.

When trace sinks are active in the run context
(``repro.obs.tracing.install`` / the CLI's ``--trace``), the runner
degrades to serial execution: sinks live in this process, and
simulators created inside pool workers would escape capture.
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
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from .. import context
from ..obs import tracing
from .axes import AXES, SEED_FREE_BACKENDS, activate, normalize_axes
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
    """One cell that raised."""

    key: CellKey
    seed: int
    error: str

    def summary(self) -> str:
        last_line = self.error.strip().splitlines()[-1] if self.error else "?"
        return f"cell {self.key!r} seed {self.seed}: {last_line}"


@dataclass
class RunnerStats:
    """What one :meth:`Runner.run` actually did."""

    total_cells: int = 0
    #: Computations run (a seed-free group counts once).
    executed: int = 0
    #: Cells served from the cache, every member of a cached group.
    cache_hits: int = 0
    #: Cells given a value computed for another seed of their key.
    shared: int = 0
    failed: int = 0
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
        shared = f"{self.shared} shared, " if self.shared else ""
        return (
            f"{self.total_cells} cells: {self.executed} executed, {shared}"
            f"{self.cache_hits} cache hits, {corrupt}{unfiled}{self.failed} failed "
            f"[{self.elapsed_s:.1f}s]"
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
        str, str, list, int, Mapping[str, object], bool,
        Optional[float], Mapping[str, object],
    ]
):
    """Worker entry point: run one cell, once, in its run context.

    Module-level (picklable) and self-bootstrapping: it imports the
    scenario's defining module first, so it works under both ``fork``
    and ``spawn`` start methods.  It activates the cell's axes and
    enters them — with the audit options when the payload's audit flag
    is set — into the run context (:mod:`repro.context`) *inside* the
    ``try``: an activation that raises is a cell failure like any other,
    and the context is restored however the cell ends, so a reused pool
    worker starts every cell clean.  An audit violation surfaces as an
    ordinary failure carrying the ``AuditViolation`` traceback, and so
    does a :class:`CellTimeout` (the ``cell_timeout`` budget expiring).
    The outcome ends with the context names the cell read.
    """
    (
        module_name, scenario_name, key_list, seed, params,
        audit_on, cell_timeout, axes,
    ) = payload
    importlib.import_module(module_name)
    scn = get_scenario(scenario_name)
    start = time.perf_counter()
    with context.scope() as read:
        try:
            ambient = activate(axes)
            with context.scope(audit=True if audit_on else None, **ambient), \
                    _cell_deadline(cell_timeout):
                run_cell = scn.cell_runner(context.get("backend") or "packet")
                value = run_cell(tuple(key_list), seed, params)
        except Exception:
            return (
                key_list, seed, False, traceback.format_exc(),
                time.perf_counter() - start, sorted(read),
            )
        return (
            key_list, seed, True, _canonical_value(value),
            time.perf_counter() - start, sorted(read),
        )


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
    exceeds it becomes a :class:`CellFailure` instead of hanging the
    campaign.

    The remaining keywords are scenario axes, one per
    :data:`~repro.runner.axes.AXES` entry: ``backend=`` (``None`` = the
    scenario's preferred one), ``chaos=`` (a :mod:`repro.chaos` preset
    name or ``{preset, intensity, horizon}``), ``strategies=`` (a
    :mod:`repro.strategy` name or mix), ``content=`` (a
    :mod:`repro.coding` mode) and ``workload=`` (a :mod:`repro.cdn`
    ``{catalog, demand, origin}`` mapping).  They are validated here,
    kept in :attr:`axes` in canonical form (defaults dropped), folded
    into the spec hash and cell digests when non-default — so results
    stay cacheable, at addresses disjoint from the default run's — and
    entered into the run context around every cell.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[Progress] = None,
        audit: bool = False,
        cell_timeout: Optional[float] = None,
        **axes: object,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")
        self.jobs = jobs
        # An audited run must actually simulate: cached values were (or
        # would be) produced without the checkers, so caching is disabled
        # in both directions while auditing.
        self.cache = None if audit else cache
        self.audit = audit
        self.progress = progress
        self.cell_timeout = cell_timeout
        self.axes = normalize_axes(axes)

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
        cells: List[Cell] = [(tuple(key), seed) for key, seed in scn.cells(params)]
        if not cells:
            raise ValueError(f"scenario {scn.name!r} has no cells at these parameters")
        spec = ScenarioSpec.create(
            scn.name, params,
            seeds=sorted({seed for _, seed in cells}),
            description=scn.description,
            **dict(self.axes, backend=scn.resolve_backend(self.axes.get("backend"))),
        )
        if self.audit and spec.backend == "fluid":
            # repro.audit checks packet hosts only (hybrid focal hosts
            # are packet hosts): an audited fluid run would check nothing.
            raise ValueError(
                f"scenario {scn.name!r}: audit has no checker for the fluid "
                "tier; audit the packet or hybrid backend"
            )

        start = time.perf_counter()
        stats = RunnerStats(total_cells=len(cells))
        got: Dict[Cell, object] = {}  # group representative -> value
        failures: List[CellFailure] = []

        # Groups, each computed once by its representative (its first cell):
        # on a seed-free backend all cells of one key, else each cell alone.
        seed_free = spec.backend in SEED_FREE_BACKENDS
        firsts: Dict[CellKey, Cell] = {}
        group_of = {
            cell: firsts.setdefault(cell[0], cell) if seed_free else cell
            for cell in cells
        }
        members: Dict[Cell, List[Cell]] = {}
        for cell in cells:
            members.setdefault(group_of[cell], []).append(cell)

        # Cache probe, one per group under its representative's digest:
        # anything already known is served without simulating.  A missed
        # group's digest is kept for its put.
        pending: List[Cell] = []
        digests: Dict[Cell, str] = {}
        if self.cache is not None:
            code = code_version()
            corrupt_before = self.cache.corrupt
            for rep, group in members.items():
                digest = cell_digest(spec, rep[0], rep[1], code)
                hit, value = self.cache.get(digest)
                if hit:
                    got[rep] = value
                    stats.cache_hits += len(group)
                else:
                    digests[rep] = digest
                    pending.append(rep)
        else:
            pending = list(members)

        jobs = min(self.jobs, max(len(pending), 1))
        if jobs > 1 and tracing.installed():
            # Trace sinks live in this process; simulators built in pool
            # workers would escape them.  Trace implies serial.
            self._emit_progress(
                f"[{scn.name}] trace sinks installed -> running serially"
            )
            jobs = 1

        module_name, axes = type(scn).__module__, spec.axes
        payloads = [
            (
                module_name, scn.name, list(key), seed, params,
                self.audit, self.cell_timeout, axes,
            )
            for key, seed in pending
        ]

        done = stats.cache_hits
        read: Set[str] = set()  # run-context names the executed cells read
        if payloads:
            if jobs == 1:
                outcomes = map(_execute_cell, payloads)
            else:
                # SQLite: no open connection across a fork (the puts reopen it).
                if self.cache is not None:
                    self.cache.close()
                pool = _pool_context().Pool(processes=jobs)
                outcomes = pool.imap_unordered(_execute_cell, payloads)
            filed = {"scenario": scn.name, "backend": spec.backend}
            try:
                for key_list, seed, ok, value, duration, names in outcomes:
                    cell = (tuple(key_list), seed)
                    group = members[cell]
                    stats.executed += 1
                    read.update(names)
                    stats.cell_seconds[cell] = duration
                    if ok:
                        got[cell] = value
                        if self.cache is not None:
                            try:
                                self.cache.put(digests[cell], value, meta=dict(
                                    filed, seed=seed, key=key_list,
                                    seconds=duration,
                                ))
                            except (OSError, sqlite3.Error) as exc:
                                # A cache is an optimisation: the value stands, unfiled.
                                stats.cache_put_errors += 1
                                if stats.cache_put_errors == 1:
                                    self._emit_progress(
                                        f"[{scn.name}] cache put failed: {exc!r}"
                                    )
                    else:
                        for member_key, member_seed in group:
                            failure = CellFailure(member_key, member_seed, value)
                            failures.append(failure)
                            self._emit_progress(f"[{scn.name}] FAILED {failure.summary()}")
                        stats.failed += len(group)
                    done += len(group)
                    if self.progress is not None:
                        self.progress(
                            f"[{scn.name}] {done}/{stats.total_cells} cells "
                            f"({time.perf_counter() - start:.1f}s)"
                        )
            finally:
                if jobs > 1:
                    pool.close()
                    pool.join()
            for name in self.axes:
                if name not in read:
                    self._emit_progress(
                        f"[{scn.name}] {AXES[name].label} had no effect: "
                        f"no cell read it"
                    )

        # Every member gets its group's value object, in cell order.
        values: CellValues = {
            cell: got[group_of[cell]] for cell in cells if group_of[cell] in got
        }
        if self.cache is not None:
            stats.cache_corrupt = self.cache.corrupt - corrupt_before
        stats.shared = stats.total_cells - stats.executed - stats.cache_hits
        stats.elapsed_s = time.perf_counter() - start

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

