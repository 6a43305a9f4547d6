"""The scenario base class and the ``@scenario`` registry.

A *scenario* is one declarative experiment: a name, a description, a
defaults mapping, and four methods —

* :meth:`Scenario.cells` enumerates the independent simulation cells
  (``(key, seed)`` pairs) the experiment consists of — by default
  ``runs`` seeds from ``base_seed`` at every key :meth:`Scenario.grid`
  declares;
* :meth:`Scenario.run_cell` runs exactly one cell (one seeded
  simulation) and returns a plain-data value;
* :meth:`Scenario.assemble` folds the per-cell values back into an
  :class:`~repro.analysis.series.ExperimentResult` — by default the
  scenario's :meth:`Scenario.series` under its class metadata
  (``figure``, ``title``, axis labels, ``paper_expectation``, and the
  params it ``reports``), built by :meth:`Scenario.result`;
* :meth:`Scenario.check` states the scenario's claims about a finished
  run as named :class:`Verdict` objects — the one place a paper claim or
  CI gate is decided (``run NAME --check``, tests, CI and the
  EXPERIMENTS.md generator all call it).

Because every cell is self-contained (the sim kernel's ``RngRegistry``
derives all randomness from the cell's seed), the
:class:`~repro.runner.runner.Runner` can execute cells in any order, on
any number of worker processes, or serve them from cache — the assembled
result is identical.

``@scenario`` registers a :class:`Scenario` subclass under its ``name``;
``repro.experiments`` registers one scenario per paper figure at import
time, so ``import repro.experiments`` populates the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Type,
)

from ..analysis.series import ExperimentResult, Series
from .spec import freeze_params

if TYPE_CHECKING:
    from .runner import ScenarioRun

CellKey = Tuple[object, ...]
Cell = Tuple[CellKey, int]
CellValues = Dict[Cell, object]


@dataclass(frozen=True)
class Verdict:
    """One named pass/fail decision about a run, with the numbers behind it.

    ``observed`` holds plain data (JSON-serialisable) so a verdict can be
    printed, shipped in ``--json`` output and quoted in EXPERIMENTS.md.
    """

    name: str
    ok: bool
    observed: Dict[str, object] = field(default_factory=dict)

    def line(self) -> str:
        """``PASS name: key=value, ...`` (``FAIL`` when not ``ok``)."""
        numbers = ", ".join(f"{k}={_fmt(v)}" for k, v in self.observed.items())
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}" + (
            f": {numbers}" if numbers else ""
        )


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in value.items()) + "}"
    return str(value)


class UnknownScenarioError(KeyError):
    """Raised for a scenario name absent from the registry."""

    def __init__(self, name: str, known: Iterable[str]) -> None:
        known_names = ", ".join(sorted(known)) or "<none registered>"
        super().__init__(
            f"unknown scenario {name!r}; known scenarios: {known_names}"
        )
        self.name = name


class Scenario:
    """Base class for declarative experiments (see module docstring).

    Subclasses set :attr:`name`, :attr:`description`, :attr:`defaults`
    and the result metadata, then implement :meth:`grid`,
    :meth:`run_cell` and :meth:`series` (or override :meth:`cells` /
    :meth:`assemble` where their rule really differs).  Parameter
    overrides are validated against the defaults, so a typo'd key fails
    fast instead of silently running the default campaign.
    """

    name: str = ""
    description: str = ""
    defaults: Mapping[str, object] = {}
    #: Simulation backends this scenario supports, most-preferred first;
    #: the first entry is the default when the runner is not given one.
    #: Scenarios offering ``"fluid"`` implement :meth:`run_cell_fluid`.
    backends: Tuple[str, ...] = ("packet",)
    #: Result metadata.  ``figure`` and ``title`` are ``str.format``
    #: templates over the params (``"{preset} preset"``).
    figure: str = ""
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    paper_expectation: str = ""
    notes: str = ""
    #: Params copied into the result's ``parameters``: reported name ->
    #: param name.
    reports: Mapping[str, str] = {}

    # ------------------------------------------------------------------
    # Parameters and spec construction
    # ------------------------------------------------------------------
    def params(self, overrides: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """Defaults merged with ``overrides``, canonicalised to JSON types."""
        merged = dict(self.defaults)
        if overrides:
            unknown = sorted(set(overrides) - set(merged))
            if unknown:
                raise ValueError(
                    f"unknown parameter(s) {unknown} for scenario "
                    f"{self.name!r}; accepted: {sorted(merged)}"
                )
            merged.update(overrides)
        return freeze_params(merged)

    def resolve_backend(self, backend: Optional[str]) -> str:
        """Validate ``backend`` against :attr:`backends` (None = default)."""
        if backend is None:
            return self.backends[0]
        if backend not in self.backends:
            raise ValueError(
                f"scenario {self.name!r} does not support backend "
                f"{backend!r} (supported: {', '.join(self.backends)})"
            )
        return backend

    # ------------------------------------------------------------------
    # The sweep grammar: a grid, a cell function, a series list
    # ------------------------------------------------------------------
    def grid(self, params: Mapping[str, object]) -> Iterable[CellKey]:
        """The campaign's cell keys, in run order."""
        raise NotImplementedError

    def cells(self, params: Mapping[str, object]) -> Iterator[Cell]:
        """Yield every independent ``(key, seed)`` cell of the campaign.

        By default: seeds ``base_seed .. base_seed + runs - 1`` at every
        :meth:`grid` key."""
        for key in self.grid(params):
            for r in range(params["runs"]):
                yield key, params["base_seed"] + r

    def run_cell(self, key: CellKey, seed: int, params: Mapping[str, object]) -> object:
        """Run one cell (one seeded simulation); return plain data."""
        raise NotImplementedError

    def run_cell_fluid(
        self, key: CellKey, seed: int, params: Mapping[str, object]
    ) -> object:
        """Run one cell on the mean-field fluid backend (:mod:`repro.scale`).

        Only scenarios listing ``"fluid"`` in :attr:`backends` implement
        this; the result must be plain data of the same shape
        :meth:`run_cell` returns so :meth:`assemble` works unchanged.
        It must not depend on ``seed``: the runner computes it once per
        key and gives that value to every seed.
        """
        raise NotImplementedError(
            f"scenario {self.name!r} has no fluid backend "
            f"(supported: {', '.join(self.backends)})"
        )

    def run_cell_hybrid(
        self, key: CellKey, seed: int, params: Mapping[str, object]
    ) -> object:
        """Run one cell on the hybrid multi-resolution backend
        (:mod:`repro.scale.hybrid`: packet focal hosts in a fluid
        background).  Only scenarios listing ``"hybrid"`` in
        :attr:`backends` implement this."""
        raise NotImplementedError(
            f"scenario {self.name!r} has no hybrid backend "
            f"(supported: {', '.join(self.backends)})"
        )

    def cell_runner(self, backend: str):
        """The per-cell entry point for ``backend`` (validated name)."""
        runners = {
            "packet": self.run_cell,
            "fluid": self.run_cell_fluid,
            "hybrid": self.run_cell_hybrid,
        }
        try:
            return runners[backend]
        except KeyError:
            raise ValueError(f"unknown backend {backend!r}") from None

    def series(self, params: Mapping[str, object], values: CellValues) -> List[Series]:
        """The result's curves, aggregated over the surviving cells.

        :func:`repro.analysis.sweep` builds a per-point mean ± CI curve."""
        raise NotImplementedError

    def assemble(
        self,
        params: Mapping[str, object],
        values: CellValues,
        failures: List["CellFailureLike"],
    ) -> ExperimentResult:
        """Fold per-cell values into an ``ExperimentResult``.

        ``values`` maps ``(key, seed)`` to the cell's value; cells that
        failed (after retry) are absent and listed in ``failures``, so
        implementations aggregate over whatever survived.
        """
        return self.result(params, self.series(params, values))

    def result(
        self,
        params: Mapping[str, object],
        series: List[Series],
        parameters: Optional[Mapping[str, object]] = None,
        **fields: str,
    ) -> ExperimentResult:
        """``series`` as an ``ExperimentResult`` under the class metadata.

        ``fields`` override the metadata; ``parameters`` add to the
        :attr:`reports` params."""
        meta = dict(
            figure=self.figure.format(**params), title=self.title.format(**params),
            x_label=self.x_label, y_label=self.y_label,
            paper_expectation=self.paper_expectation, notes=self.notes,
        )
        meta.update(fields)
        reported = {name: params[key] for name, key in self.reports.items()}
        return ExperimentResult(
            series=series, parameters={**reported, **(parameters or {})}, **meta
        )

    def check(self, run: "ScenarioRun") -> List[Verdict]:
        """The scenario's claims about a finished run, one verdict each.

        ``run`` carries the spec (``run.spec.backend``,
        ``run.spec.params``) and the assembled result, so one function
        states the threshold of a claim on every backend.  A claim whose
        numbers are missing or NaN (a grid point that lost every seed)
        fails rather than raising.  The default states no claims.
        """
        return []


class CellFailureLike:
    """Protocol stand-in: anything with ``key``/``seed``/``error``."""

    key: CellKey
    seed: int
    error: str


_REGISTRY: Dict[str, Scenario] = {}


def scenario(cls: Type[Scenario]) -> Type[Scenario]:
    """Class decorator: instantiate and register a :class:`Scenario`.

    >>> @scenario
    ... class Demo(Scenario):
    ...     name = "demo"
    ...     ...

    Re-registering a name raises — two experiments silently shadowing
    each other is exactly the failure mode a registry exists to prevent.
    (Re-evaluating the *same* class, e.g. via ``importlib.reload``, is
    allowed.)
    """
    instance = cls()
    if not instance.name:
        raise ValueError(f"scenario class {cls.__name__} must set a name")
    existing = _REGISTRY.get(instance.name)
    if existing is not None and type(existing).__qualname__ != cls.__qualname__:
        raise ValueError(f"scenario {instance.name!r} is already registered")
    _REGISTRY[instance.name] = instance
    return cls


def get_scenario(name: str) -> Scenario:
    """The registered scenario called ``name``.

    Raises :class:`UnknownScenarioError` (listing known names) otherwise.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, _REGISTRY) from None


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def collect(values: CellValues, key: CellKey) -> List[object]:
    """Values of every surviving cell with ``key``, in ascending seed order.

    The deterministic aggregation primitive: results arrive from workers
    in completion order, but assembly must not depend on it.
    """
    matching = [(seed, value) for (k, seed), value in values.items() if k == key]
    return [value for _, value in sorted(matching, key=lambda item: item[0])]
