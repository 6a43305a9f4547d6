"""Scenario axes: the knobs besides a scenario's own parameters that
change its results, each declared once in :data:`AXES`.

An :class:`Axis` is a name plus

* ``normalize(value)`` — validate eagerly (a bad value fails when the
  :class:`~repro.runner.Runner` is built, never mid-campaign) and return
  the canonical JSON-able value, or ``None`` for "the default";
* ``default`` — a canonical value that changes nothing, when the axis
  has one besides ``None`` (``backend="packet"``);
* ``flags`` / ``from_flags`` — the CLI spellings and how their parsed
  values combine into one raw axis value;
* ``activate(value)`` — what the run context (:mod:`repro.context`)
  holds under the axis name while a cell runs; the canonical value
  itself unless the readers want something built from it.

Everything else is one generic path: ``Runner(**axes)`` normalises,
:class:`~repro.runner.spec.ScenarioSpec` folds every non-default value
into ``spec_hash`` and ``cell_digest`` under the axis name (so a run
with every axis at its default keeps the digest it had before the axes
existed), the worker payload ships the mapping, and the worker
activates it into the run context for exactly one cell.  Layers are
imported inside the normalisers, so importing the runner stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

#: The simulation backends a scenario can run on.  ``"packet"`` is the
#: packet-level discrete-event simulator (the ground truth); ``"fluid"``
#: is the :mod:`repro.scale` mean-field engine for very large swarms;
#: ``"hybrid"`` couples packet-level focal hosts to a fluid background
#: (:mod:`repro.scale.hybrid`).
BACKENDS: Tuple[str, ...] = ("packet", "fluid", "hybrid")

#: Backends whose cells never read their seed: the runner computes one
#: value per cell key and gives it to every seed of that key.
SEED_FREE_BACKENDS: Tuple[str, ...] = ("fluid",)

# Names an axis cannot take: the other keys of the spec-hash and
# cell-digest bodies, and the run context's non-axis entries.
_RESERVED = (
    "name", "params", "seeds", "scenario", "key", "seed", "code",
    "audit", "auditors", "trace",
)


def _same(value: object) -> object:
    return value


@dataclass(frozen=True)
class Axis:
    """One scenario axis (see the module docstring)."""

    name: str
    normalize: Callable[[object], object]
    default: object = None
    flags: Tuple[str, ...] = ()
    from_flags: Callable[..., object] = _same
    activate: Callable[[object], object] = _same

    def __post_init__(self) -> None:
        if self.name in _RESERVED:
            raise ValueError(f"axis name {self.name!r} is reserved")

    @property
    def label(self) -> str:
        """How messages name the axis: its first CLI flag, else its name."""
        return self.flags[0] if self.flags else self.name


def _backend(value: object) -> object:
    if value not in BACKENDS:
        raise ValueError(
            f"unknown backend {value!r}; choose from {', '.join(BACKENDS)}"
        )
    return value


def _chaos(value: object) -> Dict[str, object]:
    """A preset name or ``{preset, intensity, horizon}`` -> all three."""
    options = {"preset": value} if isinstance(value, str) else dict(value)  # type: ignore[call-overload]
    unknown = sorted(set(options) - {"preset", "intensity", "horizon"})
    if unknown:
        raise ValueError(f"unknown chaos option(s) {unknown}")
    canonical = {
        "preset": str(options.get("preset")),
        "intensity": float(options.get("intensity", 1.0)),  # type: ignore[arg-type]
        "horizon": float(options.get("horizon", 300.0)),  # type: ignore[arg-type]
    }
    _chaos_schedule(canonical)  # unknown presets and bad numbers fail here
    return canonical


def _chaos_schedule(options: Mapping[str, object]):
    from ..chaos import preset_schedule

    return preset_schedule(
        str(options["preset"]), float(options["intensity"]), float(options["horizon"])  # type: ignore[arg-type]
    )


def _chaos_flags(preset, intensity, horizon) -> Optional[Dict[str, object]]:
    if preset is None:
        return None
    return {"preset": preset, "intensity": intensity, "horizon": horizon}


def _strategies(value: object) -> object:
    from ..strategy import mix_is_default, normalize_mix

    mix = normalize_mix(value)  # type: ignore[arg-type]
    return None if mix_is_default(mix) else mix


def _strategies_flags(name, mix) -> object:
    if name is not None and mix is not None:
        raise ValueError("pass either --strategy or --strategy-mix, not both")
    return name if mix is None else mix


def _content(value: object) -> object:
    from ..coding import content_is_default, normalize_content

    content = normalize_content(value)  # type: ignore[arg-type]
    return None if content_is_default(content) else content


def _workload(value: object) -> object:
    from ..cdn import normalize_workload

    return normalize_workload(value)  # type: ignore[arg-type]


def _workload_flags(catalog, demand) -> Optional[Dict[str, object]]:
    given = {"catalog": catalog, "demand": demand}
    return {key: value for key, value in given.items() if value is not None} or None


#: Every axis, in registry order.  Adding one is adding an entry here
#: (plus its argparse flags in ``repro.experiments.__main__``).
AXES: Dict[str, Axis] = {
    axis.name: axis
    for axis in (
        Axis("backend", _backend, default="packet", flags=("--backend",)),
        Axis(
            "chaos", _chaos,
            flags=("--chaos", "--chaos-intensity", "--chaos-horizon"),
            from_flags=_chaos_flags, activate=_chaos_schedule,
        ),
        Axis(
            "strategies", _strategies, flags=("--strategy", "--strategy-mix"),
            from_flags=_strategies_flags,
        ),
        Axis("content", _content, flags=("--content",)),
        Axis(
            "workload", _workload, flags=("--catalog", "--demand"),
            from_flags=_workload_flags,
        ),
    )
}


def normalize_axes(values: Mapping[str, object]) -> Dict[str, object]:
    """``{axis: raw value}`` -> canonical values, ``None`` results dropped.

    Raises :class:`TypeError` for a name no axis has and whatever the
    axis's ``normalize`` raises for a bad value.
    """
    out: Dict[str, object] = {}
    for name, value in values.items():
        axis = AXES.get(name)
        if axis is None:
            raise TypeError(f"unknown scenario axis {name!r}; known: {', '.join(AXES)}")
        canonical = None if value is None else axis.normalize(value)
        if canonical is not None:
            out[name] = canonical
    return out


def non_default(values: Mapping[str, object]) -> Dict[str, object]:
    """The canonical values of ``values`` that change results."""
    return {
        name: value for name, value in normalize_axes(values).items()
        if value != AXES[name].default
    }


def activate(axes: Mapping[str, object]) -> Dict[str, object]:
    """What the run context holds for canonical ``axes`` during a cell."""
    return {name: AXES[name].activate(value) for name, value in axes.items()}
