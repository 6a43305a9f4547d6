"""Typed, hashable scenario specifications and content hashing.

A :class:`ScenarioSpec` pins down *everything* that determines a
scenario's results: the scenario name, the full parameter set (defaults
merged with overrides, canonicalised to JSON so ``(0.0, 5e-6)`` and
``[0.0, 5e-6]`` are the same spec), the seeds its cells run under, and
the scenario axes (:mod:`repro.runner.axes`) that are not at their default.
Two specs are equal exactly when they would produce identical results on
the same code, which makes the spec the natural cache key:
:func:`cell_digest` combines the spec identity with a cell's key/seed and
:func:`code_version` (a content hash over every ``repro`` source file) so
any code change invalidates previous results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .axes import non_default


def canonical_json(value: object) -> str:
    """Canonical JSON text for ``value`` (sorted keys, no whitespace).

    Raises :class:`TypeError` when ``value`` contains anything JSON
    cannot represent — scenario parameters must be plain data so they
    can be hashed, cached, and shipped to worker processes.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"scenario parameters must be JSON-serialisable: {exc}"
        ) from exc


def freeze_params(params: Mapping[str, object]) -> Dict[str, object]:
    """Canonicalise a parameter mapping through a JSON round-trip.

    Tuples become lists, dict keys become strings — the exact value a
    worker process (or a cache hit) would see, so a spec built from
    tuples and one built from lists are the same spec.
    """
    return json.loads(canonical_json(dict(params)))


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified experiment: name + canonical params + seeds + axes.

    Hashable and comparable by value; ``params_json`` (not the mapping
    itself) carries the parameter identity so the dataclass stays
    frozen/hashable while :attr:`params` offers the convenient dict view.

    ``axes_json`` carries the canonical values of every scenario axis
    (:mod:`repro.runner.axes`: backend, chaos, strategies, content,
    workload) that is not at its default, and :meth:`spec_hash` and
    :func:`cell_digest` fold each under its own name — so a spec with
    every axis at its default hashes exactly as it did before the axes
    existed, while every distinct non-default combination (a fluid
    backend, a chaos preset, a strategy mix, ...) caches disjointly.
    """

    name: str
    params_json: str
    seeds: Tuple[int, ...] = ()
    description: str = field(default="", compare=False)
    axes_json: str = ""

    @classmethod
    def create(
        cls,
        name: str,
        params: Optional[Mapping[str, object]] = None,
        seeds: Sequence[int] = (),
        description: str = "",
        **axes: object,
    ) -> "ScenarioSpec":
        """Build a spec; ``axes`` are raw axis values (``backend="fluid"``, ...)."""
        folded = non_default(axes)
        return cls(
            name=name,
            params_json=canonical_json(dict(params or {})),
            seeds=tuple(int(s) for s in seeds),
            description=description,
            axes_json=canonical_json(folded) if folded else "",
        )

    @property
    def params(self) -> Dict[str, object]:
        """The canonical parameter mapping (a fresh dict each call)."""
        return json.loads(self.params_json)

    @property
    def axes(self) -> Dict[str, object]:
        """The non-default axis values (a fresh dict each call)."""
        return json.loads(self.axes_json) if self.axes_json else {}

    @cached_property
    def _folded(self) -> Tuple[Tuple[str, object], ...]:
        """:attr:`axes` as pairs, parsed once for the per-cell digests."""
        return tuple(self.axes.items())

    @property
    def backend(self) -> str:
        """The simulation tier the cells run on."""
        return str(dict(self._folded).get("backend", "packet"))

    def spec_hash(self) -> str:
        """Content hash of the spec itself (name + params + seeds + axes)."""
        body: Dict[str, object] = {
            "name": self.name, "params": self.params, "seeds": list(self.seeds)
        }
        body.update(self._folded)
        payload = canonical_json(body)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash over every ``repro`` source file (cached per process).

    Keys the result cache alongside the spec, so editing *any* library
    code invalidates previously cached cells — stale results can never
    masquerade as fresh ones after a refactor.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def cell_digest(
    spec: ScenarioSpec,
    key: Tuple[object, ...],
    seed: int,
    code: Optional[str] = None,
) -> str:
    """The content address of one (scenario, cell, seed) result.

    Folds the spec's non-default axes the way :meth:`ScenarioSpec.spec_hash`
    does, so runs that differ in any axis never share a cache address.
    """
    body: Dict[str, object] = {
        "scenario": spec.name,
        "params": spec.params,
        "key": list(key),
        "seed": seed,
        "code": code if code is not None else code_version(),
    }
    body.update(spec._folded)
    payload = canonical_json(body)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
