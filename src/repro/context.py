"""The run context: the one place ambient state lives.

Experiments build their simulators and swarms internally, yet a
campaign's chaos preset, strategy mix, content mode and CDN workload
must reach every swarm a cell builds, and the audit mode and trace sinks
must reach every simulator.  Those values live in one dict here, read
through :func:`get` and set by :func:`scope`, which restores the
previous dict when the block ends however it ends — so nothing entered
for one cell can outlive it::

    from repro import context

    with context.scope(content="group:4/6") as reads:
        run_cell(...)        # SwarmScenario reads context.get("content")
    # reads holds the names looked up inside the block

``None`` means "not set": ``scope(chaos=None)`` hides an outer value.
This module imports nothing from ``repro``, so any layer can read it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Set

_active: Dict[str, object] = {}
_reads: Set[str] = set()


def get(name: str) -> Optional[object]:
    """The active value of ``name`` (``None`` when unset); records the read."""
    _reads.add(name)
    return _active.get(name)


def active() -> Dict[str, object]:
    """A copy of everything set right now (not recorded as a read)."""
    return dict(_active)


def update(**values: object) -> Dict[str, object]:
    """Overlay ``values`` with no block to undo it; returns the replaced state.

    Only for APIs that cannot be a ``with`` block
    (:func:`repro.obs.tracing.install`); an enclosing :func:`scope` still
    undoes it when it ends.
    """
    global _active
    previous = _active
    merged = dict(previous)
    merged.update(values)
    _active = {name: value for name, value in merged.items() if value is not None}
    return previous


@contextmanager
def scope(**values: object) -> Iterator[Set[str]]:
    """Overlay ``values`` for the block; yields the names read inside it."""
    global _active, _reads
    outer_reads = _reads
    previous = update(**values)
    _reads = reads = set()
    try:
        yield reads
    finally:
        _active = previous
        outer_reads |= reads
        _reads = outer_reads
