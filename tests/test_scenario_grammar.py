"""The scenario grammar, one aspect per test: the ``grammar`` rows of
``scripts/pins.py`` against ``cells()`` and ``assemble()`` of today
(re-assembled from the recorded values; no simulation)."""

import functools

import pins


@functools.lru_cache(maxsize=None)
def _rows() -> tuple:
    pinned = pins.load("grammar")
    return pinned, {name: row() for name, row in pins.TIERS["grammar"](pinned).items()}


def _pinned_and_current(key: str) -> list:
    return [{name: row.get(key) for name, row in rows.items()} for rows in _rows()]


def test_every_scenario_is_pinned():
    assert sorted(_rows()[0]) == sorted(_rows()[1])


def test_cells_at_default_params_are_unchanged():
    pinned, current = _pinned_and_current("cells")
    assert pinned == current


def test_fluid_groups_keep_their_first_seed():
    pinned, current = _pinned_and_current("first_seed")
    assert pinned == current


def test_assemble_is_bit_identical_on_recorded_values():
    pinned, current = _pinned_and_current("assembled")
    assert pinned == current
