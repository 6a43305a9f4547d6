"""One summation rule for the whole library (``repro.summation``).

From Python 3.12 builtin ``sum()`` of floats is compensated, so a run
that sums into its trajectory would give different results on 3.11 and
3.12.  The packet and fluid pins (``scripts/pins.py``,
``tests/data/pins/``) were recorded with left-to-right sums; these
tests keep every sum in ``src/repro`` on that rule.
"""

from __future__ import annotations

import ast
import pathlib

from repro.summation import left_sum

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def test_left_sum_is_uncompensated():
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([0.1] * 10) == 0.9999999999999999


def test_left_sum_keeps_builtin_sum_semantics():
    assert left_sum([]) == 0
    assert left_sum(x for x in range(5)) == 10
    assert left_sum([True, False, True]) == 2
    assert left_sum([2.5], 1) == 3.5


def test_no_builtin_sum_call_left_in_the_library():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found
