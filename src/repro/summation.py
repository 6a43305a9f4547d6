"""Left-to-right summation, the same on every Python.

Builtin ``sum()`` of floats is compensated from 3.12, so
``sum([1e16, 1.0, -1e16])`` is 1.0 there and 0.0 before.  Every sum in
``repro`` is :func:`left_sum`; this module imports nothing from ``repro``.
"""

import sys
from functools import reduce
from operator import add

if sys.version_info >= (3, 12):
    def left_sum(values, start=0):
        """``start + v0 + v1 + ...``, added in order, uncompensated."""
        return reduce(add, values, start)
else:
    left_sum = sum  # the same left-to-right loop, at C speed
