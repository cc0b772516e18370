"""A fixed pure-Python kernel that gauges how fast the machine runs now.

The machine the benchmark runs on may be shared: for minutes at a time
the same code can run up to 1.8 times slower. `run.py` times this kernel
right before and right after every question and scales the question's
time by `REFERENCE_S` over the kernel's mean time around it, so that
every reported time reads as it would at the reference speed. The kernel
does the kind of work `verlinde` does (nested loops over small ints,
tuple and dict look-ups, generator sums, `Fraction` arithmetic) and
never changes, so a change to the library moves the scaled times and not
the kernel.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the kernel's time between questions on a 2-core x86-64 VM with
# Python 3.11 in a fast spell (in a slow one it takes about 0.85 ms).
REFERENCE_S = 0.45e-3

_N = 5
_TABLE = {(a, b): (a * b + 1) % 3 for a in range(_N) for b in range(_N)}
_MATRIX = [[Fraction(i + 1, j + 2) for j in range(4)] for i in range(4)]


def _kernel() -> int:
    table, n = _TABLE, _N
    total = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                total += sum(table[a, d] * table[d, c] for d in range(n))
                total -= table[b, c]
    m = _MATRIX
    prod = [[sum((m[i][k] * m[k][j] for k in range(4)), Fraction(0))
             for j in range(4)] for i in range(4)]
    return total + prod[3][3].numerator


def scale(times, gauges):
    """Scale each time by the mean of the kernel's times around it.

    `gauges` holds one kernel time before the first of `times` and one
    after each.
    """
    return [t * 2 * REFERENCE_S / (before + after)
            for t, before, after in zip(times, gauges, gauges[1:])]


def gauge() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
