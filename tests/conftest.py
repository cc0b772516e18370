"""Shared corpus loaders for the test suite."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest

from verlinde import corpus, formats, tqft
from verlinde.fusion import FusionRing

CORPUS_RINGS = ("trivial.fusion", "z2.fusion", "z3.fusion", "fib.fusion",
                "s3rep.fusion", "fib_x_z2.fusion")
CORPUS_ALGEBRAS = ("ground.algebra", "ksquared.algebra",
                   "dual_numbers.algebra", "z2group.algebra",
                   "z3group.algebra", "mat2.algebra", "fib.algebra")
CORPUS_CATEGORIES = ("onepoint.category", "mat2.category")


@pytest.fixture(autouse=True)
def cold_derived_table():
    """Empty the table of shared Frobenius derived data before each test,
    so a test that counts derived work does not see an earlier test's."""
    tqft._derived_record.cache_clear()


def load(name: str):
    """Parse a corpus file, inferring the kind from its extension."""
    path = corpus.corpus_path(name)
    kind = formats.kind_for_path(name)
    return formats.parse(kind, path.read_text(encoding="utf-8"),
                         source=name).payload


def load_rings():
    return {name: load(name) for name in CORPUS_RINGS}


def load_algebras():
    return {name: load(name) for name in CORPUS_ALGEBRAS}


def ring_table(base, entries=()) -> list:
    """A multiplicity table as nested lists: n x n x n zeros when `base`
    is a rank n, else a copy of the ring `base`'s table, with each value
    of the dict `entries`, keyed by (a, b, c), written in."""
    if isinstance(base, int):
        table = [[[0] * base for _ in range(base)] for _ in range(base)]
    else:
        table = [list(map(list, plane)) for plane in base.table]
    for (a, b, c), v in dict(entries).items():
        table[a][b][c] = v
    return table


def mult_form(n: int, data) -> tuple:
    """The integer form (planes, den), nested tuples, of the n x n x n
    structure constants with value v (an int, a `Fraction` or a 'p/q'
    string) at each (i, j, k) of the dict `data` and zero elsewhere: the
    planes over the lcm of the denominators, as `Algebra` takes them.
    An index past n raises `IndexError`."""
    values = {ijk: Fraction(v) for ijk, v in dict(data).items()}
    den = lcm(*(v.denominator for v in values.values()))
    planes = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in values.items():
        planes[i][j][k] = int(v * den)
    return tuple(tuple(map(tuple, plane)) for plane in planes), den


def toy_ring() -> FusionRing:
    """Rank-3 ring that is not commutative: N[1][2][1] = 1, N[2][1][.] = 0.

    Both non-unit labels are self-dual and the unit law holds, so the
    ring passes construction but fails the axioms.
    """
    entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1,
               (2, 0, 2): 1, (1, 1, 0): 1, (2, 2, 0): 1, (1, 2, 1): 1}
    return FusionRing(dual=(0, 1, 2), unit=(0,),
                      table=ring_table(3, entries))
