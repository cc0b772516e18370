"""The shared associativity check against the per-triple oracle, and the
pinned reports of its four callers."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import mult_form, ring_table
from oracles import associativity_by_triples, fraction_constants, integer_rows
from test_categories import _with_table
from verlinde.categories import (field_category, karoubi_completion,
                                 mat_completion, matrix_algebra_category,
                                 tensor_product, validate_category)
from verlinde.exact import associativity_failures
from verlinde.fusion import FusionRing, verify_axioms
from verlinde.tqft import (FrobeniusAlgebra, cyclic_table, group_algebra,
                           matrix_algebra, validate_frobenius)


def _random_rows(rng, n):
    """Sparse integer rows of rank n: entries c * e_m with c = 1 mostly,
    else signed, and sums of two or three terms whose signed
    coefficients often cancel in a product."""
    coefficients = (1, 1, 1, -1, 2, -3)
    rows = [{} for _ in range(n)]
    density = rng.choice((0.3, 0.6, 1.0))
    for i in range(n):
        for j in range(n):
            if rng.random() >= density:
                continue
            if rng.random() < 0.6:
                rows[i][j] = {rng.randrange(n): rng.choice(coefficients)}
            else:
                terms = rng.sample(range(n), min(n, rng.randint(2, 3)))
                rows[i][j] = {m: rng.choice((1, -1, 2)) for m in terms}
    return rows


def _rescaled_rows(rng, algebra):
    """The rows of `algebra` on the basis s_i e_i for random nonzero s_i:
    associative when the algebra is, with coefficients other than 1."""
    n = algebra.dim
    s = [Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2))) for _ in
         range(n)]
    return integer_rows(n, (((i, j, k), v * s[i] * s[j] / s[k])
                            for (i, j, k), v
                            in fraction_constants(algebra.mult).items()
                            if v))[0]


def _partners(rng, n):
    """All labels in order, or random selections in random order, some
    leaving out keys that the rows hold."""
    kind = rng.randrange(3)
    if kind == 0:
        return [range(n)] * n
    out = []
    for _ in range(n):
        labels = rng.sample(range(n), rng.randint(0, n))
        out.append(sorted(labels) if kind == 1 else labels)
    return out


def test_associativity_failures_match_the_per_triple_oracle():
    rng = random.Random(1303)
    tables = failing = 0
    for n in range(1, 9):
        for _ in range(60):
            rows = _random_rows(rng, n)
            partners = _partners(rng, n)
            got = list(associativity_failures(rows, partners))
            assert got == associativity_by_triples(rows, partners), (rows,
                                                                     partners)
            tables += 1
            failing += bool(got)
    assert failing > tables // 2


def test_associativity_failures_match_the_oracle_on_rescaled_algebras():
    rng = random.Random(1304)
    algebras = [matrix_algebra(2), matrix_algebra(3),
                group_algebra(cyclic_table(4))]
    for algebra in algebras:
        for _ in range(10):
            rows = _rescaled_rows(rng, algebra)
            assert any(c != 1 for row in rows for combo in row.values()
                       for c in combo.values())
            partners = [range(algebra.dim)] * algebra.dim
            assert list(associativity_failures(rows, partners)) == []
            # with one constant negated, the output is the oracle's
            i, j = rng.choice([(i, j) for i, row in enumerate(rows)
                               for j in row])
            k = rng.choice(sorted(rows[i][j]))
            rows[i][j][k] *= -1
            for partners in ([range(algebra.dim)] * algebra.dim,
                             _partners(rng, algebra.dim)):
                got = list(associativity_failures(rows, partners))
                assert got == associativity_by_triples(rows, partners)


# one structure constant changed per copy, in turn by each of these
CONSTANT_CHANGES = (lambda c: -c, lambda c: 2 * c,
                    lambda c: c + Fraction(1, 2), lambda c: Fraction(0))


def _one_constant_changed(cat, sample, added, seed):
    """Copies of `cat`, each with one structure constant changed.

    `sample` existing constants (all of them if None) go through
    `CONSTANT_CHANGES` in turn, one per copy; then `added` zero constants
    of composable pairs become 1, which makes the entry a sum of terms.
    """
    rng = random.Random(seed)
    base = {gf: dict(combo) for gf, combo in sorted(cat.table_items())}
    slots = [(gf, h) for gf, combo in base.items() for h in combo]
    if sample is not None:
        slots = rng.sample(slots, sample)
    types = {b: pq for pq, names in cat.hom_pairs() for b in names}
    for t, (gf, h) in enumerate(slots):
        table = {key: dict(c) for key, c in base.items()}
        change = CONSTANT_CHANGES[t % len(CONSTANT_CHANGES)]
        table[gf][h] = change(table[gf][h])
        yield _with_table(cat, table)
    pairs = sorted(base)
    for _ in range(added):
        g, f = gf = rng.choice(pairs)
        targets = [b for b, pq in types.items()
                   if pq == (types[f][0], types[g][1]) and b not in base[gf]]
        if not targets:
            continue
        table = {key: dict(c) for key, c in base.items()}
        table[gf][rng.choice(sorted(targets))] = Fraction(1)
        yield _with_table(cat, table)


CATEGORY_CASES = {
    "mat-field-2": lambda: _one_constant_changed(
        mat_completion(field_category(), 2), None, 8, 1),
    "m2-x-m2": lambda: _one_constant_changed(
        tensor_product(matrix_algebra_category(2),
                       matrix_algebra_category(2)), None, 8, 2),
    "karoubi-m2": lambda: _one_constant_changed(
        karoubi_completion(matrix_algebra_category(2)), 6, 6, 3),
}

# (sha256 of the report lines joined by newlines, number of lines), each
# report giving its entries and then its `checked`; recorded before
# associativity was decided a row at a time
CATEGORY_PINS = {
    "mat-field-2": (
        "115be84602ff6ed2ce93e153b0e1f325014420c9c1ad72f9172483dca655eaf4",
        320),
    "m2-x-m2": (
        "3a93fab8711c6038d6243f1b1599dc32039d08d4cf872267f912f38b96b7bccc",
        904),
    "karoubi-m2": (
        "4b8b0dd609fc61c8dcba0cdba1d30f8180df044339e953e8fc7d40ac2c906896",
        443),
}


def _digest(lines) -> tuple[str, int]:
    return (hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
            len(lines))


def _report_lines(reports) -> list[str]:
    lines = []
    for report in reports:
        lines += report.entries
        lines.append(f"checked = {report.checked}")
    return lines


@pytest.mark.parametrize("name", sorted(CATEGORY_CASES))
def test_validate_category_reports_are_pinned(name):
    reports = [validate_category(cat) for cat in CATEGORY_CASES[name]()]
    assert sum(not r.ok for r in reports) > len(reports) // 2
    assert _digest(_report_lines(reports)) == CATEGORY_PINS[name]


def _random_rings(count, seed):
    """Random rank 1-4 rings with unit label 0, most of them invalid."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        data = {(a, b, c): rng.choice((1, 1, 2, 3))
                for a in range(n) for b in range(n) for c in range(n)
                if rng.random() < 0.3}
        for b in range(n):
            data[(0, b, b)] = data[(b, 0, b)] = 1
        dual = list(range(n))
        if n > 2 and rng.random() < 0.5:
            dual[1], dual[2] = 2, 1
        yield FusionRing(dual=tuple(dual), unit=(0,),
                         table=ring_table(n, data))


def _random_algebras(count, seed):
    """Random algebras of dimension 1-5 whose structure constants are
    signed fractions, so products mix terms and sums cancel to zero."""
    rng = random.Random(seed)
    values = (1, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    for _ in range(count):
        n = rng.randint(1, 5)
        data = {(i, j, k): rng.choice(values)
                for i in range(n) for j in range(n) for k in range(n)
                if rng.random() < 0.35}
        yield FrobeniusAlgebra(
            tuple(f"e{i}" for i in range(n)),
            mult_form(n, data),
            tuple(int(i == 0) for i in range(n)),
            tuple(rng.choice((0, 1, 2)) for _ in range(n)))


# recorded as CATEGORY_PINS were
RING_PIN = (
    "772f42be1e903b17a5933f2d10c24a399320af34f060d73defb0dfc6be2a7482",
    16355)
ALGEBRA_PIN = (
    "7710a13b0303fef2e087f25a075f48574fde9f2cfed346071e2d90b3ba08c5d7",
    15233)


def test_verify_axioms_reports_on_random_rings_are_pinned():
    reports = [verify_axioms(ring) for ring in _random_rings(300, 1301)]
    assert sum(not r.ok for r in reports) > 200
    assert _digest(_report_lines(reports)) == RING_PIN


def test_validate_frobenius_reports_on_random_algebras_are_pinned():
    reports = [validate_frobenius(a) for a in _random_algebras(200, 1302)]
    assert sum(not r.ok for r in reports) > 150
    assert _digest(_report_lines(reports)) == ALGEBRA_PIN
