"""Light's associativity test (`exact.light_associativity_failures`)
against the full walk it replaces, its generators against their
definition (`oracles.light_generators`), and the walks it runs."""

from __future__ import annotations

import itertools
import random

import pytest

from oracles import associativity_by_triples, light_generators
from test_associativity import CATEGORY_CASES, _random_rows, _rescaled_rows
from test_categories import PERTURBED
from test_karoubi_table import _random_one_object
from verlinde import categories, exact
from verlinde.categories import (CategoryFormatError, field_category,
                                 karoubi_completion, mat_completion,
                                 matrix_algebra_category, tensor_product,
                                 validate_category)
from verlinde.tqft import (cyclic_table, group_algebra, matrix_algebra,
                           product_field_algebra)
from verlinde.exact import (_light_generators, associativity_failures,
                            light_associativity_failures)


def _full_walk(rows, partners):
    """The walk over every triple that `partners` holds, and its count:
    how `validate_category` decided associativity before Light's test."""
    return (list(associativity_failures(rows, partners)),
            sum(len(partners[j]) for js in partners for j in js))


def _through(rows, partners):
    """The triples with middle factor j, for each j."""
    into = [sum(j in js for js in partners) for j in range(len(rows))]
    return [d * len(partners[j]) for j, d in enumerate(into)]


def _light_cost(rows, partners, gens) -> int:
    """The triples through `gens` plus the lookups of their certificate,
    one pair of lookups per generated element and generator, read once."""
    n, through = len(rows), _through(rows, partners)
    pairs = (n - len(gens)) * len(gens) + len(gens) * (len(gens) + 1) // 2
    return sum(through[j] for j in gens) + 2 * pairs


def _assert_light_is_the_full_walk(rows, partners) -> bool:
    """Light's test gives the full walk's failures, and its count when
    there are any; returns whether the table is associative."""
    got, want = light_associativity_failures(rows, partners), _full_walk(
        rows, partners)
    assert got[0] == want[0] == associativity_by_triples(rows, partners)
    if want[0]:
        assert got[1] == want[1]
    else:
        assert got[1] <= want[1]
    return not want[0]


def _with_zero_terms(rows, rng):
    """`rows` with some missing products stored as one zero term."""
    n = len(rows)
    out = [dict(row) for row in rows]
    for i, j in itertools.product(range(n), repeat=2):
        if j not in out[i] and rng.random() < 0.5:
            out[i][j] = {rng.randrange(n): 0}
    return out


def _all_pairs(n):
    return [range(n)] * n


def test_light_test_is_the_full_walk_on_random_rows():
    rng = random.Random(2701)
    passing = failing = 0
    for n in range(1, 9):
        for _ in range(60):
            rows = _random_rows(rng, n)
            for table in (rows, _with_zero_terms(rows, rng)):
                ok = _assert_light_is_the_full_walk(table, _all_pairs(n))
                passing += ok
                failing += not ok
    assert failing > passing > 10


def test_light_test_is_the_full_walk_on_rescaled_algebras():
    rng = random.Random(2702)
    for algebra in (matrix_algebra(2), matrix_algebra(3),
                    group_algebra(cyclic_table(4)),
                    group_algebra(cyclic_table(6))):
        n = algebra.dim
        for _ in range(10):
            rows = _rescaled_rows(rng, algebra)
            assert _assert_light_is_the_full_walk(rows, _all_pairs(n))
            # with one constant negated, the output is the full walk's
            i, j = rng.choice([(i, j) for i, row in enumerate(rows)
                               for j in row])
            rows[i][j][rng.choice(sorted(rows[i][j]))] *= -1
            assert not _assert_light_is_the_full_walk(rows, _all_pairs(n))


def test_light_test_is_the_full_walk_on_every_small_table():
    """Every table of dimension 2 with products in {-1, 0, 1}^2, with
    zero products missing and, in a second copy, kept as one zero term."""
    vectors = list(itertools.product((-1, 0, 1), repeat=2))
    passing = 0
    for products in itertools.product(vectors, repeat=4):
        rows = [{}, {}]
        zeros = [{}, {}]
        for (i, j), vec in zip(itertools.product(range(2), repeat=2),
                               products):
            combo = {k: v for k, v in enumerate(vec) if v}
            if combo:
                rows[i][j] = zeros[i][j] = combo
            else:
                zeros[i][j] = {(i + j) % 2: 0}
        passing += _assert_light_is_the_full_walk(rows, _all_pairs(2))
        _assert_light_is_the_full_walk(zeros, _all_pairs(2))
    assert passing > 50


def test_a_multi_term_composite_generates_none_of_its_terms():
    # e0 e0 = e1 + e2 makes neither e1 nor e2, so S is the whole basis
    # and the full walk runs; taking e1 and e2 as made would leave
    # S = {e0, e3}, whose triples all hold
    rows = [{0: {1: 1, 2: 1}},
            {1: {1: 1}, 2: {1: -1}, 3: {3: -1}},
            {1: {1: -1}, 2: {1: 1}, 3: {3: 1}},
            {1: {3: 1}, 2: {3: -1}, 3: {3: -1}}]
    assert light_generators(rows) == [0, 1, 2, 3]
    failures = associativity_by_triples(rows, _all_pairs(4))
    assert failures and all(j in (1, 2) for _, j, _ in failures)
    assert not _assert_light_is_the_full_walk(rows, _all_pairs(4))


def _report_by_full_walk(cat, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(categories, "light_associativity_failures", _full_walk)
        return validate_category(cat)


def _assert_report_is_the_full_walks(cat, monkeypatch) -> bool:
    got, want = validate_category(cat), _report_by_full_walk(cat, monkeypatch)
    assert got.entries == want.entries
    if any(e.startswith("associativity") for e in want.entries):
        assert got.checked == want.checked
    else:
        assert got.checked <= want.checked
    return got.ok


def test_validate_category_is_the_full_walk_on_random_one_object_tables(
        monkeypatch):
    rng = random.Random(2703)
    valid = karoubi = 0
    for dim in (1, 2, 2, 3, 3, 3, 4):
        for _ in range(5):
            cat = _random_one_object(rng, dim)
            made = [cat, mat_completion(cat, 2)]
            try:
                made.append(karoubi_completion(cat))
            except CategoryFormatError as err:
                # only a base that is not associative is refused
                assert str(err).startswith("the base is not associative on ")
            karoubi += len(made) == 3
            for c in made:
                valid += _assert_report_is_the_full_walks(c, monkeypatch)
    # 7 of the 35 tables are associative and completed
    assert valid > 0 and karoubi > 5


@pytest.mark.parametrize("cases", [PERTURBED, CATEGORY_CASES],
                         ids=["perturbed", "category-cases"])
def test_validate_category_is_the_full_walk_on_perturbed_tables(
        cases, monkeypatch):
    for name in sorted(cases):
        for cat in cases[name]():
            _assert_report_is_the_full_walks(cat, monkeypatch)


PASSING = {
    "karoubi-m2": lambda: karoubi_completion(matrix_algebra_category(2)),
    "mat-field-4": lambda: mat_completion(field_category(), 4),
    "mat-m2-2": lambda: mat_completion(matrix_algebra_category(2), 2),
    "z3-x-z4": lambda: tensor_product(
        group_algebra(cyclic_table(3)).to_category(),
        group_algebra(cyclic_table(4)).to_category()),
    "k3": lambda: product_field_algebra(3).to_category(),
    "m2": lambda: matrix_algebra_category(2),
}


def _partners(cat):
    ending_at = {}
    for j, (_, q) in enumerate(cat._types):
        ending_at.setdefault(q, []).append(j)
    return [ending_at.get(p, []) for p, _ in cat._types]


class _CountingRow(dict):
    """A row that counts its lookups in a shared list."""

    def __init__(self, row, counter):
        super().__init__(row)
        self.counter = counter

    def get(self, key, default=None):
        self.counter[0] += 1
        return super().get(key, default)


@pytest.mark.parametrize("name", sorted(PASSING))
def test_generators_are_the_oracles_and_their_cost_is_counted(name):
    cat = PASSING[name]()
    rows, partners = cat._rows, _partners(cat)
    gens = light_generators(rows)
    through = _through(rows, partners)
    counter = [0]
    counted = [_CountingRow(row, counter) for row in rows]
    assert _light_generators(counted, through, float("inf")) == (
        gens, _light_cost(rows, partners, gens))
    assert sum(through[j] for j in gens) + counter[0] == _light_cost(
        rows, partners, gens)
    # S is given up exactly when it would cost the full walk's triples
    full = sum(through)
    found = _light_generators(rows, through, full)
    assert (found is None) == (_light_cost(rows, partners, gens) >= full)


def test_generators_are_the_oracles_on_random_rows():
    rng = random.Random(2704)
    for n in range(1, 8):
        for _ in range(40):
            rows = _random_rows(rng, n)
            if rng.random() < 0.5:
                rows = _with_zero_terms(rows, rng)
            through = _through(rows, _all_pairs(n))
            gens = light_generators(rows)
            assert _light_generators(rows, through, float("inf")) == (
                gens, _light_cost(rows, _all_pairs(n), gens))


@pytest.mark.parametrize("name", sorted(PASSING))
def test_validate_category_counts_the_equations_through_the_generators(
        name):
    cat = PASSING[name]()
    rows, partners = cat._rows, _partners(cat)
    report = validate_category(cat)
    assert report.ok
    cost = _light_cost(rows, partners, light_generators(rows))
    full = sum(_through(rows, partners))
    assert report.checked == 2 * len(rows) + (cost if cost < full else full)


def _recorded_walks(cat, monkeypatch) -> list[str]:
    """The walks `validate_category(cat)` runs, "S" or "full" in turn."""
    walks, given = [], []
    light = exact.light_associativity_failures
    walk = exact.associativity_failures

    def recording_light(rows, partners):
        given.append(partners)
        return light(rows, partners)

    def recording_walk(rows, partners, *thirds):
        walks.append("full" if partners is given[-1] else "S")
        return walk(rows, partners, *thirds)

    monkeypatch.setattr(categories, "light_associativity_failures",
                        recording_light)
    monkeypatch.setattr(exact, "associativity_failures", recording_walk)
    validate_category(cat)
    monkeypatch.undo()
    return walks


def test_karoubi_m2_runs_only_the_walk_over_the_generators(monkeypatch):
    cat = karoubi_completion(matrix_algebra_category(2))
    assert _recorded_walks(cat, monkeypatch) == ["S"]


def test_a_product_of_fields_gives_up_for_the_full_walk(monkeypatch):
    # every e_i is made only as e_i e_i, so S would be the whole basis
    cat = product_field_algebra(4).to_category()
    assert light_generators(cat._rows) == [0, 1, 2, 3]
    assert _recorded_walks(cat, monkeypatch) == ["full"]


def test_a_failing_table_walks_the_generators_then_everything(monkeypatch):
    cat = next(CATEGORY_CASES["m2-x-m2"]())
    assert not validate_category(cat).ok
    assert _recorded_walks(cat, monkeypatch) == ["S", "full"]
