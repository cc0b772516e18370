"""Exact matrix substrate, and the structure tensor of `Algebra`."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_ALGEBRAS, load, mult_form
from oracles import (echelon_rank, elimination_inverse, fraction_matmul,
                     full_multiplier_eliminate, gauss_jordan,
                     gauss_jordan_inverse, gauss_jordan_rank,
                     naive_combine_rows, naive_contract, naive_power_columns)
from verlinde import exact
from verlinde.exact import (DimensionMismatchError, Matrix,
                            SingularMatrixError, _eliminate, combine_rows,
                            power_apply, rat, rref_integers, scale_to_integers)
from verlinde.tqft import (Algebra, _fibre_sum, multiply_elements,
                           pairing_matrix, random_invertible)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def test_mat_mul_identity():
    m = Matrix([[1, 2], [3, 4]])
    assert Matrix.identity(2) @ m == m
    assert m @ Matrix.identity(2) == m


def test_mat_mul_permutation_action():
    m = Matrix([[1, 2], [3, 4]])
    swap = Matrix([[0, 1], [1, 0]])
    assert m @ swap == Matrix([[2, 1], [4, 3]])


def test_mat_mul_scalar_rationals():
    got = Matrix([[Fraction(1, 2)]]) @ Matrix([[Fraction(2, 3)]])
    assert got == Matrix([[Fraction(1, 3)]])


def test_mat_mul_rejects_mismatch():
    with pytest.raises(DimensionMismatchError) as err:
        Matrix([[1, 2]]) @ Matrix([[1, 2]])
    assert "1x2" in str(err.value)


def test_rank_examples():
    assert Matrix.zeros(3, 3).rank() == 0
    assert Matrix.identity(3).rank() == 3
    assert Matrix([[1, 2], [2, 4]]).rank() == 1


def test_invert_examples():
    assert Matrix.identity(3).inverse() == Matrix.identity(3)
    assert Matrix([[2, 0], [0, 3]]).inverse() == Matrix(
        [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert Matrix([[1, 1], [0, 1]]).inverse() == Matrix([[1, -1], [0, 1]])


def test_invert_singular_carries_rank():
    with pytest.raises(SingularMatrixError) as err:
        Matrix([[1, 2], [2, 4]]).inverse()
    assert err.value.rank == 1
    assert err.value.size == 2


def test_invert_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        Matrix([[1, 2, 3], [4, 5, 6]]).inverse()


def test_matrix_is_immutable():
    m = Matrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 2


@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_rank_equals_rank_of_transpose(rows):
    m = Matrix(rows)
    assert m.rank() == m.transpose().rank()


@given(st.integers(1, 4), st.data())
@settings(max_examples=40)
def test_inverse_roundtrip_on_lu_built_invertibles(n, data):
    small = st.integers(-3, 3)
    lower = [[1 if i == j else (data.draw(small) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[data.draw(st.sampled_from([1, -1, 2])) if i == j
              else (data.draw(small) if i < j else 0)
              for j in range(n)] for i in range(n)]
    m = Matrix(lower) @ Matrix(upper)
    assert m @ m.inverse() == Matrix.identity(n)
    assert m.inverse() @ m == Matrix.identity(n)


@given(rationals, rationals, rationals)
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def _mult(planes, den, names="ab"):
    """The `Algebra` on the basis `names` whose structure tensor is the
    integer form (planes, den); its unit is zero, which no test reads."""
    return Algebra(tuple(names), (planes, den), (0,) * len(names))


def test_tensor3_equality_and_hash():
    # the structure tensor of an algebra: one reduced form however scaled
    a = _mult([[[1, 0], [0, 0]], [[0, 0], [0, 0]]], 1)
    b = _mult([[[3, 0], [0, 0]], [[0, 0], [0, 0]]], 3)
    assert a == b and hash(a) == hash(b)
    assert a.mult == b.mult == ((((1, 0), (0, 0)), ((0, 0), (0, 0))), 1)
    assert a != _mult([[[1, 0], [0, 0]], [[0, 0], [0, 0]]], 2)


def _integer_cubes():
    rng = random.Random(5)
    dense = [[[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
             for _ in range(3)]
    yield dense, 35
    yield [[[6 * x for x in fibre] for fibre in plane] for plane in dense], 12
    yield [[[4, 6], [8, 10]], [[2, 0], [0, -12]]], 4
    yield [[[0] * 2 for _ in range(2)] for _ in range(2)], 7
    yield [], 5


@pytest.mark.parametrize("planes,den", list(_integer_cubes()))
def test_tensor3_from_integers_is_the_scaled_form(planes, den):
    # an algebra's structure tensor (planes, den) is stored as the
    # integer form `scale_to_integers` gives of its values, in tuples
    names = "abc"[:len(planes)]
    algebra = _mult(planes, den, names)
    fractions = [[[Fraction(x, den) for x in fibre] for fibre in plane]
                 for plane in planes]
    fibres, d = scale_to_integers(
        [fibre for plane in fractions for fibre in plane])
    ints, dt = algebra.mult
    assert [fibre for plane in ints for fibre in plane] == list(fibres)
    assert dt == d
    assert type(ints) is tuple and all(
        type(fibre) is tuple for plane in ints for fibre in (plane, *plane))
    scaled = _mult([[[3 * x for x in fibre] for fibre in plane]
                    for plane in planes], 3 * den, names)
    assert algebra == scaled and hash(algebra) == hash(scaled)
    assert algebra.mult == scaled.mult


def _integer_matrices():
    rng = random.Random(6)
    dense = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
    yield dense, 35
    yield [[6 * x for x in row] for row in dense], 12
    yield [[4, -6], [8, 10]], 4
    yield [[0] * 3 for _ in range(2)], 7
    yield [[5]], 1
    yield [], 5


@pytest.mark.parametrize("rows,den", list(_integer_matrices()))
def test_matrix_from_integers_is_the_scaled_form(rows, den):
    m = Matrix.from_integers(rows, den)
    fractions = [[Fraction(x, den) for x in row] for row in rows]
    # the stored integer form
    assert m.integer_form == scale_to_integers(fractions)
    assert m.entries == tuple(map(tuple, fractions))
    assert all(type(x) is Fraction for row in m.entries for x in row)
    literal = Matrix(fractions, cols=m.cols)
    assert m.shape == literal.shape
    assert m == literal and literal == m and hash(m) == hash(literal)
    # two matrices from the same integers, and two that differ
    twin = Matrix.from_integers(rows, den)
    assert m == twin and hash(m) == hash(twin)
    if rows:
        other = Matrix.from_integers(rows, den + 1)
        assert (other == m) == (not any(map(any, rows)))


def test_integer_constructors_reject_ragged_rows_and_bad_denominators():
    with pytest.raises(DimensionMismatchError):
        Matrix.from_integers([[1, 2], [3]], 1)
    with pytest.raises(DimensionMismatchError):
        _mult([[[1, 2], [3, 4]], [[5, 6], [7]]], 1)
    with pytest.raises(DimensionMismatchError):
        _mult([[[1], [2]], [[3]]], 1)
    for den in (0, -2):
        with pytest.raises(ValueError, match="not positive"):
            Matrix.from_integers([[1, 2]], den)
        with pytest.raises(ValueError, match="not a positive integer"):
            _mult([[[1]]], den, "a")
    with pytest.raises(ValueError, match="not positive"):
        Matrix.from_integers([], 0)


def test_rat_refuses_floats():
    for build in (lambda: rat(0.5), lambda: Matrix([[0.1]]),
                  lambda: Matrix([[1]]).scale(2.0),
                  lambda: Matrix([[1]]).apply([0.5])):
        with pytest.raises(TypeError, match="ints or Fractions"):
            build()
    assert (rat(3), rat("-2/6"), rat(Fraction(1, 3))) == (
        Fraction(3), Fraction(-1, 3), Fraction(1, 3))


def _same_value_matrices():
    """Groups of matrices built along different paths: equal inside a
    group, different across groups."""
    half = Fraction(1, 2)
    m = Matrix([[half, Fraction(-2, 3)], [3, 0]])
    yield [m, Matrix.from_integers([[3, -4], [18, 0]], 6),
           Matrix.from_integers([[6, -8], [36, 0]], 12),
           m.transpose().transpose(), m.scale(2).scale(half),
           m.inverse().inverse(), Matrix.identity(2) @ m,
           Matrix([["1/2", "-2/3"], ["3", "0"]])]
    a = Matrix([[2, 1, 0], [1, 1, 0], [0, 3, half]])
    yield [Matrix.identity(3), Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
           Matrix.from_integers([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 2),
           a @ a.inverse(), a.inverse() @ a,
           Matrix.identity(3).transpose(), Matrix.identity(3).scale(1),
           Matrix.identity(3).scale(half).scale(2)]
    yield [Matrix.zeros(2, 3), Matrix([[0] * 3] * 2),
           Matrix.from_integers([[0] * 3] * 2, 7),
           Matrix([[1, 2, 3], [4, 5, 6]]).scale(0),
           Matrix.zeros(3, 2).transpose(),
           Matrix.zeros(2, 4) @ Matrix.zeros(4, 3)]
    yield [Matrix.zeros(0, 3), Matrix([], cols=3),
           Matrix.zeros(3, 0).transpose(), Matrix.zeros(0, 3).scale(5),
           Matrix.zeros(0, 2) @ Matrix.zeros(2, 3)]
    yield [Matrix.zeros(3, 0), Matrix([[], [], []]),
           Matrix.from_integers([[], [], []], 4),
           Matrix.zeros(0, 3).transpose()]
    yield [Matrix.identity(0), Matrix([]), Matrix.from_integers([], 3),
           Matrix.identity(0).inverse(), Matrix.zeros(0, 0).transpose()]


def _same_value_algebras():
    """Groups of algebras whose structure tensors are given at different
    scalings: equal inside a group, different across groups."""
    half = Fraction(1, 2)
    yield [_mult(*mult_form(2, {(0, 0, 0): 1, (0, 1, 1): half,
                                (1, 1, 0): 3})),
           _mult([[[2, 0], [0, 1]], [[0, 0], [6, 0]]], 2),
           _mult([[[6, 0], [0, 3]], [[0, 0], [18, 0]]], 6),
           _mult(*mult_form(2, {(0, 0, 0): "1", (0, 1, 1): "1/2",
                                (1, 1, 0): "3"}))]
    yield [_mult(*mult_form(2, {})), _mult([[[0] * 2] * 2] * 2, 5),
           _mult(*mult_form(2, {(1, 0, 1): 0}))]
    yield [_mult((), 1, ""), _mult([], 7, "")]


@pytest.mark.parametrize("make", [_same_value_matrices, _same_value_algebras],
                         ids=["Matrix", "Algebra"])
def test_equality_and_hash_agree_across_construction_paths(make):
    groups = list(make())
    for g, group in enumerate(groups):
        first = group[0]
        for x in group:
            assert x == first and first == x and hash(x) == hash(first)
            if isinstance(x, Matrix):
                assert x.integer_form == first.integer_form
                assert x.entries == first.entries
                assert all(type(v) is Fraction for v in _flat(x.entries))
            else:
                assert x.mult == first.mult
        for other in groups[g + 1:]:
            assert first != other[0]


def _flat(entries):
    for row in entries:
        if isinstance(row, tuple):
            yield from _flat(row)
        else:
            yield row


def test_tensor3_rejects_declared_shape_without_entries():
    # an algebra's n basis names declare its structure tensor n x n x n
    for names, planes in (("ab", ()), ("ab", [[[1, 0]]]), ("", [[[1]]]),
                          ("a", [[]]), ("ab", [[[1, 0], [0]], [[0, 1]] * 2])):
        with pytest.raises(DimensionMismatchError,
                           match=f"^multiplication table is not {len(names)} "
                                 f"x {len(names)} x {len(names)}$"):
            _mult(planes, 1, names)
    assert _mult((), 1, "").mult == ((), 1)


@pytest.mark.parametrize("bad, shown", [
    (True, "True"), (Fraction(1, 2), "Fraction(1, 2)"),
    (Fraction(2, 1), "Fraction(2, 1)"), (0.5, "0.5"), (1.0, "1.0"),
    ("1", "'1'")])
def test_algebra_names_the_first_structure_constant_that_is_not_an_int(
        bad, shown):
    planes = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    planes[1][0][1] = bad
    planes[1][1][0] = bad  # a later bad entry is not the one named
    with pytest.raises(ValueError, match=re.escape(
            f"structure constant mult[1][0][1] = {shown} is not an "
            "integer")):
        _mult(planes, 1)


@pytest.mark.parametrize("den", [0, -3, True, 2.0, Fraction(2), "2", None])
def test_algebra_refuses_a_denominator_that_is_not_a_positive_int(den):
    with pytest.raises(ValueError, match=re.escape(
            f"denominator {den!r} is not a positive integer")):
        _mult([[[1]]], den, "a")


def test_algebra_mult_is_reduced_over_every_scaling():
    rng = random.Random(34)
    for _ in range(20):
        planes = [[[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
                  for _ in range(3)]
        den = rng.randint(1, 9)
        reference = _mult(planes, den, "abc")
        ints, d = reference.mult
        assert gcd(d, *(x for plane in ints for f in plane for x in f)) == 1
        for scale in (2, 3, 12):
            scaled = _mult([[[scale * x for x in f] for f in plane]
                            for plane in planes], scale * den, "abc")
            assert scaled == reference and hash(scaled) == hash(reference)
            assert scaled.mult == reference.mult


def _contract(mult, weights) -> tuple[Fraction, ...]:
    """sum_ij w[i][j] m[i][j] through `tqft._fibre_sum`, the rational
    weights scaled to integers first."""
    planes, den = mult
    ints, dw = scale_to_integers(weights)
    return tuple(Fraction(x, den * dw) for x in _fibre_sum(ints, planes))


def test_integer_kernels_reject_non_rational_entries():
    algebra = _mult([[[1]]], 1, "a")
    with pytest.raises(TypeError, match="ints or Fractions"):
        multiply_elements(algebra, [0.5], [1])
    with pytest.raises(TypeError, match="ints or Fractions"):
        scale_to_integers([[Fraction(1, 2), "1/2"]])


def test_contract_rejects_mismatched_weights():
    planes = [[[0] * 2] * 3] * 2  # 2 x 3 x 2
    with pytest.raises(DimensionMismatchError):
        _fibre_sum([[1, 2, 3]], planes)
    with pytest.raises(DimensionMismatchError):
        _fibre_sum([[1, 2], [3, 4]], planes)


# ---------------------------------------------------------------------------
# the fraction-free elimination and the contraction kernel against oracles


def _random_rows(rng, rows, cols):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 5))
             if rng.random() < 0.7 else Fraction(0) for _ in range(cols)]
            for _ in range(rows)]


def _low_rank_rows(rng, rows, cols, k):
    left = Matrix(_random_rows(rng, rows, k), cols=k)
    right = Matrix(_random_rows(rng, k, cols), cols=cols)
    return [list(row) for row in (left @ right).entries]


def _elimination_cases():
    rng = random.Random(20260)
    cases = []
    for shape in ((1, 1), (2, 2), (3, 3), (5, 5), (8, 8),
                  (2, 5), (3, 7), (4, 9), (5, 2), (7, 3), (9, 4)):
        for _ in range(4):
            cases.append(_random_rows(rng, *shape))
    for rows, cols, k in ((3, 3, 1), (4, 4, 2), (6, 6, 3), (5, 8, 2),
                          (8, 5, 3), (6, 6, 0)):
        cases.append(_low_rank_rows(rng, rows, cols, k))
    cases += [[[0] * 4 for _ in range(4)], [[0] * 3], [[0]] * 3,
              [[1, 2], [2, 4]], [[0, 1, 2], [0, 2, 4], [0, 0, 1]]]
    return cases


@pytest.mark.parametrize("rows", _elimination_cases())
def test_rref_rank_inverse_match_gauss_jordan(rows):
    m = Matrix(rows)
    reduced, pivots = gauss_jordan(rows)
    got, got_pivots = m.rref()
    assert (got.entries, got_pivots) == (tuple(reduced), tuple(pivots))
    assert m.rank() == gauss_jordan_rank(rows)
    if m.rows != m.cols:
        return
    expected = gauss_jordan_inverse(rows)
    if expected is None:
        with pytest.raises(SingularMatrixError) as err:
            m.inverse()
        assert err.value.rank == gauss_jordan_rank(rows)
    else:
        assert m.inverse() == Matrix(expected)


@pytest.mark.parametrize("rows", _elimination_cases())
def test_rref_pivot_entries_equal_the_denominator(rows):
    # the integer form a caller reads off the reduced rows: each pivot
    # column is den on its own row and 0 on every other
    m = Matrix(rows)
    reduced, pivots = m.rref()
    assert reduced.shape == (len(pivots), m.cols)
    ints, den = reduced.integer_form
    for r, c in enumerate(pivots):
        assert [row[c] for row in ints] == [
            den if i == r else 0 for i in range(len(ints))]
    assert reduced.integer_form == scale_to_integers(reduced.entries)


@pytest.mark.parametrize("rows", _elimination_cases())
def test_rref_integers_reads_the_row_space_alone(rows):
    # the Karoubi builder carves hom spaces from unreduced integer images:
    # rows rescaled by positive integers, shuffled and joined by sums of
    # themselves must give the form `rref` gives, as the oracle reduces
    ints, _ = Matrix(rows).integer_form
    reduced, pivots = gauss_jordan(rows)
    form = scale_to_integers(reduced)
    rng = random.Random(len(rows) * 31 + len(rows[0]))
    cols = len(rows[0])
    for _ in range(3):
        scales = rng.choices(range(1, 10), k=len(ints))
        mixed = [[k * x for x in row] for row, k in zip(ints, scales)]
        mixed += [[a - b for a, b in zip(*rng.sample(mixed, 2))]
                  for _ in range(len(mixed) // 2)]
        rng.shuffle(mixed)
        assert rref_integers(mixed, cols) == (*form, tuple(pivots))


def _rank_cases():
    rng = random.Random(4242)
    cases = [_low_rank_rows(rng, rows, cols, k)
             for rows, cols, k in ((12, 12, 5), (10, 30, 4), (30, 10, 4),
                                   (6, 40, 6), (40, 6, 6), (20, 20, 19),
                                   (15, 15, 15))]
    return cases + [_random_rows(rng, 6, 30), _random_rows(rng, 30, 6)]


@pytest.mark.parametrize("rows", _rank_cases())
def test_echelon_rank_matches_gauss_jordan(rows):
    # the seeded cases are checked with rref and inverse above
    assert Matrix(rows).rank() == gauss_jordan_rank(rows)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_rref_on_empty_shapes(rows, cols):
    m = Matrix([[0] * cols for _ in range(rows)], cols=cols)
    assert m.shape == (rows, cols)
    reduced, pivots = m.rref()
    assert (reduced.shape, reduced.entries, pivots) == ((0, cols), (), ())
    assert m.rank() == 0
    if rows == cols:
        assert m.inverse() == Matrix.identity(0)
    else:
        with pytest.raises(DimensionMismatchError):
            m.inverse()


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_corpus_algebra_matrices_match_gauss_jordan(name):
    algebra = load(name)
    matrices = [pairing_matrix(algebra)] + [
        algebra.left_multiplication(i) for i in range(algebra.dim)]
    for m in matrices:
        rows = [list(row) for row in m.entries]
        reduced, pivots = gauss_jordan(rows)
        got, got_pivots = m.rref()
        assert (got.entries, got_pivots) == (tuple(reduced), tuple(pivots))
        expected = gauss_jordan_inverse(rows)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            assert m.inverse() == Matrix(expected)


def _public_matrix_results(m: Matrix, rows):
    """Each public result of m, with its rows by the `Fraction` oracles."""
    columns = Matrix([list(col) for col in zip(*rows)], cols=len(rows))
    yield m @ m.transpose(), fraction_matmul(m, columns)
    yield m.transpose() @ m, fraction_matmul(columns, m)
    yield m.transpose(), columns.entries
    if m.rows == m.cols and (inverse := gauss_jordan_inverse(rows)):
        yield m.inverse(), inverse


@pytest.mark.parametrize("rows", _elimination_cases())
def test_public_results_build_their_entries_inside_the_call(rows):
    # results store their integer form; read, their entries are the
    # oracles' rows as Fractions
    stored = Matrix.from_integers(*scale_to_integers(rows))
    for m in (Matrix(rows), stored):
        for result, expected in _public_matrix_results(m, rows):
            assert result.entries == tuple(map(tuple, expected))
            assert all(type(x) is Fraction
                       for row in result.entries for x in row)
        assert all(type(x) is Fraction for x in m.apply([1] * m.cols))
        assert all(type(x) is Fraction
                   for row in m.rref()[0].entries for x in row)
    assert stored == Matrix(rows)


@pytest.mark.parametrize("rows", _elimination_cases())
def test_integer_inverse_core_matches_gauss_jordan(rows):
    m = Matrix(rows)
    if m.rows != m.cols:
        with pytest.raises(DimensionMismatchError):
            m.inverse()
        return
    expected = gauss_jordan_inverse(rows)
    if expected is None:
        with pytest.raises(SingularMatrixError) as err:
            m.inverse()
        assert err.value.rank == gauss_jordan_rank(rows)
        return
    inverse = m.inverse()
    ints, d = inverse.integer_form
    assert d > 0
    assert [tuple(Fraction(x, d) for x in row) for row in ints] == expected
    assert inverse.integer_form == scale_to_integers(expected)
    assert inverse == Matrix(expected)
    assert inverse.entries == tuple(expected)


def test_integer_inverse_core_on_the_empty_matrix():
    inverse = Matrix.identity(0).inverse()
    assert inverse.shape == (0, 0)
    assert inverse.integer_form == ((), 1)
    assert inverse == Matrix.identity(0)


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_contract_matches_naive_loop_on_corpus_algebras(name):
    t = load(name).mult
    n = len(t[0])
    rng = random.Random(name)
    weights = [_random_rows(rng, n, n) for _ in range(5)]
    weights += [[[int(i == a and j == b) for j in range(n)]
                 for i in range(n)]
                for a in range(n) for b in range(n)]
    weights.append([[0] * n for _ in range(n)])
    for w in weights:
        assert _contract(t, w) == naive_contract(t, w)


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_products_of_elements_match_the_naive_contraction(name):
    # multiply_elements contracts its integer outer product without
    # scaling it again; the naive loop forms the same weights in Fraction
    algebra = load(name)
    rng = random.Random(name)
    for _ in range(6):
        x, y = (_random_rows(rng, 1, algebra.dim)[0] for _ in range(2))
        weights = [[a * b for b in y] for a in x]
        expected = naive_contract(algebra.mult, weights)
        assert multiply_elements(algebra, x, y) == expected


def test_products_of_elements_check_their_lengths():
    algebra = load("fib.algebra")
    for x, y in (((1,), (1, 0)), ((1, 0), (1, 0, 0))):
        with pytest.raises(DimensionMismatchError):
            multiply_elements(algebra, x, y)


def test_contract_matches_naive_loop_on_random_tensors():
    rng = random.Random(7)
    for dims in ((1, 1, 1), (2, 3, 4), (4, 2, 3), (3, 3, 3), (0, 2, 2)):
        planes = tuple(tuple(tuple(rng.randint(-4, 4) if rng.random() < 0.5
                                   else 0 for _ in range(dims[2]))
                             for _ in range(dims[1])) for _ in range(dims[0]))
        t = planes, rng.randint(1, 6)
        w = _random_rows(rng, dims[0], dims[1])
        assert _contract(t, w) == naive_contract(t, w)


def test_combine_rows_matches_the_double_loop():
    rng = random.Random(18)
    for length, width in itertools.product(range(5), repeat=2):
        for _ in range(20):
            # about half the entries zero, the rest in -9..9
            vec = [rng.choice((0, rng.randint(-9, 9))) for _ in range(length)]
            rows = [[rng.choice((0, rng.randint(-9, 9)))
                     for _ in range(width)] for _ in range(length)]
            got = combine_rows(vec, rows)
            assert type(got) is tuple
            assert got == naive_combine_rows(vec, rows, width if rows else 0)


@pytest.mark.parametrize("vec, rows", [((1, 2, 3), [(1, 0)]),
                                       ((1,), [(1, 0), (0, 5)])])
def test_combine_rows_refuses_a_vector_of_another_length(vec, rows):
    # zipping would return (1, 0) for both
    with pytest.raises(DimensionMismatchError,
                       match=f"{len(rows)} rows by a vector of length "
                             f"{len(vec)}"):
        combine_rows(vec, rows)


def test_power_apply_matches_repeated_products_in_any_order():
    # one shared list of squares serves exponents 0-70 asked in random
    # order, on matrices with negative entries and about half zeros
    rng = random.Random(29)
    for n in range(5):
        for _ in range(6):
            a = tuple(tuple(rng.choice((0, rng.randint(-4, 4)))
                            for _ in range(n)) for _ in range(n))
            column = [rng.randint(-5, 5) for _ in range(n)]
            expected = naive_power_columns(a, 70, column)
            squares = [a]
            for e in rng.sample(range(71), 71):
                got = power_apply(squares, e, column)
                assert type(got) is tuple
                assert got == expected[e], (a, column, e)
            assert len(squares) == 7  # A, A^2, ..., A^64
            assert squares[0] is a


def test_power_apply_at_exponent_zero_builds_no_square():
    assert power_apply([], 0, [3, -1]) == (3, -1)
    squares = [((1, 2), (3, 4))]
    assert power_apply(squares, 0, (5, 6)) == (5, 6)
    assert len(squares) == 1


@pytest.mark.parametrize("squares, exponent, column, error", [
    ([((1, 2), (3, 4))], -1, (1, 1), ValueError),
    ([((1, 2), (3, 4))], 1, (1, 1, 1), DimensionMismatchError),
    ([((1, 2), (3, 4))], 1, (1,), DimensionMismatchError),
    ([((1, 2), (3, 4))], 0, (1,), DimensionMismatchError),
    ([((1, 2, 0), (3, 4, 0))], 1, (1, 1), DimensionMismatchError),
    ([((1, 2), (3, 4, 0))], 1, (1, 1), DimensionMismatchError),
])
def test_power_apply_refuses_what_zipping_would_answer(
        squares, exponent, column, error):
    text = ("negative exponent -1" if error is ValueError else
            f"cannot apply a matrix of 2 rows that is not {len(column)} x "
            f"{len(column)} to a column of length {len(column)}")
    with pytest.raises(error, match=text):
        power_apply(squares, exponent, column)


# ---------------------------------------------------------------------------
# the integer product kernels against the Fraction triple loop


def _assert_products_match_fraction_loop(m):
    for a, b in ((m, m.transpose()), (m.transpose(), m)):
        expected = fraction_matmul(a, b)
        got = a @ b
        assert got == Matrix(expected, cols=b.cols)
        assert all(type(x) is Fraction for row in got.entries for x in row)
        for j in range(b.cols):
            applied = a.apply([b[k, j] for k in range(b.rows)])
            assert applied == tuple(row[j] for row in expected)
            assert all(type(x) is Fraction for x in applied)


@pytest.mark.parametrize("rows", _elimination_cases())
def test_matmul_and_apply_match_the_fraction_loop(rows):
    _assert_products_match_fraction_loop(Matrix(rows))


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_matmul_and_apply_on_empty_shapes(rows, cols):
    m = Matrix([[0] * cols for _ in range(rows)], cols=cols)
    _assert_products_match_fraction_loop(m)
    assert (m @ m.transpose()).shape == (rows, rows)
    assert (m.transpose() @ m).shape == (cols, cols)
    assert m.apply([0] * cols) == (Fraction(0),) * rows


@pytest.mark.parametrize("d", [10, 20, 30, 40])
def test_dense_matrix_times_its_inverse(d):
    m = random_invertible(d, random.Random(d))
    inv = m.inverse()
    assert m @ inv == Matrix.identity(d)
    assert inv @ m == Matrix.identity(d)
    assert m @ inv == Matrix(fraction_matmul(m, inv))


# ---------------------------------------------------------------------------
# the elimination against its previous kernel, and the packed product


def _lu_rows(d: int, rank: int, rng) -> list[list[int]]:
    """Integer L U of rank exactly `rank`: the first `rank` columns of a
    unit lower-triangular L times the first `rank` rows of an upper
    triangular U with diagonal from {1, -1, 2, 3}."""
    lower = [[1 if i == j else rng.randint(-3, 3) if i > j else 0
              for j in range(rank)] for i in range(d)]
    upper = [[rng.choice((1, -1, 2, 3)) if i == j
              else rng.randint(-3, 3) if i < j else 0
              for j in range(d)] for i in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*upper)]
            if upper else [0] * d for row in lower]


def _assert_same_elimination(rows: list, cols: int, echelon: bool):
    got, pivots = _eliminate(list(rows), cols, echelon)
    want, want_pivots = full_multiplier_eliminate(list(rows), cols, echelon)
    assert pivots == want_pivots
    assert [list(row) for row in got] == [list(row) for row in want]


def _augmented(ints, den):
    n = len(ints)
    return [row + tuple(den if i == j else 0 for j in range(n))
            for i, row in enumerate(ints)]


@pytest.mark.parametrize("echelon", [False, True])
@pytest.mark.parametrize("rows", _elimination_cases())
def test_eliminate_stores_the_rows_of_the_full_multiplier_kernel(
        rows, echelon):
    # reduced multipliers and the column range change only the work:
    # every stored row, not only the pivots, is the previous kernel's
    ints, den = Matrix(rows).integer_form
    _assert_same_elimination(ints, len(rows[0]), echelon)
    if len(rows) == len(rows[0]):
        _assert_same_elimination(_augmented(ints, den), 2 * len(rows),
                                 echelon)


@pytest.mark.parametrize("d", [10, 20, 30, 40])
def test_eliminate_matches_the_full_multiplier_kernel_on_lu_matrices(d):
    rng = random.Random(d)
    for rank in (d, 3 * d // 4, 1):
        ints = [tuple(row) for row in _lu_rows(d, rank, rng)]
        _assert_same_elimination(ints, d, echelon=True)
        _assert_same_elimination(ints, d, echelon=False)
        _assert_same_elimination(_augmented(ints, 36), 2 * d, echelon=False)
        m = Matrix.from_integers(ints, 36)
        assert m.rank() == rank
        if rank < d:
            with pytest.raises(SingularMatrixError) as err:
                m.inverse()
            assert err.value.rank == rank


def _product_operand(rng, rows: int, cols: int) -> list[list[Fraction]]:
    """Mixed-sign entries over small denominators, with a zero last row
    and a zero first column when there are two or more, and entries of
    2^200 and more in size."""
    big = 2 ** 200
    m = [[Fraction(rng.choice((-1, 1)) * rng.choice(
        (0, rng.randint(1, 9), big + rng.randint(0, 9))), rng.randint(1, 4))
        for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        m[-1] = [Fraction(0)] * cols
    if cols > 1:
        for row in m:
            row[0] = Fraction(0)
    return m


PRODUCT_SHAPES = [
    (13, 13, 13), (14, 14, 14), (15, 15, 15),
    (13, 14, 14), (14, 13, 14), (14, 14, 13),
    (16, 15, 16), (16, 16, 16), (16, 17, 16),
    (1, 40, 40), (40, 40, 1), (40, 1, 40), (1, 40, 1),
    (17, 3, 17), (3, 17, 3), (17, 17, 3),
]


@pytest.mark.parametrize("shape", PRODUCT_SHAPES,
                         ids=["x".join(map(str, s)) for s in PRODUCT_SHAPES])
def test_matmul_matches_the_fraction_loop_on_both_sides_of_packing(
        shape, monkeypatch):
    rows, inner, cols = shape
    packed = []
    product = exact._packed_product

    def counted(a, b):
        packed.append(1)
        return product(a, b)

    monkeypatch.setattr(exact, "_packed_product", counted)
    rng = random.Random(rows * 1000 + inner * 10 + cols)
    a = Matrix(_product_operand(rng, rows, inner), cols=inner)
    b = Matrix(_product_operand(rng, inner, cols), cols=cols)
    got = a @ b
    assert got.entries == tuple(map(tuple, fraction_matmul(a, b)))
    assert got.integer_form == scale_to_integers(got.entries)
    assert bool(packed) == (min(shape) >= exact._PACKED_PRODUCT_SIZE)


@pytest.mark.parametrize("left_zero", [True, False])
def test_packed_product_with_a_zero_operand(left_zero):
    # the slots must hold the other operand's entries even when the
    # product bound k max|a| max|b| is 0
    n = exact._PACKED_PRODUCT_SIZE
    big = [[(-1) ** (i + j) * (2 ** 200 + i * n + j) for j in range(n)]
           for i in range(n)]
    zero = [[0] * n for _ in range(n)]
    a, b = (zero, big) if left_zero else (big, zero)
    assert exact._packed_product(a, b) == zero
    assert (Matrix.from_integers(a, 1) @ Matrix.from_integers(b, 1)
            == Matrix.zeros(n, n))


# ---------------------------------------------------------------------------
# inverse and rank by block recursion, against elimination alone


# both sides of _BLOCK_INVERSE_SIZE (10) and _BLOCK_RANK_SIZE (25), odd
# and even, and sizes whose blocks split again
BLOCK_SIZES = [1, 2, 3, 5, 8, 9, 10, 11, 12, 13, 16, 19, 20, 21, 24, 25, 26,
               27, 31, 40, 47, 60]


def _upper(d: int, rng) -> list[list[int]]:
    """Upper triangular with diagonal from {1, -1, 2, 3}."""
    return [[rng.choice((1, -1, 2, 3)) if i == j
             else rng.randint(-3, 3) if i < j else 0
             for j in range(d)] for i in range(d)]


def _times(a, b) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _swap_blocks(d: int) -> list[list[int]]:
    """[[0, 1], [1, 0]] blocks on the diagonal, and a 1 last when d is
    odd."""
    return [[int(j == (i ^ 1 if i ^ 1 < d else i)) for j in range(d)]
            for i in range(d)]


def _block_input(kind: str, d: int, rng) -> Matrix:
    if kind == "lu":
        return Matrix.from_integers(_lu_rows(d, d, rng), 36)
    if kind == "mixed_denominators":
        # rows over 1..7 and columns times 1..5: invertible, and no one
        # denominator scales every entry
        r = [rng.randint(1, 7) for _ in range(d)]
        c = [rng.randint(1, 5) for _ in range(d)]
        return Matrix([[x * Fraction(c[j], r[i]) for j, x in enumerate(row)]
                       for i, row in enumerate(_lu_rows(d, d, rng))])
    if kind == "past_2_200":
        # L U with a first row of U past 2^200: every row of L U with a
        # first entry in L holds such entries, and the inverse, which is
        # linear in that row, too
        upper = _upper(d, rng)
        upper[0][1:] = [rng.choice((-1, 1)) * (2 ** 200 + rng.randint(0, 99))
                        for _ in range(d - 1)]
        lower = [[1 if i == j else rng.randint(-2, 2) if i > j else 0
                  for j in range(d)] for i in range(d)]
        return Matrix.from_integers(_times(lower, upper), 1)
    if kind == "permutation":
        perm = list(range(d))
        rng.shuffle(perm)
        return Matrix.from_integers(
            [[int(perm[i] == j) for j in range(d)] for i in range(d)], 1)
    if kind == "swap_blocks":
        return Matrix.from_integers(_times(_swap_blocks(d), _upper(d, rng)), 1)
    raise ValueError(kind)


BLOCK_KINDS = ["lu", "mixed_denominators", "past_2_200", "permutation",
               "swap_blocks"]


def _assert_inverse_and_rank_match_elimination(m: Matrix):
    a, den = m.integer_form
    rank, form = elimination_inverse(a, den)
    assert m.rank() == rank == echelon_rank(a, m.cols)
    if form is None:
        with pytest.raises(SingularMatrixError) as err:
            m.inverse()
        assert (err.value.rank, err.value.size) == (rank, m.rows)
    else:
        inv = m.inverse()
        assert inv == Matrix.from_integers(*form)
        assert inv.integer_form == form


@pytest.mark.parametrize("kind", BLOCK_KINDS)
def test_inverse_and_rank_match_elimination_on_both_sides_of_the_cutoffs(
        kind):
    rng = random.Random(kind)
    for d in BLOCK_SIZES:
        m = _block_input(kind, d, rng)
        _assert_inverse_and_rank_match_elimination(m)
    assert m.inverse() @ m == Matrix.identity(d)
    if kind == "past_2_200":
        assert max(map(abs, itertools.chain(*m.integer_form[0]))) > 2 ** 200


@pytest.mark.parametrize("d", [9, 12, 26, 31])
def test_singular_matrices_of_every_rank_carry_their_rank(d):
    # a rank short of the leading block's size makes that block
    # singular; a larger one leaves a singular Schur complement
    rng = random.Random(d)
    for rank in range(d + 1):
        m = Matrix.from_integers(_lu_rows(d, rank, rng), 6)
        _assert_inverse_and_rank_match_elimination(m)


@pytest.mark.parametrize("d", [40, 60])
@pytest.mark.parametrize("rank_of", [0, 1, 0.25, 0.5, 0.75, 0.98])
def test_large_singular_matrices_carry_their_rank(d, rank_of):
    rank = max(0, min(d - 1, round(rank_of * d)))
    m = Matrix.from_integers(_lu_rows(d, rank, random.Random(rank)), 6)
    _assert_inverse_and_rank_match_elimination(m)
    gram = m.transpose() @ m
    assert gram.rank() == rank == echelon_rank(gram.integer_form[0], d)


RANK_SHAPES = [(1, 60), (60, 1), (13, 40), (40, 13), (24, 60), (60, 24),
               (25, 26), (26, 25), (30, 60), (60, 30), (47, 31), (31, 47)]


@pytest.mark.parametrize("shape", RANK_SHAPES,
                         ids=["x".join(map(str, s)) for s in RANK_SHAPES])
def test_rank_of_tall_and_wide_matrices_matches_elimination(shape):
    rows, cols = shape
    rng = random.Random(rows * 100 + cols)
    for rank in sorted({0, 1, min(shape) // 2, min(shape) - 1, min(shape)}):
        left = [[rng.randint(-3, 3) for _ in range(rank)]
                for _ in range(rows)]
        right = [[rng.randint(-5, 5) for _ in range(cols)]
                 for _ in range(rank)]
        m = Matrix.from_integers(_times(left, right) if right
                                 else [[0] * cols] * rows, 6)
        assert m.rank() == echelon_rank(m.integer_form[0], cols) <= rank
        assert m.transpose().rank() == m.rank()


def _recorded(monkeypatch, name: str) -> list:
    """Replace `exact.<name>` by a wrapper that records the row and column
    counts of its first argument at each call, recursive calls too."""
    calls, f = [], getattr(exact, name)

    def recorded(a, *args):
        calls.append((len(a), len(a[0]) if a else 0))
        return f(a, *args)

    monkeypatch.setattr(exact, name, recorded)
    return calls


@pytest.mark.parametrize("d", [1, 9, 10, 11, 20, 40])
def test_inverse_recurses_at_and_above_the_cutoff_only(d, monkeypatch):
    blocks = _recorded(monkeypatch, "_schur")
    eliminated = _recorded(monkeypatch, "_eliminated_inverse")
    m = Matrix.from_integers(_lu_rows(d, d, random.Random(d)), 36)
    assert m.inverse() @ m == Matrix.identity(d)
    cutoff = exact._BLOCK_INVERSE_SIZE
    assert bool(blocks) == (d >= cutoff)
    assert all(n >= cutoff for n, _ in blocks)
    # LU inputs have invertible leading blocks: nothing falls back
    assert eliminated and all(n < cutoff for n, _ in eliminated)


@pytest.mark.parametrize("shape", [(24, 24), (25, 25), (24, 60), (25, 60),
                                   (60, 25), (40, 40), (60, 60)])
def test_rank_recurses_at_and_above_the_cutoff_only(shape, monkeypatch):
    rows, cols = shape
    # inner inverses by elimination, so every block step is the rank's
    monkeypatch.setattr(exact, "_BLOCK_INVERSE_SIZE", 10 ** 6)
    blocks = _recorded(monkeypatch, "_schur")
    rng = random.Random(rows * 100 + cols)
    m = Matrix(_times(_lu_rows(rows, rows, rng),
                      [[rng.randint(-3, 3) for _ in range(cols)]
                       for _ in range(rows)]), cols=cols)
    assert m.rank() == echelon_rank(m.integer_form[0], cols)
    cutoff = exact._BLOCK_RANK_SIZE
    assert bool(blocks) == (min(shape) >= cutoff)
    assert all(min(n, c) >= cutoff for n, c in blocks)


@pytest.mark.parametrize("kind", ["reversal", "permutation", "swap_blocks"])
def test_a_singular_leading_block_falls_back_and_inverts_exactly(
        kind, monkeypatch):
    d = 22  # leading block 11 x 11, which splits a swap block
    eliminated = _recorded(monkeypatch, "_eliminated_inverse")
    m = (Matrix.from_integers([[int(i + j == d - 1) for j in range(d)]
                               for i in range(d)], 1) if kind == "reversal"
         else _block_input(kind, d, random.Random(kind)))
    inv = m.inverse()
    assert (d, d) in eliminated
    assert m @ inv == Matrix.identity(d)
    assert inv.integer_form == elimination_inverse(*m.integer_form)[1]
    if kind != "swap_blocks":
        assert inv == m.transpose()
