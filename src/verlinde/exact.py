"""Exact rational linear algebra: dense matrices and integer row kernels.

Nothing in this module ever rounds.  Each `Matrix` is stored as one
scaled-integer form, integer rows over one positive denominator divided
by their gcd (`scale_to_integers`), set when it is made; its `Fraction`
entries are a view, built on first read.  `@`, `apply`, rank, inverse
and the one fraction-free elimination (after Bareiss, 1968) work on
plain `int`s; `apply` divides each result entry once, and a `Matrix`
result is an integer form.  `@` takes dot products of small matrices
and packs each row of a large right operand into one integer (Kronecker
substitution, `_packed_product`): one multiplication per entry of the
left operand in place of one per term of each dot product.  The
elimination combines two rows with multipliers divided by their gcd,
so most combined rows need no division by their content.  `rref` is
its reduced form; the reduced rows it returns are a `Matrix` whose
pivot entries all equal its denominator, the form `rref_integers`
gives of plain integer rows without a `Matrix`.  `inverse` and `rank`
of large matrices recurse on 2 x 2 blocks, the leading block and its
Schur complement, so that most of their work is products by the same
kernel as `@` (Strassen, 1969; Bunch and Hopcroft, 1974); small
matrices, and those whose leading block is singular, are eliminated,
to the echelon form for `rank` and the reduced form for `inverse`.
The reduced form of a matrix is canonical, so equality and hashing
compare it, and every route gives the same inverse.  All values are
immutable after construction, so they are safe to share freely.
`_reduced` is the one reduction of integer rows over a denominator:
matrices, and the structure constants of `tqft.Algebra`, are divided
by their gcd through it.

`combine_rows` is the one dense integer product of structure
constants, sum_d vec[d] * rows[d]: the products of fusion rings and
algebras, their unit laws and the handle maps of `surfaces`
and `tqft` are all built from it.  `power_apply`, A^e * column by
repeated squaring, is the one integer matrix power: `surfaces` and
`tqft` read every closed- and coloured-surface number from it.

Structure constants of fusion rings, algebras and linear categories
share one sparse integer table (`sparse_rows` builds it from integer
planes) and one exact associativity check on it
(`associativity_failures`), which decides a
pair (i, j) at a time by comparing the rows (e_i e_j) e_k and
e_i (e_j e_k) over all k at once.  `light_associativity_failures`
walks only the triples whose middle factor is in a generating set that
a certificate proves generates (Light's test), and falls back to the
full walk when the set cannot pay or a triple fails.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

__all__ = [
    "Rational",
    "rat",
    "Matrix",
    "scale_to_integers",
    "rref_integers",
    "combine_rows",
    "power_apply",
    "sparse_rows",
    "associativity_failures",
    "light_associativity_failures",
    "DimensionMismatchError",
    "SingularMatrixError",
]

Rational = Fraction

# `@` packs its right operand (`_packed_product`) when the rows, the
# inner size and the columns all reach this.  On square integer forms
# of 3 to 120 bits (CPython 3.11, 2-core VM) the two paths are level at
# 12 and 13; from 14 on packing is faster, and below 12 the dot
# products are.
_PACKED_PRODUCT_SIZE = 14

# `inverse` recurses on 2 x 2 blocks (`_inverse`) from this many rows
# on.  Interleaved best-of-15 timings of `perfbench/gen.py`'s invertible
# L U (CPython 3.11, 2-core VM), elimination -> recursion: level at 8
# and 9, 0.25 -> 0.22 ms at 10, 0.47 -> 0.36 at 12, 2.05 -> 1.21 at 20
# and 14.7 -> 4.95 at 40.
_BLOCK_INVERSE_SIZE = 10
# `rank` recurses (`_rank`) once the rows and the columns reach this.
# On the Gram matrix N^T N of an N of rank 3/4 of its size the recursion
# is faster from 20 on (1.65 -> 1.12 ms at 20, 5.06 -> 3.05 at 30, 14.3
# -> 7.1 at 40), but on N, whose integer form has small entries, it is
# 0.05-0.1 ms slower at 16 and 24, and level from 25 on.
_BLOCK_RANK_SIZE = 25


def rat(x) -> Fraction:
    """Coerce an int or a 'p/q' string to Fraction; Fractions pass through,
    and floats, which are not exact, raise `TypeError`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("entries must be ints or Fractions")
    return Fraction(x)


def scale_to_integers(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(integer rows, d) with rows == integer rows / d: d is the lcm of the
    denominators of all entries (ints or Fractions), 1 if there are none."""
    try:
        den = lcm(*{x.denominator for row in rows for x in row})
    except AttributeError:
        raise TypeError("entries must be ints or Fractions") from None
    return tuple([tuple([x.numerator * (den // x.denominator) for x in row])
                  for row in rows]), den


def _reduced(rows, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, den) of integer rows over den > 0, both divided by the gcd
    of den and every entry: the form `scale_to_integers` gives of the
    values rows / den."""
    if den <= 0:
        raise ValueError(f"denominator {den} is not positive")
    g = gcd(den, *chain.from_iterable(rows))
    if g == 1:
        return tuple(map(tuple, rows)), den
    return tuple([tuple([x // g for x in row]) for row in rows]), den // g


def _fractions(rows, den: int) -> tuple[tuple[Fraction, ...], ...]:
    """The values rows / den as `Fraction` rows, one `Fraction` object per
    distinct value (structure constants repeat a few values)."""
    value = {x: Fraction(x, den) for x in {x for row in rows for x in row}}
    return tuple([tuple(map(value.__getitem__, row)) for row in rows])


class DimensionMismatchError(ValueError):
    """Operand shapes do not line up; the message names both shapes."""


class SingularMatrixError(ValueError):
    """A rank-deficient matrix was asked for its inverse; carries the rank."""

    def __init__(self, rank: int, size: int):
        super().__init__(f"singular {size}x{size} matrix (rank {rank})")
        self.rank = rank
        self.size = size


def _shape(data, declared) -> tuple[int, ...]:
    """The lengths of the nested sequences `data`, one per level of
    `declared`.  All sequences of a level have one length, which is the
    declared one unless that is None; below an empty level the declared
    lengths stand, 0 where None."""
    shape, level = [], [data]
    for want in declared:
        lengths = {len(x) for x in level}
        if len(lengths) > 1:
            raise DimensionMismatchError(
                f"ragged data: lengths {sorted(lengths)} at depth "
                f"{len(shape)}")
        n = lengths.pop() if lengths else want or 0
        if want is not None and n != want:
            raise DimensionMismatchError(
                f"declared length {want} at depth {len(shape)}, found {n}")
        shape.append(n)
        level = [y for x in level for y in x]
    return tuple(shape)


class Matrix:
    """Immutable dense rational matrix, row-major, stored as its
    `integer_form` (rows, den): integer rows over den > 0, divided by
    their gcd, on which products, `apply` and elimination run.

    `entries` is the `Fraction` view, built on first read; a matrix
    built from entries keeps its own `Fraction`s as that view.
    """

    __slots__ = ("rows", "cols", "integer_form", "_entries")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        self._set(*_shape(rows, (None, cols)), scale_to_integers(rows), rows)

    def _set(self, rows: int, cols: int, form, entries=None) -> "Matrix":
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "integer_form", form)
        object.__setattr__(self, "_entries", entries)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_integers(cls, rows, den: int) -> "Matrix":
        """The matrix rows[i][j] / den, for integer rows of one length and
        den > 0; its integer form is rows and den divided by their gcd."""
        return object.__new__(cls)._set(*_shape(rows, (None, None)),
                                        _reduced(rows, den))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return object.__new__(cls)._set(n, n, (tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)), 1))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return object.__new__(cls)._set(rows, cols,
                                        (((0,) * cols,) * rows, 1))

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """entries[i][j], as `Fraction`s, built once."""
        if self._entries is None:
            object.__setattr__(self, "_entries",
                               _fractions(*self.integer_form))
        return self._entries

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def transpose(self) -> "Matrix":
        a, den = self.integer_form
        return object.__new__(Matrix)._set(
            self.cols, self.rows,
            (tuple(zip(*a)) if a else ((),) * self.cols, den))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The `_product` of the integer forms over da * db."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        if not self.rows:
            return Matrix.zeros(0, other.cols)
        a, da = self.integer_form
        b, db = other.integer_form
        return Matrix.from_integers(_product(a, b, other.cols), da * db)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        a, den = self.integer_form
        return object.__new__(Matrix)._set(self.rows, self.cols, _reduced(
            [[c.numerator * x for x in row] for row in a],
            den * c.denominator))

    def apply(self, vector: Iterable) -> tuple[Fraction, ...]:
        """Matrix times column vector, returned as a tuple."""
        v = tuple(rat(x) for x in vector)
        if len(v) != self.cols:
            raise DimensionMismatchError(
                f"cannot apply {self.rows}x{self.cols} to vector of "
                f"length {len(v)}")
        a, da = self.integer_form
        (w,), dv = scale_to_integers((v,))
        d = da * dv
        return tuple(Fraction(sum(map(mul, row, w)), d) for row in a)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form: (nonzero rows, their pivot columns).

        The rows, a rank x cols matrix, have leading 1 and come in pivot
        order; they are the unique reduced basis of the row space.  In
        their integer form every pivot entry equals the denominator.
        """
        rows, den, pivots = rref_integers(self.integer_form[0], self.cols)
        return (object.__new__(Matrix)._set(len(pivots), self.cols,
                                            (rows, den)), pivots)

    def rank(self) -> int:
        """The rank, by `_rank`: block recursion from `_BLOCK_RANK_SIZE`
        rows and columns on, one echelon `_eliminate` below."""
        return _rank(self.integer_form[0], self.cols)

    def inverse(self) -> "Matrix":
        """The inverse, by `_inverse`: block recursion from
        `_BLOCK_INVERSE_SIZE` rows on, one `_eliminate` of [a | den * I]
        below; raises `SingularMatrixError`, carrying the rank."""
        if self.rows != self.cols:
            raise DimensionMismatchError(
                f"cannot invert non-square {self.rows}x{self.cols} matrix")
        a, den = self.integer_form
        return object.__new__(Matrix)._set(self.rows, self.cols,
                                           _inverse(a, den))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.shape == other.shape
                and self.integer_form == other.integer_form)

    def __hash__(self) -> int:
        return hash((self.shape, self.integer_form))

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]"
                         for row in self.entries)
        return f"Matrix([{body}])"


def _packed_product(a, b) -> list[list[int]]:
    """The integer matrix product a b by Kronecker substitution (von zur
    Gathen and Gerhard, Modern Computer Algebra, 8.4).

    Row t of b is packed into the one int sum_j b[t][j] 2^(w j), in
    slots of w = 8 s bits that hold any entry of b or of the product
    (at most k max|a| max|b| for inner size k) with a sign bit to
    spare.  Row i of the product is then sum_t a[i][t] packed[t], plus
    2^(w-1) in every slot so that none is negative and no slot borrows
    from the next; its bytes, s to a slot, less 2^(w-1), are the entries.
    """
    n = len(b[0])
    ma = max(map(abs, chain.from_iterable(a)))
    mb = max(map(abs, chain.from_iterable(b)))
    s = (len(b) * ma * mb + mb).bit_length() // 8 + 1
    half, size = 1 << (8 * s - 1), n * s
    bias = int.from_bytes(half.to_bytes(s, "little") * n, "little")
    # the slots of b[t] + 2^(w-1) are nonnegative, so their bytes pack it
    packed = [int.from_bytes(b"".join([(x + half).to_bytes(s, "little")
                                       for x in row]), "little") - bias
              for row in b]
    out = []
    for row in a:
        data = (sum(map(mul, row, packed)) + bias).to_bytes(size, "little")
        out.append([int.from_bytes(data[o:o + s], "little") - half
                     for o in range(0, size, s)])
    return out


def _product(a, b, cols: int) -> list[list[int]]:
    """The integer matrix product of rows a and rows b of `cols` entries:
    dot products, or `_packed_product` once the rows, the inner size and
    the columns all reach `_PACKED_PRODUCT_SIZE`; the integers agree."""
    if min(len(a), len(b), cols) >= _PACKED_PRODUCT_SIZE:
        return _packed_product(a, b)
    columns = list(zip(*b)) if b else [()] * cols
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


def _schur(a, k: int, x, d: int):
    """(p, s, g) for the blocks [[A, B], [C, D]] of the square or
    rectangular integer rows a, A of size k, and x / d = A^-1: p = x B,
    and s = (d D - C p) / g, the Schur complement times d / g for its
    content g (s is zero and g = 0 when the complement is zero)."""
    cols = len(a[0]) - k
    p = _product(x, [row[k:] for row in a[:k]], cols)
    cp = _product([row[:k] for row in a[k:]], p, cols)
    s = [[d * u - v for u, v in zip(row[k:], w)] for row, w in zip(a[k:],
                                                                     cp)]
    g = gcd(*chain.from_iterable(s))
    return p, [[u // g for u in row] for row in s] if g > 1 else s, g


def _inverse(a, s: int = 1) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(x, d), reduced, with x / d = s a^-1 and d > 0, for square integer
    rows a; a singular a raises `SingularMatrixError`, carrying its rank.

    Below `_BLOCK_INVERSE_SIZE` rows, one `_eliminate` of [a | s I].
    From it on, by the blocks [[A, B], [C, D]] of a, A of half the size
    (Strassen, 1969; Bunch and Hopcroft, 1974): A^-1 = x / d and the
    inverse y / e of the Schur complement S = (d D - C x B) / g come
    from two recursions, and with p = x B and q = C x the inverse is
    [[g e x + p y q, -d p y], [-d y q, d^2 y]] / (g e d), from the six
    products x B, C x, C p, p y, y q and (p y) q, reduced once.  When A
    is singular, a is eliminated as below the size; when S is, the rank
    of a is the size of A plus the rank of S.
    """
    n = len(a)
    k = n // 2
    if n < _BLOCK_INVERSE_SIZE:
        return _eliminated_inverse(a, s)
    try:
        x, d = _inverse([row[:k] for row in a[:k]])
    except SingularMatrixError:
        return _eliminated_inverse(a, s)
    p, schur, g = _schur(a, k, x, d)
    if not g:
        raise SingularMatrixError(rank=k, size=n)
    try:
        y, e = _inverse(schur)
    except SingularMatrixError as err:
        raise SingularMatrixError(rank=k + err.rank, size=n) from None
    q = _product([row[:k] for row in a[k:]], x, k)
    py, yq = _product(p, y, n - k), _product(y, q, k)
    f, dd = g * e, d * d
    rows = [[f * u + v for u, v in zip(xr, w)] + [-d * v for v in pr]
            for xr, w, pr in zip(x, _product(py, q, k), py)]
    rows += [[-d * v for v in qr] + [dd * v for v in yr]
             for qr, yr in zip(yq, y)]
    if s != 1:
        rows = [[s * u for u in row] for row in rows]
    return _reduced(rows, f * d)


def _eliminated_inverse(a, s: int):
    """`_inverse` by one `_eliminate` of [a | s I]."""
    n = len(a)
    m, pivots = _eliminate(
        [[*row, *(s if i == j else 0 for j in range(n))]
         for i, row in enumerate(a)], 2 * n)
    r = sum(1 for c in pivots if c < n)
    if r < n:
        raise SingularMatrixError(rank=r, size=n)
    d = lcm(*(row[i] for i, row in enumerate(m)))
    return _reduced([[x * (d // row[i]) for x in row[n:]]
                     for i, row in enumerate(m)], d)


def _rank(a, cols: int) -> int:
    """The rank of integer rows a of `cols` entries.

    Below `_BLOCK_RANK_SIZE` rows or columns, one echelon `_eliminate`.
    From it on, when the leading block A of half the smaller side is
    invertible (`_inverse`), the rank is its size plus the rank of the
    Schur complement, and the size alone when that is zero; when A is
    singular, a is eliminated as below the size.
    """
    k = min(len(a), cols) // 2
    if min(len(a), cols) < _BLOCK_RANK_SIZE:
        return len(_eliminate(list(a), cols, echelon=True)[1])
    try:
        x, d = _inverse([row[:k] for row in a[:k]])
    except SingularMatrixError:
        return len(_eliminate(list(a), cols, echelon=True)[1])
    _, schur, g = _schur(a, k, x, d)
    return k + (_rank(schur, cols - k) if g else 0)


def _eliminate(m: list, cols: int,
               echelon: bool = False) -> tuple[list, list[int]]:
    """Fraction-free Gauss-Jordan on integer rows: (rows, pivot columns).

    The rows of `m` (any positive scaling of each row gives the same
    result) are eliminated over the integers in place.  A row with entry
    b in the column of pivot a becomes (a/g) row - (b/g) pivot row, for
    g = gcd(a, b), divided by the gcd of its entries: the primitive row
    a row - b pivot row would give, from smaller products and most often
    with no division left to do.  Row r, divided by its entry in column
    pivots[r], is row r of the reduced row echelon form; the rows past
    the last pivot are zero.  With `echelon` only the rows below each
    pivot are cleared, which finds the same pivots (all `rank` needs)
    but leaves the rows above them unreduced; the rows below a pivot,
    like the pivot row, are zero left of its column, so only the
    columns from the pivot on are combined.
    """
    rows = len(m)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        prow, a = m[r], m[r][c]
        if echelon:
            zeros, tail = [0] * c, prow[c:]
            for i in range(r + 1, rows):
                if b := m[i][c]:
                    g = gcd(a, b)
                    x, y = (a // g, b // g) if g > 1 else (a, b)
                    row = [x * u - y * v for u, v in zip(m[i][c:], tail)]
                    g = gcd(*row)
                    m[i] = zeros + ([u // g for u in row] if g > 1 else row)
        else:
            for i in range(rows):
                if i != r and (b := m[i][c]):
                    g = gcd(a, b)
                    x, y = (a // g, b // g) if g > 1 else (a, b)
                    row = [x * u - y * v for u, v in zip(m[i], prow)]
                    g = gcd(*row)
                    m[i] = [u // g for u in row] if g > 1 else row
        pivots.append(c)
    return m, pivots


def rref_integers(rows, cols: int) -> tuple[tuple[tuple[int, ...], ...],
                                              int, tuple[int, ...]]:
    """(reduced, den, pivots) for integer rows of length `cols`: the rows
    reduced / den, in pivot order, are the nonzero rows of the reduced
    row echelon form, so every pivot entry equals den, and no factor
    divides den and all the integers.  The form depends on the row
    space alone; `Matrix.rref` returns it as a `Matrix`."""
    m, pivots = _eliminate(list(rows), cols)
    d = lcm(*(m[r][c] for r, c in enumerate(pivots)))
    reduced, den = _reduced([[x * (d // m[r][c]) for x in m[r]]
                             for r, c in enumerate(pivots)], d)
    return reduced, den, tuple(pivots)


def combine_rows(vec, rows) -> tuple[int, ...]:
    """The integer row combination sum_d vec[d] * rows[d], skipping zeros.

    The one dense product of structure constants: with rows[d] =
    table[d][a] it is vec * e_a, with rows[d] = table[a][d] it is
    e_a * vec, and with the rows of a square matrix it is the
    vector-matrix product.  The result is as wide as the rows (empty
    when there are none), not as `vec`.  A `vec` whose length is not the
    number of rows raises `DimensionMismatchError`.
    """
    if len(vec) != len(rows):
        raise DimensionMismatchError(
            f"cannot combine {len(rows)} rows by a vector of length "
            f"{len(vec)}")
    z = [0] * (len(rows[0]) if rows else 0)
    for v, row in zip(vec, rows):
        if v:
            for c, m in enumerate(row):
                if m:
                    z[c] += v * m
    return tuple(z)


def power_apply(squares: list, exponent: int, column) -> tuple[int, ...]:
    """A^exponent * column for the square integer matrix A = squares[0],
    by repeated squaring.

    `squares` holds A, A^2, A^4, ... and is extended in place, so uses
    that share it build each square once; exponent 0 builds nothing and
    may find it empty.  A negative exponent raises `ValueError`, and a
    matrix that is not square or not as long as the column
    `DimensionMismatchError`, where zipping would give a vector.
    """
    if exponent < 0:
        raise ValueError(f"negative exponent {exponent}")
    column = tuple(column)
    if squares and any(len(row) != len(column)
                       for row in (squares[0], *squares[0])):
        raise DimensionMismatchError(
            f"cannot apply a matrix of {len(squares[0])} rows that is not "
            f"{len(column)} x {len(column)} to a column of length "
            f"{len(column)}")
    for k in range(exponent.bit_length()):
        if k == len(squares):
            squares.append(tuple(combine_rows(row, squares[-1])
                                 for row in squares[-1]))
        if exponent >> k & 1:
            column = tuple(sum(map(mul, row, column)) for row in squares[k])
    return column


def sparse_rows(planes) -> list[dict]:
    """The sparse rows of integer planes (the planes of `Algebra.mult`):
    rows[i][j] maps k to planes[i][j][k] for its nonzero entries, and
    holds j only when there is one, both in ascending order."""
    return [{j: {k: c for k, c in enumerate(fibre) if c}
             for j, fibre in enumerate(plane) if any(fibre)}
            for plane in planes]


def associativity_failures(rows, partners, thirds=None):
    """Yield each (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k).

    `rows[i]` maps j to the nonzero {k: c} of e_i e_j over one common
    denominator (`sparse_rows`); no entry is zero and none is empty.
    The triples come in the order i, j in `partners[i]`, k in
    `thirds[j]` (`partners[j]` if None), for any such lists, also ones
    that leave out keys of the rows.

    Each pair (i, j) is decided with one dict comparison of two rows
    indexed by k, L[k] = (e_i e_j) e_k and R[k] = e_i (e_j e_k),
    compared without their zero entries (sums are stripped only when
    they differ as summed), so the comparison is exact.  When
    e_i e_j = c * e_m, L is row m, scaled by c unless c = 1; otherwise
    it is the sum of the rows of its terms.  When e_j e_k = c' * e_n,
    R[k] is rows[i][n], scaled by c' unless c' = 1; otherwise a sum.
    Only when L != R are the k in `thirds[j]` walked, yielding those
    where the rows differ.  So a pair costs one lookup per entry of row
    j, the sums its other entries need and one comparison, in place of
    two products per triple.  Each scaled row is built once per call.
    """
    empty: dict = {}
    memo: dict = {}  # (m, c) -> row m times c, kept for this call only
    if thirds is None:
        thirds = partners

    def scaled(m, c):
        if (m, c) not in memo:
            # zip and map scale an entry without a comprehension's frame
            times = c.__mul__
            memo[m, c] = {k: dict(zip(combo, map(times, combo.values())))
                          for k, combo in rows[m].items()}
        return memo[m, c]

    # row j as its entries e_j e_k = 1 * e_n, (k, n) in ones[j]; its
    # entries e_j e_k = c * e_n, c != 1, as (c, [(k, n), ...]) in
    # multiples[j], grouped by c; its other entries (k, combo) in others[j]
    ones, multiples, others = [], [], []
    for row in rows:
        one, groups, other = [], {}, []
        for k, combo in row.items():
            if len(combo) > 1:
                other.append((k, combo))
                continue
            (n, c), = combo.items()
            if c == 1:
                one.append((k, n))
            else:
                groups.setdefault(c, []).append((k, n))
        ones.append(one)
        multiples.append(groups.items())
        others.append(other)

    for i, row in enumerate(rows):
        for j in partners[i]:
            ij = row.get(j, empty)
            if len(ij) == 1:
                (m, c), = ij.items()
                lhs = rows[m] if c == 1 else scaled(m, c)
            else:
                lhs = {}
                for m, c in ij.items():
                    for k, combo in rows[m].items():
                        if (out := lhs.get(k)) is None:
                            out = lhs[k] = {}
                        for t, v in combo.items():
                            out[t] = out.get(t, 0) + c * v
            rhs = {}
            for k, n in ones[j]:
                if (r := row.get(n)) is not None:
                    rhs[k] = r
            for c, kn in multiples[j]:
                src = scaled(i, c)
                for k, n in kn:
                    if (r := src.get(n)) is not None:
                        rhs[k] = r
            for k, combo in others[j]:
                out = rhs[k] = {}
                for n, c in combo.items():
                    for t, v in row.get(n, empty).items():
                        out[t] = out.get(t, 0) + c * v
            if lhs != rhs and (lhs := _without_zeros(lhs)) != (
                    rhs := _without_zeros(rhs)):
                for k in thirds[j]:
                    if lhs.get(k) != rhs.get(k):
                        yield i, j, k


def light_associativity_failures(rows, partners) -> tuple[list, int]:
    """The list of `associativity_failures(rows, partners)` and the number
    of equations evaluated for it, by Light's test (Clifford and Preston,
    The Algebraic Theory of Semigroups I, 1961, section 1.2).

    The a with (x a) y = x (a y) for all x, y form a subspace closed
    under the product: for two of them, (x (a b)) y = ((x a) b) y =
    (x a)(b y) = x (a (b y)) = x ((a b) y), by bilinearity alone, for
    any number of objects and without identities.  So if every basis
    element is a multiple of a product of generators S, the triples with
    middle factor in S decide associativity, given that the triples
    `partners` leaves out hold, as a category's non-composable ones do
    (both sides are zero).  `_light_generators` finds S with a
    certificate, or gives up when it cannot pay; then, and when the walk
    over S finds any failure, the full walk runs and its list and triple
    count are the answer.  Otherwise the count is the triples through S
    plus the certificate's lookups.
    """
    into = [0] * len(rows)  # into[j]: the i with j in partners[i]
    for js in partners:
        for j in js:
            into[j] += 1
    through = [d * len(partners[j]) for j, d in enumerate(into)]
    full = sum(through)
    found = _light_generators(rows, through, full)
    if found is not None:
        gens, equations = set(found[0]), found[1]
        restricted = {}  # partners lists are often shared: filter each once
        for js in partners:
            if id(js) not in restricted:
                restricted[id(js)] = [j for j in js if j in gens]
        if not any(True for _ in associativity_failures(
                rows, [restricted[id(js)] for js in partners], partners)):
            return [], equations
    return list(associativity_failures(rows, partners)), full


def _light_generators(rows, through, full):
    """(S, equations) for Light's test, or None when the full walk's
    `full` triples are cheaper.

    S grows in basis order: b is generated when a generated x and an
    s in S have x s or s x = c * e_b with c != 0 (a multi-term or zero
    composite makes nothing), and an element not generated when its turn
    comes joins S.  Each pair of a generated x and an s in S is read
    once, two lookups, so with n elements the certificate ends at
    |S| (2n - |S| + 1) lookups; with `through[b]`, the triples with
    middle factor b, S costs `equations` = its triples plus those
    lookups.  Once that would reach `full`, S is given up.
    """
    n = len(rows)
    generated = [False] * n
    gens, members = [], []  # S, and the generated elements
    walked = 0
    for b in range(n):
        if generated[b]:
            continue
        walked += through[b]
        if walked + (len(gens) + 1) * (2 * n - len(gens)) >= full:
            return None
        gens.append(b)
        generated[b] = True
        members.append(b)
        queue = [(x, (b,)) for x in members]  # pairs (x, s) still to read
        while queue:
            x, ss = queue.pop()
            for s in ss:
                for c in (rows[x].get(s), rows[s].get(x)):
                    if c is not None and len(c) == 1:
                        (m, v), = c.items()
                        if v and not generated[m]:
                            generated[m] = True
                            members.append(m)
                            queue.append((m, gens))
    return gens, walked + len(gens) * (2 * n - len(gens) + 1)


def _without_zeros(sums: dict) -> dict:
    """The rows {k: {t: v}} of `sums` without zero entries or empty rows."""
    out = {}
    for k, row in sums.items():
        if 0 in row.values():
            row = {t: v for t, v in row.items() if v}
        if row:
            out[k] = row
    return out
