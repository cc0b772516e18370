"""Exact rational linear algebra: dense matrices and small rank-3 tensors.

Every scalar is a `fractions.Fraction`; nothing in this module ever
rounds.  Each `Matrix` and `Tensor3` keeps one scaled-integer form,
integer rows over one positive denominator (`scale_to_integers`), built
on first use.  `@`, `apply`, `contract` and the one fraction-free
elimination behind rank, inverse and `rref` (after Bareiss, 1968) work
on plain `int`s and divide each result entry once; `rank` stops at the
echelon form, `rref` and `inverse` go on to the reduced form, and
`inverse` wraps an integer core that `tqft` reads directly.  The
results of `@`, `inverse`, `apply`, `transpose` and `rref` are eager
`Fraction`s.  A `Matrix` or `Tensor3` made by `from_integers` keeps the
integer form it is given and builds its `Fraction` entries only when
they are read.  All values are immutable after construction, so they
are safe to share freely.

Structure constants of fusion rings, algebras and linear categories
share one sparse integer table (`integer_rows`) and one exact
associativity check on it (`associativity_failures`), which decides a
pair (i, j) at a time by comparing the rows (e_i e_j) e_k and
e_i (e_j e_k) over all k at once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable

__all__ = [
    "Rational",
    "rat",
    "Matrix",
    "Tensor3",
    "scale_to_integers",
    "integer_rows",
    "associativity_failures",
    "DimensionMismatchError",
    "SingularMatrixError",
]

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce an int or a 'p/q' string to Fraction; Fractions pass through."""
    return x if isinstance(x, Fraction) else Fraction(x)


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
    g = gcd(den, *(x for row in rows for x in row))
    return tuple([tuple([x // g for x in row]) for row in rows]), den // g


def _fractions(rows, den: int) -> tuple[tuple[Fraction, ...], ...]:
    """The values rows / den as `Fraction` rows."""
    return tuple([tuple([Fraction(x, den) for x in row]) for row in rows])


class DimensionMismatchError(ValueError):
    """Operand shapes do not line up; the message names both shapes."""


class SingularMatrixError(ValueError):
    """A rank-deficient matrix was asked for its inverse; carries the rank."""

    def __init__(self, rank: int, size: int):
        super().__init__(f"singular {size}x{size} matrix (rank {rank})")
        self.rank = rank
        self.size = size


class Matrix:
    """Immutable dense matrix over Fraction, row-major, plus its cached
    `integer_form`, on which products, `apply` and elimination run.

    A matrix built from entries holds them at once and derives the
    integer form on first use, and so do the results of `@`, `inverse`
    and `transpose`.  One built by `from_integers` (the derived matrices
    of `tqft`) holds the integer form and builds its `entries` on first
    read.
    """

    __slots__ = ("rows", "cols", "_entries", "_integer")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionMismatchError("ragged rows in matrix literal")
            if cols is not None and cols != ncols:
                raise DimensionMismatchError(
                    f"declared {cols} columns, rows have {ncols}")
        else:
            ncols = 0 if cols is None else cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "_entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_integers(cls, rows, den: int) -> "Matrix":
        """The matrix rows[i][j] / den, for integer rows and den > 0,
        stored as its integer form: divided by the gcd of den and all
        entries, it is the form `scale_to_integers` would give."""
        rows, den = _reduced(rows, den)
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", len(rows[0]) if rows else 0)
        object.__setattr__(m, "_integer", (rows, den))
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """entries[i][j], as `Fraction`s, built once."""
        if not hasattr(self, "_entries"):
            object.__setattr__(self, "_entries", _fractions(*self._integer))
        return self._entries

    def _eager(self) -> "Matrix":
        """self with its entries built: public results are eager."""
        self.entries
        return self

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    @property
    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """`scale_to_integers` of the entries, computed once."""
        if not hasattr(self, "_integer"):
            object.__setattr__(self, "_integer",
                               scale_to_integers(self.entries))
        return self._integer

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.entries[i][j] for i in range(self.rows)]
             for j in range(self.cols)],
            cols=self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
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
        cols = list(zip(*b)) if b else [()] * other.cols
        return Matrix.from_integers(
            [[sum(map(mul, row, col)) for col in cols] for row in a],
            da * db)._eager()

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix([[c * x for x in row] for row in self.entries],
                      cols=self.cols)

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

    def rref(self) -> tuple[tuple[tuple[Fraction, ...], ...],
                            tuple[int, ...]]:
        """Reduced row echelon form: (nonzero rows, their pivot columns).

        The rows have leading 1 and come in pivot order; they are the
        unique reduced basis of the row space.
        """
        m, pivots = _eliminate(list(self.integer_form[0]), self.cols)
        rows = tuple(tuple(Fraction(x, m[r][c]) for x in m[r])
                     for r, c in enumerate(pivots))
        return rows, tuple(pivots)

    def rank(self) -> int:
        return len(_eliminate(list(self.integer_form[0]), self.cols,
                              echelon=True)[1])

    def _inverse_integers(self) -> tuple[list[list[int]], int]:
        """(rows, d) with the inverse equal to rows / d, d > 0, from one
        `_eliminate`; raises `SingularMatrixError`, carrying the rank."""
        if self.rows != self.cols:
            raise DimensionMismatchError(
                f"cannot invert non-square {self.rows}x{self.cols} matrix")
        n = self.rows
        a, den = self.integer_form
        m, pivots = _eliminate(
            [row + tuple(den if i == j else 0 for j in range(n))
             for i, row in enumerate(a)], 2 * n)
        r = sum(1 for c in pivots if c < n)
        if r < n:
            raise SingularMatrixError(rank=r, size=n)
        d = lcm(*(row[i] for i, row in enumerate(m)))
        return [[x * (d // row[i]) for x in row[n:]]
                for i, row in enumerate(m)], d

    def inverse(self) -> "Matrix":
        return Matrix.from_integers(*self._inverse_integers())._eager()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.shape == other.shape
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.shape, self.entries))

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]"
                         for row in self.entries)
        return f"Matrix([{body}])"


def _eliminate(m: list, cols: int,
               echelon: bool = False) -> tuple[list, list[int]]:
    """Fraction-free Gauss-Jordan on integer rows: (rows, pivot columns).

    The rows of `m` (any positive scaling of each row gives the same
    result) are eliminated over the integers in place, every combined
    row divided by the gcd of its entries.  Row r, divided by its entry
    in column pivots[r], is row r of the reduced row echelon form; the
    rows past the last pivot are zero.  With `echelon` only the rows
    below each pivot are cleared, which finds the same pivots (all
    `rank` needs) but leaves the rows above them unreduced.
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
        for i in range(r + 1 if echelon else 0, rows):
            row = m[i]
            b = row[c]
            if b and i != r:
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return m, pivots


class Tensor3:
    """Immutable dense rank-3 tensor indexed (i, j, k) over Fraction, plus
    its cached `integer_form`, on which `contract` runs.

    As for `Matrix`, a tensor built from `Fraction`s holds its `entries`
    at once and derives the integer form on first use; one built by
    `from_integers` holds the integer form and derives its `entries` on
    first read.
    """

    __slots__ = ("dims", "_entries", "_integer")

    def __init__(self, entries: Iterable[Iterable[Iterable]],
                 dims: tuple[int, int, int] | None = None):
        data = tuple(tuple(tuple(rat(x) for x in fibre) for fibre in plane)
                     for plane in entries)
        if data:
            d1 = len(data)
            d2 = len(data[0])
            d3 = len(data[0][0]) if d2 else 0
        else:
            d1 = d2 = d3 = 0
        if dims is None:
            dims = (d1, d2, d3)
        if d1 != dims[0] or (d2 and (d2, d3) != dims[1:]):
            raise DimensionMismatchError(
                f"tensor literal has shape {(d1, d2, d3)}, declared {dims}")
        for plane in data:
            if len(plane) != dims[1] or any(len(f) != dims[2] for f in plane):
                raise DimensionMismatchError("ragged tensor literal")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    @classmethod
    def from_integers(cls, planes, den: int) -> "Tensor3":
        """The tensor planes[i][j][k] / den, for integer planes and
        den > 0, stored as its integer form: divided by the gcd of den and
        all entries, it is the form `scale_to_integers` would give."""
        d1 = len(planes)
        d2 = len(planes[0]) if d1 else 0
        t = object.__new__(cls)
        object.__setattr__(t, "dims", (d1, d2, len(planes[0][0]) if d2 else 0))
        fibres, den = _reduced([f for plane in planes for f in plane], den)
        object.__setattr__(t, "_integer", (tuple(
            fibres[i * d2:(i + 1) * d2] for i in range(d1)), den))
        return t

    @property
    def entries(self) -> tuple:
        """entries[i][j][k], as `Fraction`s, built once."""
        if not hasattr(self, "_entries"):
            planes, den = self._integer
            object.__setattr__(self, "_entries", tuple(
                _fractions(plane, den) for plane in planes))
        return self._entries

    @classmethod
    def zeros(cls, d1: int, d2: int, d3: int) -> "Tensor3":
        return cls([[[0] * d3 for _ in range(d2)] for _ in range(d1)],
                   dims=(d1, d2, d3))

    @classmethod
    def from_dict(cls, dims: tuple[int, int, int], data: dict) -> "Tensor3":
        d1, d2, d3 = dims
        cube = [[[Fraction(0)] * d3 for _ in range(d2)] for _ in range(d1)]
        for (i, j, k), v in data.items():
            if not (0 <= i < d1 and 0 <= j < d2 and 0 <= k < d3):
                raise IndexError(f"tensor index {(i, j, k)} out of {dims}")
            cube[i][j][k] = rat(v)
        return cls(cube, dims=dims)

    def __getitem__(self, ijk: tuple[int, int, int]) -> Fraction:
        i, j, k = ijk
        return self.entries[i][j][k]

    @property
    def integer_form(self) -> tuple[tuple, int]:
        """(planes, d) with t[i][j][k] == planes[i][j][k] / d, computed once
        by one `scale_to_integers` over all fibres."""
        if not hasattr(self, "_integer"):
            d1, d2, _ = self.dims
            fibres, den = scale_to_integers(
                [f for plane in self.entries for f in plane])
            object.__setattr__(self, "_integer", (tuple(
                fibres[i * d2:(i + 1) * d2] for i in range(d1)), den))
        return self._integer

    def contract(self, weights, den: int = 1) -> tuple[Fraction, ...]:
        """z[k] = sum_ij w[i][j] t[i][j][k] / den for a d1 x d2 weight array.

        Integer weights and entries are summed, zeros skipped; the result
        always has d3 Fraction components.
        """
        ws, dw = scale_to_integers(weights)
        out, dt = self._contract_integers(ws)
        d = dt * dw * den
        return tuple(Fraction(x, d) for x in out)

    def _contract_integers(self, ws) -> tuple[list[int], int]:
        """(z, d) with z[k] / d = sum_ij ws[i][j] t[i][j][k], for a d1 x d2
        array of plain ints; d is the tensor's own denominator."""
        d1, d2, d3 = self.dims
        if len(ws) != d1 or any(len(row) != d2 for row in ws):
            raise DimensionMismatchError(
                f"cannot contract {d1}x{d2}x{d3} tensor with weights of "
                f"{len(ws)} rows; expected {d1}x{d2}")
        planes, dt = self.integer_form
        out = [0] * d3
        for wrow, plane in zip(ws, planes):
            for w, fibre in zip(wrow, plane):
                if w:
                    for k, c in enumerate(fibre):
                        if c:
                            out[k] += w * c
        return out, dt

    def nonzero(self):
        """Yield ((i, j, k), value) for every nonzero entry, in index order."""
        for i, plane in enumerate(self.entries):
            for j, fibre in enumerate(plane):
                for k, v in enumerate(fibre):
                    if v:
                        yield (i, j, k), v

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor3)
                and self.dims == other.dims
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.dims, self.entries))

    def __repr__(self) -> str:
        return f"Tensor3(dims={self.dims}, nonzero={list(self.nonzero())})"


def integer_rows(size: int, entries) -> tuple[list[dict], int]:
    """Sparse integer structure rows of nonzero ((i, j, k), value) entries.

    Returns (rows, den): den is the lcm of the denominators and
    rows[i][j] maps k to den * value, in the order the entries come.
    """
    entries = list(entries)
    den = lcm(*{v.denominator for _, v in entries})
    rows: list[dict] = [{} for _ in range(size)]
    for (i, j, k), v in entries:
        rows[i].setdefault(j, {})[k] = v.numerator * (den // v.denominator)
    return rows, den


def associativity_failures(rows, partners):
    """Yield each (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k).

    `rows[i]` maps j to the nonzero {k: c} of e_i e_j over one common
    denominator (`integer_rows`); no entry is zero and none is empty.
    The triples come in the order i, j in `partners[i]`, k in
    `partners[j]`, for any `partners`, also ones that leave out keys of
    the rows.

    Each pair (i, j) is decided with one dict comparison of two rows
    indexed by k, L[k] = (e_i e_j) e_k and R[k] = e_i (e_j e_k),
    compared without their zero entries (sums are stripped only when
    they differ as summed), so the comparison is exact.  When
    e_i e_j = c * e_m, L is row m, scaled by c unless c = 1; otherwise
    it is the sum of the rows of its terms.  When e_j e_k = c' * e_n,
    R[k] is rows[i][n], scaled by c' unless c' = 1; otherwise a sum.
    Only when L != R are the k in `partners[j]` walked, yielding those
    where the rows differ.  So a pair costs one lookup per entry of row
    j, the sums its other entries need and one comparison, in place of
    two products per triple.  Each scaled row is built once per call.
    """
    empty: dict = {}
    memo: dict = {}  # (m, c) -> row m times c, kept for this call only

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
                for k in partners[j]:
                    if lhs.get(k) != rhs.get(k):
                        yield i, j, k


def _without_zeros(sums: dict) -> dict:
    """The rows {k: {t: v}} of `sums` without zero entries or empty rows."""
    out = {}
    for k, row in sums.items():
        if 0 in row.values():
            row = {t: v for t, v in row.items() if v}
        if row:
            out[k] = row
    return out
