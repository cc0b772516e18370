"""Unital and Frobenius algebras, surface invariants and cobordism words.

`Algebra` is a unital algebra by its structure constants, stored as
one integer form `mult` = (planes, den), integer planes n x n x n over
one positive denominator, divided by their gcd; the stock algebras
write their planes directly.  With it come the trace-form
semisimplicity test and the separability-idempotent check, which
`categories` re-exports.  `to_category` makes an algebra a one-object
category, importing `categories` only then.

A finite dimensional algebra with unit u and counit functional eps is
Frobenius when the derived pairing g[i][j] = eps(e_i e_j) is
nondegenerate; the identity eps((ab)c) = eps(a(bc)) then makes the
pairing associative by construction.  Such an algebra evaluates any
closed oriented surface to an exact scalar: the genus-g invariant is
eps(w^g) for the handle element w = sum g^{ij} e_i e_j, read as
u . (A^g * eps) for the integer handle action A (row i is e_i w) from
`exact.power_apply`: O(n^3 log g) products for one genus, one product
per genus for a table of all genera up to G.

Cobordism words present surfaces as layered compositions of the eight
elementary generators (identity, swap, multiplication, comultiplication,
unit, counit, cup, cap); `evaluate_word` compiles a word into a fold of
exact tensor contractions, one `_contract` per layer, and closed words
must reproduce the handle formula.  Each generator other than `id` is
one step that maps each state key straight to its images, and a layer
of several is their composite, g (x) h = (g (x) id) . (id (x) h).
`invariance_suite` checks the handle formula on the canonical word of
each genus, a few fixed re-bracketed ones and seeded random connected
words (`random_genus_word`), all in one pass over the trie of their
layers, so a prefix the words share is contracted once; it tests first
that eps(e_i e_j) = eps(e_j e_i), and leaves out the words with a swap
when the counit is not a trace.
Comultiplication is never user input: it is the adjoint of the
multiplication under the pairing.

The derived data (pairing, its inverse, comultiplication, handle
element, the integer rows of multiplication by the handle and their
squares, and the generator tables of words) is a function of the
structure constants, unit and counit, not of the basis names.  So it
is computed once per structure, in a `_Derived` record that every
equal `FrobeniusAlgebra` shares: `_derived_record` keys it by the
integer forms and keeps the `DERIVED_RECORDS` most recently used
records.  A record holds no algebra, and an algebra looks its record up
on its first read of derived data, so parsing looks up nothing; the
checks and every word are still evaluated on every call.
Products, the derived data, genus invariants, word evaluation,
random basis changes and their action (one integer conjugation of the
structure constants) run on integer forms, the planes of `mult` and
the stored form of every `exact.Matrix`, and build `Fraction`s only
for what a caller reads: a genus invariant is one `Fraction`.  The
product of elements, the unit laws, the handle element and its action
are `exact.combine_rows` over rows of the planes; the handle element
and the multiplication map of a separability idempotent are one
`_fibre_sum` each.  The word generator tables are read from the
nonzero integer entries, and `validate_frobenius` builds no `Fraction`
unless a check fails; its nondegeneracy check is the one elimination
of the pairing, whose inverse the words then reuse.
Associativity is checked by `exact.associativity_failures`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import attrgetter, mul

from .exact import (DimensionMismatchError, Matrix, SingularMatrixError,
                    _reduced, associativity_failures, combine_rows,
                    power_apply, rat, scale_to_integers, sparse_rows)
from .fusion import FusionRing
from .report import Report

__all__ = [
    "FrobeniusAlgebra",
    "CobordismWord",
    "WordTensor",
    "WordTypeError",
    "DegeneratePairingError",
    "GENERATORS",
    "validate_frobenius",
    "multiply_elements",
    "pairing_matrix",
    "handle_element",
    "genus_invariant",
    "canonical_genus_word",
    "alternate_genus_words",
    "random_genus_word",
    "evaluate_word",
    "invariance_suite",
    "transport_basis",
    "random_invertible",
    "frobenius_from_fusion",
]

# generator name -> (inputs, outputs)
GENERATORS = {
    "id": (1, 1),
    "swap": (2, 2),
    "mult": (2, 1),
    "comult": (1, 2),
    "unit": (0, 1),
    "counit": (1, 0),
    "cup": (0, 2),
    "cap": (2, 0),
}


class WordTypeError(ValueError):
    """Arity chain of a cobordism word is inconsistent; names the layer."""


class DegeneratePairingError(ValueError):
    """The derived pairing eps(e_i e_j) is singular."""


# ---------------------------------------------------------------------------
# unital and Frobenius algebras


@dataclass(frozen=True)
class Algebra:
    """Finite dimensional unital algebra by structure constants.

    ``mult`` is the integer form (planes, den): planes[i][j][k] / den is
    the coefficient of e_k in e_i e_j.  Construction turns the planes
    into nested tuples and checks their n x n x n shape, that every
    entry is an `int` (a `bool` or a `Fraction` is not) and that den is
    a positive `int`; then planes and den are divided by their gcd
    (`_reduced_planes`), so equal algebras compare and hash equal
    however they are scaled.
    """

    names: tuple[str, ...]
    mult: tuple[tuple[tuple[tuple[int, ...], ...], ...], int]
    unit: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.names)
        planes, den = self.mult
        planes = tuple(tuple(map(tuple, plane)) for plane in planes)
        if len(planes) != n or any(len(row) != n for plane in planes
                                   for row in (plane, *plane)):
            raise DimensionMismatchError(
                f"multiplication table is not {n} x {n} x {n}")
        if not {int}.issuperset(map(type, itertools.chain.from_iterable(
                itertools.chain.from_iterable(planes)))):
            i, j, k, x = next((i, j, k, x) for i, plane in enumerate(planes)
                              for j, fibre in enumerate(plane)
                              for k, x in enumerate(fibre)
                              if type(x) is not int)
            raise ValueError(f"structure constant mult[{i}][{j}][{k}] = "
                             f"{x!r} is not an integer")
        if type(den) is not int or den <= 0:
            raise ValueError(f"denominator {den!r} is not a positive integer")
        object.__setattr__(self, "mult", _reduced_planes(planes, den))
        object.__setattr__(self, "unit", tuple(rat(x) for x in self.unit))
        if len(self.unit) != n:
            raise ValueError("unit vector length mismatch")

    @property
    def dim(self) -> int:
        return len(self.names)

    @classmethod
    def from_category(cls, cat) -> "Algebra":
        """End(x) of a one-object `categories.PresentedCategory` x."""
        if len(cat.objects) != 1:
            raise ValueError("an algebra is a category with one object")
        obj = cat.objects[0]
        basis = cat.hom(obj, obj)
        n = len(basis)
        # with one object the basis numbering is the order of hom(obj, obj)
        planes = [[[row.get(j, {}).get(k, 0) for k in range(n)]
                   for j in range(n)] for row in cat._rows]
        ident = cat.identity_coeffs(obj)
        return cls(names=basis, mult=(planes, cat._den),
                   unit=tuple(ident.get(b, Fraction(0)) for b in basis))

    def to_category(self, obj: str = "x"):
        """This algebra as a `categories.PresentedCategory` on one object."""
        from .categories import one_object_category
        return one_object_category(obj, self.names, self.mult, self.unit)

    def left_multiplication(self, i: int) -> Matrix:
        """Matrix of x -> e_i x in the chosen basis."""
        planes, d = self.mult
        return Matrix.from_integers(list(zip(*planes[i])), d)


def _reduced_planes(planes, den: int):
    """(planes, den) of n planes of n integer fibres over den > 0, both
    divided by their gcd: `exact._reduced` of all the fibres."""
    n = len(planes)
    fibres, den = _reduced([f for plane in planes for f in plane], den)
    return tuple(fibres[i * n:(i + 1) * n] for i in range(n)), den


def _fibre_sum(weights, planes) -> tuple[int, ...]:
    """sum_ij weights[i][j] planes[i][j] for integer weights and planes:
    one `combine_rows` of the fibres of all planes by the weights read
    row by row.  A weight count other than the fibre count raises
    `DimensionMismatchError`."""
    return combine_rows([w for row in weights for w in row],
                        [f for plane in planes for f in plane])


def trace_form_semisimple(algebra: Algebra) -> tuple[bool, Matrix]:
    """Gram matrix T[i][j] = trace(L_i L_j); semisimple iff full rank.

    T[i][j] = sum_bc m[i][c][b] m[j][b][c] is summed over the integer
    form of `mult` and divided once.  Valid over characteristic zero,
    which is all this package supports.
    """
    planes, d = algebra.mult
    flat = [[x for fibre in plane for x in fibre] for plane in planes]
    flipped = [[x for col in zip(*plane) for x in col] for plane in planes]
    gram = Matrix.from_integers(
        [[sum(map(mul, a, b)) for b in flipped] for a in flat], d * d)
    return gram.rank() == algebra.dim, gram


def verify_separability_idempotent(algebra: Algebra, e: Matrix) -> Report:
    """Check a candidate separability idempotent e in A (x) A^op.

    e is given by its coefficient matrix over basis pairs; the checks
    are (i) the multiplication map sends e to 1 and (ii) r.e = e.r for
    every basis element r, acting through the two-sided bimodule
    structure.  Exact equalities; failures are listed.
    """
    report = Report("separability idempotent")
    n = algebra.dim
    if e.shape != (n, n):
        report.fail(f"coefficient matrix is {e.shape}, expected {(n, n)}")
        return report

    planes, dm = algebra.mult
    rows, de = e.integer_form
    mu = tuple(Fraction(x, dm * de) for x in _fibre_sum(rows, planes))
    if mu != algebra.unit:
        report.fail(f"multiplication map sends e to {mu}, "
                    f"expected the unit {algebra.unit}")

    for r in range(n):  # sum_a m[r][a][c] e[a][d] = sum_b e[c][b] m[b][r][d]
        left = algebra.left_multiplication(r) @ e
        right = e @ Matrix.from_integers([plane[r] for plane in planes], dm)
        if left == right:
            continue
        for c in range(n):
            for d in range(n):
                if left[c, d] != right[c, d]:
                    report.fail(
                        f"e does not commute with basis element {r}: "
                        f"component ({c},{d}) gives {left[c, d]} != "
                        f"{right[c, d]}")
    report.checked = n + n ** 3
    return report


@dataclass(frozen=True)
class FrobeniusAlgebra(Algebra):
    """A unital `Algebra` plus a counit functional eps.

    The pairing, its inverse, the comultiplication, the handle element,
    the handle's integer action and its squares and the word generator
    tables are read from the `_Derived` record of the algebra's
    structure, which every equal algebra shares; the record is looked up
    on the first such read and kept on the object, outside equality and
    hashing.  The squares and the tables grow in place as genera and
    generators are asked for, and each entry is still a function of the
    structure alone.  A degenerate pairing raises
    `DegeneratePairingError` on every request.
    """

    counit: tuple[Fraction, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "counit", tuple(rat(x) for x in self.counit))
        if len(self.counit) != self.dim:
            raise ValueError("counit vector length mismatch")

    @cached_property
    def _derived(self) -> _Derived:
        (unit,), du = scale_to_integers((self.unit,))
        (counit,), dc = scale_to_integers((self.counit,))
        return _derived_record(self.mult, (unit, du), (counit, dc))

    _pairing = property(attrgetter("_derived.pairing"))
    _pairing_inverse = property(attrgetter("_derived.pairing_inverse"))
    _comult = property(attrgetter("_derived.comult"))
    _handle_integers = property(attrgetter("_derived.handle_integers"))
    _handle = property(attrgetter("_derived.handle"))
    _handle_action = property(attrgetter("_derived.handle_action"))
    _handle_squares = property(attrgetter("_derived.handle_squares"))
    _word_tables = property(attrgetter("_derived.word_tables"))


class _Derived:
    """The derived data of one structure (mult, unit, counit), each value
    built on first use from the integer forms (planes, den) of `mult`
    and (vector, den) of the counit; the word tables, which `_tables`
    fills from an algebra of the structure, also read its unit.  It
    holds no algebra, so once `_derived_record` drops it and no algebra
    of the structure is left, it is freed."""

    def __init__(self, mult, counit):
        (self.planes, self.dt), self.counit = mult, counit

    @cached_property
    def pairing(self) -> Matrix:
        eps, de = self.counit
        rows = [[sum(map(mul, fibre, eps)) for fibre in plane]
                for plane in self.planes]
        return Matrix.from_integers(rows, self.dt * de)

    @cached_property
    def pairing_inverse(self) -> Matrix:
        try:
            return self.pairing.inverse()
        except SingularMatrixError as err:
            raise DegeneratePairingError(
                f"derived pairing is singular (rank {err.rank} of "
                f"{len(self.planes)})") from err

    @cached_property
    def comult(self) -> tuple:
        # D[i][p][k] = sum_q ginv[p][q] m[q][i][k]; _mode gives it as [i][k][p]
        ginv, dg = self.pairing_inverse.integer_form
        return _reduced_planes(
            [tuple(zip(*plane)) for plane in _mode(self.planes, ginv)],
            self.dt * dg)

    @cached_property
    def handle_integers(self) -> tuple[list[int], int]:
        """(w, d): the handle element is w / d, both divided by their gcd;
        w = sum_ij ginv[i][j] m[i][j] in the integer forms, one
        `_fibre_sum`."""
        ginv, dg = self.pairing_inverse.integer_form
        w = _fibre_sum(ginv, self.planes)
        g = gcd(self.dt * dg, *w)
        return [x // g for x in w], self.dt * dg // g

    @cached_property
    def handle(self) -> tuple[Fraction, ...]:
        w, d = self.handle_integers
        return tuple(Fraction(x, d) for x in w)

    @cached_property
    def handle_action(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(r, d): x w is combine_rows(x, r) / d, with row r[i] = e_i w =
        combine_rows(w, m[i]) in the integer forms of w and m, reduced."""
        w, dw = self.handle_integers
        return Matrix.from_integers(
            [combine_rows(w, plane) for plane in self.planes],
            self.dt * dw).integer_form

    @cached_property
    def handle_squares(self) -> list:
        """[A, A^2, A^4, ...] for A the integer handle action (the rows
        of `handle_action`): `power_apply` extends it in place, so each
        square is built once for all the genus invariants asked of the
        structure."""
        return [self.handle_action[0]]

    @cached_property
    def word_tables(self) -> dict:
        """`_generator_table` by generator name, filled in place by
        `_tables` on the first use of each generator."""
        return {}


# most structures whose derived data `_derived_record` keeps
DERIVED_RECORDS = 32


@lru_cache(maxsize=DERIVED_RECORDS)
def _derived_record(mult, unit, counit) -> _Derived:
    """The one `_Derived` record of the structure whose integer forms are
    mult, unit and counit; past `DERIVED_RECORDS` records, the least
    recently used is dropped.  The key holds ints only, and no names,
    which no derived value reads."""
    return _Derived(mult, counit)


def _mode(planes, mat):
    """r[j][k][i] = sum_a mat[i][a] t[a][j][k] for integer t and mat: the
    new index moves last, so three calls act on all three in turn."""
    return [[[sum(map(mul, row, column)) for row in mat]
             for column in zip(*fibres)] for fibres in zip(*planes)]


def multiply_elements(algebra: Algebra, x, y) -> tuple[Fraction, ...]:
    """x y, as the combination by x of the rows y e_a = sum_b y[b] m[a][b]
    in the integer forms.

    Raises `DimensionMismatchError`, naming both lengths, unless x and y
    both have `algebra.dim` components."""
    if len(x) != algebra.dim or len(y) != algebra.dim:
        raise DimensionMismatchError(
            f"element vectors of length {len(x)} and {len(y)} for an "
            f"algebra of dimension {algebra.dim}")
    (xs, ys), d = scale_to_integers((x, y))
    planes, dt = algebra.mult
    zero = (0,) * algebra.dim
    out = combine_rows(xs, [combine_rows(ys, plane) if a else zero
                            for a, plane in zip(xs, planes)])
    d = dt * d * d
    return tuple(Fraction(v, d) for v in out)


def pairing_matrix(algebra: FrobeniusAlgebra) -> Matrix:
    """Derived pairing g[i][j] = eps(e_i e_j)."""
    return algebra._pairing


def comultiplication_tensor(algebra: FrobeniusAlgebra) -> tuple:
    """(planes, den), reduced as `Algebra.mult` is: planes[i][p][k] / den
    is the coefficient of e_p (x) e_k in the coproduct of e_i.

    Defined as the pairing adjoint of the multiplication:
    coproduct = (id (x) mult) o (cup (x) id).
    """
    return algebra._comult


def validate_frobenius(algebra: FrobeniusAlgebra) -> Report:
    """Associativity, two-sided unit, pairing invariance, nondegeneracy.

    Pairing invariance eps((ab)c) = eps(a(bc)) can fail only where
    associativity does, so it is evaluated on the failing triples only.
    """
    report = Report("frobenius algebra")
    n, eps = algebra.dim, algebra.counit
    basis = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    planes, dt = algebra.mult
    for i, j, k in associativity_failures(sparse_rows(planes),
                                          [range(n)] * n):
        lhs = multiply_elements(
            algebra, multiply_elements(algebra, basis[i], basis[j]), basis[k])
        rhs = multiply_elements(
            algebra, basis[i], multiply_elements(algebra, basis[j], basis[k]))
        report.fail(f"associativity at (e_{i} e_{j}) e_{k}: {lhs} != {rhs}")
        if sum(map(mul, eps, lhs)) != sum(map(mul, eps, rhs)):
            report.fail(
                f"pairing invariance at (e_{i} e_{j}, e_{k}): "
                "eps((ab)c) != eps(a(bc))")

    (u,), du = scale_to_integers((algebra.unit,))
    for i, e in enumerate(basis):
        # 1 e_i and e_i 1 are these integer rows over du * dt
        scaled = tuple(du * dt * x for x in e)
        if combine_rows(u, [plane[i] for plane in planes]) != scaled:
            left = multiply_elements(algebra, algebra.unit, e)
            report.fail(f"unit law: 1 * e_{i} = {left}")
        if combine_rows(u, planes[i]) != scaled:
            right = multiply_elements(algebra, e, algebra.unit)
            report.fail(f"unit law: e_{i} * 1 = {right}")

    try:
        algebra._pairing_inverse  # one elimination, cached for the words
    except DegeneratePairingError as err:
        report.fail(f"pairing eps(e_i e_j) is degenerate: rank "
                    f"{err.__cause__.rank} of {n}")
    report.checked = 2 * n ** 3 + 2 * n + 1
    return report


def handle_element(algebra: FrobeniusAlgebra) -> tuple[Fraction, ...]:
    """w = sum_{ij} g^{ij} e_i e_j; its counit powers give the invariants."""
    return algebra._handle


def genus_invariant(algebra: FrobeniusAlgebra, genus: int) -> Fraction:
    """Closed-surface invariant eps(w^genus); genus 0 gives eps(1).

    Matrix products associate, so u . (A^genus * eps) is the in-order
    product 1 w ... w also off associativity.  The squares of A are
    kept in the structure's record, so later calls on any equal algebra
    reuse them."""
    if genus < 0:
        raise ValueError(f"negative genus {genus}")
    (u, eps), den = scale_to_integers((algebra.unit, algebra.counit))
    if not genus:
        return Fraction(sum(map(mul, u, eps)), den * den)
    column = power_apply(algebra._handle_squares, genus, eps)
    da = algebra._handle_action[1]
    return Fraction(sum(map(mul, u, column)), den * den * da ** genus)


def _genus_invariants(algebra: FrobeniusAlgebra,
                      max_genus: int) -> list[Fraction]:
    """eps(w^g) for g = 0..max_genus in one pass: u . t_g, the column
    t_g = A^g * eps stepped by t <- A t (`exact.power_apply`)."""
    if max_genus < 0:
        raise ValueError(f"max_genus {max_genus} must be >= 0")
    (u, t), den = scale_to_integers((algebra.unit, algebra.counit))
    act, da = algebra._handle_action if max_genus else ((), 1)
    d = den * den
    values = [Fraction(sum(map(mul, u, t)), d)]
    for _ in range(max_genus):
        t, d = power_apply([act], 1, t), d * da
        values.append(Fraction(sum(map(mul, u, t)), d))
    return values


# ---------------------------------------------------------------------------
# cobordism words


@dataclass(frozen=True)
class CobordismWord:
    """Layered word over the eight generators, bottom layer first."""

    layers: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        layers = tuple(tuple(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        for t, layer in enumerate(layers):
            for gen in layer:
                if gen not in GENERATORS:
                    raise WordTypeError(
                        f"layer {t}: unknown generator {gen!r}")

    def signature(self) -> tuple[int, int]:
        """(inputs, outputs) of the whole word; raises on a broken chain."""
        return self._signature

    @cached_property
    def _signature(self) -> tuple[int, int]:
        if not self.layers:
            return (0, 0)
        arity = sum(GENERATORS[g][0] for g in self.layers[0])
        start = arity
        for t, layer in enumerate(self.layers):
            needed = sum(GENERATORS[g][0] for g in layer)
            if needed != arity:
                raise WordTypeError(
                    f"layer {t} consumes {needed} strands but "
                    f"{arity} arrive")
            arity = sum(GENERATORS[g][1] for g in layer)
        return (start, arity)

    def is_closed(self) -> bool:
        return self.signature() == (0, 0)


@dataclass(frozen=True)
class WordTensor:
    """Result of evaluating an open word: a multilinear map's coefficients.

    Entry keys list the input leg indices first, then the output legs.
    """

    inputs: int
    outputs: int
    entries: tuple[tuple[tuple[int, ...], Fraction], ...]

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.entries)


def _generator_table(algebra: FrobeniusAlgebra, gen: str):
    """(table, den): `gen` sends the input indices `args` to the sum of
    c / den times the output indices, over (outputs, c) in table[args],
    read from the nonzero entries of the integer forms."""
    n = algebra.dim
    if gen == "swap":
        return {(a, b): [((b, a), 1)] for a in range(n) for b in range(n)}, 1
    if gen in ("unit", "counit"):
        (vec,), den = scale_to_integers((getattr(algebra, gen),))
        entries = [((i,), c) for i, c in enumerate(vec) if c]
    elif gen in ("cup", "cap"):
        rows, den = (algebra._pairing_inverse if gen == "cup"
                     else algebra._pairing).integer_form
        entries = [((i, j), c) for i, row in enumerate(rows)
                   for j, c in enumerate(row) if c]
    else:
        planes, den = algebra.mult if gen == "mult" else algebra._comult
        entries = [((i, j, k), c) for i, plane in enumerate(planes)
                   for j, fibre in enumerate(plane)
                   for k, c in enumerate(fibre) if c]
    n_in = GENERATORS[gen][0]
    table: dict = {}
    for idx, c in entries:
        table.setdefault(idx[:n_in], []).append((idx[n_in:], c))
    return table, den


def _tables(algebra: FrobeniusAlgebra, layers) -> dict:
    """The algebra's generator tables, with every one `layers` use built
    first, so a word raises on a degenerate pairing whenever it uses cup,
    cap or comult, wherever its state vanishes."""
    tables = algebra._word_tables
    for gen in dict.fromkeys(g for layer in layers for g in layer):
        if gen != "id" and gen not in tables:
            tables[gen] = _generator_table(algebra, gen)
    return tables


def _contract(state: dict, den: int, layer, tables: dict,
              offset: int = 0) -> tuple[dict, int]:
    """(state, den) after one layer, both divided by their gcd.

    Keys hold `offset` frozen input legs, then the working strands.  A
    layer is the composite of its generators, each applied on its own:
    a generator other than `id`, on key positions lo..hi as the
    generators before it left the key, maps each key to
    key[:lo] + out + key[hi:], and the position then advances by its
    outputs; an `id` only advances it, so a layer of `id`s alone is
    the identity.
    """
    pos, start = offset, state
    for gen in layer:
        n_in, n_out = GENERATORS[gen]
        if gen != "id":
            table, gen_den = tables[gen]
            den *= gen_den
            hi = pos + n_in
            new_state: dict[tuple[int, ...], int] = {}
            get = new_state.get
            for key, coeff in state.items():
                head, tail = key[:pos], key[hi:]
                for out, w in table.get(key[pos:hi], ()):
                    full = head + out + tail
                    new_state[full] = get(full, 0) + coeff * w
            state = new_state
        pos += n_out
    if state is start:
        return state, den
    g = gcd(den, *state.values())
    return {key: v // g for key, v in state.items() if v}, den // g


def evaluate_word(algebra: FrobeniusAlgebra, word: CobordismWord):
    """Evaluate a word to a scalar (closed) or a WordTensor (open).

    The state after each layer is the sparse integer coefficient table,
    over one denominator `den`, of a tensor whose legs are the word's
    input strands (frozen) followed by the current working strands;
    `_contract` applies one layer.  A closed word collapses to a scalar.
    """
    inputs, outputs = word.signature()
    tables = _tables(algebra, word.layers)
    state = {idx + idx: 1
             for idx in itertools.product(range(algebra.dim), repeat=inputs)}
    den = 1
    for layer in word.layers:
        if not state:
            break
        state, den = _contract(state, den, layer, tables, inputs)
    if (inputs, outputs) == (0, 0):
        return Fraction(state.get((), 0), den)
    return WordTensor(inputs=inputs, outputs=outputs, entries=tuple(
        sorted((key, Fraction(v, den)) for key, v in state.items())))


def _evaluate_words(algebra: FrobeniusAlgebra, words) -> list[Fraction]:
    """The scalars of the closed `words`, in order, from one depth-first
    walk of the trie of their layers: a prefix several words share is
    contracted once, and the walk holds one state per depth.  Every
    table any word uses is built before the walk."""
    tables = _tables(algebra, [layer for w in words for layer in w.layers])
    trie: dict = {}
    for i, word in enumerate(words):
        node = trie
        for layer in word.layers:
            node = node.setdefault(layer, {})
        node.setdefault(None, []).append(i)
    values: list = [None] * len(words)

    def walk(node, state, den):
        for layer, child in node.items():
            if layer is None:
                for i in child:
                    values[i] = Fraction(state.get((), 0), den)
            else:
                walk(child, *_contract(state, den, layer, tables))

    walk(trie, {(): 1}, 1)
    return values


def canonical_genus_word(genus: int) -> CobordismWord:
    """Standard presentation: unit, genus many handles, counit."""
    layers: list[tuple[str, ...]] = [("unit",)]
    for _ in range(genus):
        layers.append(("comult",))
        layers.append(("mult",))
    layers.append(("counit",))
    return CobordismWord(tuple(layers))


def alternate_genus_words(genus: int) -> list[CobordismWord]:
    """A few arity-valid re-presentations of the genus-g surface."""
    words = []
    # pad with identity layers
    layers: list[tuple[str, ...]] = [("unit",), ("id",)]
    for _ in range(genus):
        layers.extend([("comult",), ("id", "id"), ("mult",)])
    layers.append(("counit",))
    words.append(CobordismWord(tuple(layers)))
    # swap the two legs of every handle
    layers = [("unit",)]
    for _ in range(genus):
        layers.extend([("comult",), ("swap",), ("mult",)])
    layers.append(("counit",))
    words.append(CobordismWord(tuple(layers)))
    if genus == 1:
        # the pairing trace: cup then cap
        words.append(CobordismWord((("cup",), ("cap",))))
    if genus >= 2:
        # the first two handles re-bracketed over three strands
        layers = [("unit",), ("comult",), ("comult", "id"), ("mult", "id"),
                  ("mult",)]
        for _ in range(genus - 2):
            layers.extend([("comult",), ("mult",)])
        layers.append(("counit",))
        words.append(CobordismWord(tuple(layers)))
        # handles on the left leg of the pairing trace
        layers = [("cup",)]
        for _ in range(genus - 1):
            layers.extend([("comult", "id"), ("mult", "id")])
        layers.append(("cap",))
        words.append(CobordismWord(tuple(layers)))
    return words


@lru_cache(maxsize=16)
def _genus_words(genus: int) -> tuple[CobordismWord, ...]:
    """The canonical word and its alternates, built once per genus."""
    return (canonical_genus_word(genus), *alternate_genus_words(genus))


# most strands a random presentation holds between two layers
WORD_WIDTH = 3


def _relabel(comps) -> tuple[int, ...]:
    """Component names renumbered in order of first appearance."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(c, len(names)) for c in comps)


@lru_cache(maxsize=None)
def _moves(comps: tuple[int, ...], loops: int):
    """(all, closing): blocks of layers that keep a planar word connected
    and closable with `loops` (0, 1 or more) further handles, each as
    (layers, strand components after, handles made).

    `comps` names the component of each strand.  Joining two strands of
    one component makes a handle, and no component may close while
    another is open.  The closing blocks are those that lower the number
    of strands plus twice the handles still to make.
    """
    k = len(comps)
    if not k:
        starts = ((("unit",),), (0,), 0), ((("cup",),), (0, 0), 0)
        return starts, starts

    def at(i, gen, width=k):
        return ("id",) * i + (gen,) + ("id",) * (width - i
                                                 - GENERATORS[gen][0])

    fresh = k  # no name in use, as names run 0, 1, ... in order
    moves = [((("id",) * k,), comps, 0)]
    for i, c in enumerate(comps):
        if k < WORD_WIDTH:
            moves.append(((at(i, "comult"),), comps[:i + 1] + comps[i:], 0))
            if loops:
                moves.append(((at(i, "comult"), at(i, "mult", k + 1)),
                              comps, 1))
        if comps.count(c) > 1 or (k == 1 and not loops):
            moves.append(((at(i, "counit"),), comps[:i] + comps[i + 1:], 0))
    for i in range(k + 1):
        if k < WORD_WIDTH:
            moves.append(((at(i, "unit"),), comps[:i] + (fresh,) + comps[i:],
                          0))
        if k + 2 <= WORD_WIDTH:
            moves.append(((at(i, "cup"),),
                          comps[:i] + (fresh, fresh) + comps[i:], 0))
    for i in range(k - 1):
        a, b = comps[i], comps[i + 1]
        if a == b and not loops:
            continue
        joined = tuple(a if c == b else c for c in comps)
        moves.append(((at(i, "mult"),), joined[:i] + joined[i + 1:],
                      int(a == b)))
        rest = joined[:i] + joined[i + 2:]
        if a in rest or (not rest and loops == int(a == b)):
            moves.append(((at(i, "cap"),), rest, int(a == b)))
    if k == 1 and loops:
        # a swapped handle, only on the one strand (see invariance_suite)
        moves.append(((("comult",), ("swap",), ("mult",)), comps, 1))
    moves = tuple((block, _relabel(after), made)
                  for block, after, made in moves)
    return moves, tuple(m for m in moves if len(m[1]) - 2 * m[2] < k)


def random_genus_word(genus: int, rng: random.Random) -> CobordismWord:
    """A random connected closed word of the genus-g surface, planar but
    for swapped handles on a lone strand.

    Built bottom up on at most `WORD_WIDTH` strands from `_moves`: one to
    four blocks drawn from all moves, then closing blocks until no strand
    is left, so every draw ends, with exactly `genus` handles.
    """
    if genus < 0:
        raise ValueError(f"negative genus {genus}")
    comps: tuple[int, ...] = ()
    layers: list[tuple[str, ...]] = []
    spare = rng.randint(1, 4)
    while True:
        moves = _moves(comps, min(genus, 2))[spare <= 0]
        spare -= 1
        block, comps, made = rng.choice(moves)
        layers.extend(block)
        genus -= made
        if not comps:
            return CobordismWord(tuple(layers))


# ---------------------------------------------------------------------------
# invariance checks


def random_invertible(dim: int, rng: random.Random) -> Matrix:
    """Random invertible L * U: L unit lower-triangular over [-2, 2], U
    upper-triangular, diagonal from {1, -1, 2}, a/b (|a| <= 2, b <= 2)
    above it.  L and 2U are integer; their product is taken over 2."""
    lower = [[1 if i == j else rng.randint(-2, 2) if i > j else 0
              for j in range(dim)] for i in range(dim)]
    upper2 = [[2 * rng.choice([1, -1, 2]) if i == j
               else rng.randint(-2, 2) * (2 // rng.randint(1, 2)) if i < j
               else 0
               for j in range(dim)] for i in range(dim)]
    return Matrix.from_integers(lower, 1) @ Matrix.from_integers(upper2, 2)


def transport_basis(algebra: FrobeniusAlgebra, p: Matrix) -> FrobeniusAlgebra:
    """The same algebra written in the basis e'_i = sum_a p[a][i] e_a.

    m'[i][j][k] = sum_abc p[a][i] p[b][j] m[a][b][c] p^-1[k][c] is three
    integer mode products (`_mode`), divided once by the denominators;
    the unit moves by p^-1 and the counit by the transpose of p.
    """
    n = algebra.dim
    if p.shape != (n, n):
        raise ValueError(f"basis change must be {n}x{n}")
    q, pt = p.inverse(), p.transpose()
    rows, dq = q.integer_form
    cols, dp = pt.integer_form
    planes, dm = algebra.mult
    moved = _mode(_mode(_mode(planes, cols), cols), rows)
    return FrobeniusAlgebra(
        names=tuple(f"b{i}" for i in range(n)),
        mult=(moved, dm * dp * dp * dq),
        unit=q.apply(algebra.unit),
        counit=pt.apply(algebra.counit))


def invariance_suite(algebra: FrobeniusAlgebra, trials: int = 20,
                     seed: int = 0, max_genus: int = 3) -> Report:
    """Every presentation of a closed surface evaluates to eps(w^g).

    For each genus 0..max_genus the canonical word and the
    `alternate_genus_words` are compared with the handle formula; then
    `trials` random presentations (`random_genus_word`, genus uniform in
    0..max_genus, seeded by `seed`) are.  The random words are connected
    and at most three strands wide.  Apart from the swaps below they are
    planar, so they differ from the canonical word by identity padding,
    (co)associative re-bracketing, the Frobenius relation, the unit and
    counit laws and cup/cap splices, which hold in every algebra
    `validate_frobenius` accepts and fail where associativity or the
    unit does.  A swapped handle `comult; swap; mult` is drawn only while
    the word has one strand: there it holds whenever eps(ab) = eps(ba)
    (trace counits, group algebras, every commutative algebra), while a
    swap beside a second strand is a different map on non-commutative
    algebras (on M_2 with the trace counit it gives 2 against 8 at
    genus 2).  So the suite first compares eps(e_i e_j) with
    eps(e_j e_i) over the n(n-1)/2 pairs i < j; if the counit is not a
    trace it reports the first pair that differs and leaves out every
    word with a swap, drawn as usual but neither evaluated nor counted.

    The random words are drawn first, then all words are evaluated in
    one pass (`_evaluate_words`) that contracts a shared prefix of
    layers once: the canonical word of genus g, but for its counit, is
    a prefix of that of genus g + 1.  Exact equality throughout;
    `checked` counts the pairs and the word values compared.  A
    degenerate pairing raises DegeneratePairingError before any of it,
    whichever generators the words use.
    """
    if trials < 0:
        raise ValueError(f"trials {trials} must be >= 0")
    if max_genus < 0:
        raise ValueError(f"max_genus {max_genus} must be >= 0")
    algebra._pairing_inverse  # raises DegeneratePairingError if singular
    report = Report("invariance suite")
    reference = _genus_invariants(algebra, max_genus)
    # (name, genus, word) in the order of the entries
    cases = []
    for g in range(max_genus + 1):
        canonical, *words = _genus_words(g)
        cases.append(("canonical word", g, canonical))
        cases += [(f"alternate word {k}", g, word)
                  for k, word in enumerate(words)]
    rng = random.Random(seed)
    for t in range(trials):
        g = rng.randint(0, max_genus)
        cases.append((f"random word {t}", g, random_genus_word(g, rng)))
    n = algebra.dim
    pairing = algebra._pairing.integer_form[0]
    report.checked += n * (n - 1) // 2
    for i, j in itertools.combinations(range(n), 2):
        if pairing[i][j] != pairing[j][i]:
            report.fail(f"counit is not a trace: eps(e_{i} e_{j}) != "
                        f"eps(e_{j} e_{i})")
            cases = [case for case in cases if not any(
                "swap" in layer for layer in case[2].layers)]
            break
    report.checked += len(cases)
    values = _evaluate_words(algebra, [word for _, _, word in cases])
    for (name, g, word), got in zip(cases, values):
        if got == reference[g]:
            continue
        where = f"{name} at genus {g}"
        if name.startswith("random"):
            text = "; ".join(" ".join(layer) for layer in word.layers)
            where += f" ({text})"
        against = ("handle formula gives" if name == "canonical word"
                   else "expected")
        report.fail(f"{where} evaluates to {got}, {against} {reference[g]}")
    return report


# ---------------------------------------------------------------------------
# stock algebras and their separability idempotents


def field_algebra() -> Algebra:
    return Algebra(("1",), ((((1,),),), 1), (1,))


def product_field_algebra(n: int) -> Algebra:
    """k^n with componentwise multiplication."""
    planes = [[[int(i == j == k) for k in range(n)] for j in range(n)]
              for i in range(n)]
    return Algebra(tuple(f"e{i}" for i in range(n)), (planes, 1),
                   tuple(Fraction(1) for _ in range(n)))


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _group_identity(table: list[list[int]]) -> int:
    """The index e with table[e][j] = table[j][e] = j for every j."""
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            return e
    raise ValueError("group table has no two-sided identity")


def group_algebra(table: list[list[int]],
                  names: tuple[str, ...] = ()) -> Algebra:
    """Group algebra from a Cayley table table[i][j] = index of g_i g_j;
    a table without a two-sided identity raises `ValueError`."""
    n, identity = len(table), _group_identity(table)
    planes = [[[int(table[i][j] == k) for k in range(n)] for j in range(n)]
              for i in range(n)]
    return Algebra(names or tuple(f"g{i}" for i in range(n)), (planes, 1),
                   tuple(Fraction(int(i == identity)) for i in range(n)))


def matrix_algebra(n: int) -> Algebra:
    """Matrix units e_ij, flattened row-major: e_ij e_jl = e_il, so e_a e_b
    is e_(a // n, b % n) when a % n = b // n, else zero."""
    size = n * n
    planes = [[[int(a % n == b // n and c == a - a % n + b % n)
                for c in range(size)] for b in range(size)]
              for a in range(size)]
    return Algebra(tuple(f"e{i}{j}" for i in range(n) for j in range(n)),
                   (planes, 1),
                   tuple(int(i == j) for i in range(n) for j in range(n)))


def dual_numbers_algebra() -> Algebra:
    """k[x]/(x^2): the smallest algebra with a nonzero nilpotent."""
    # 1 1 = 1, 1 x = x 1 = x, x x = 0
    planes = (((1, 0), (0, 1)), ((0, 1), (0, 0)))
    return Algebra(("1", "x"), (planes, 1), (Fraction(1), Fraction(0)))


def group_separability_idempotent(table: list[list[int]]) -> Matrix:
    """(1/|G|) sum_g g (x) g^{-1}; needs |G| invertible, always true here.

    Raises `ValueError` unless every row holds the identity exactly
    once, which gives each g its one inverse."""
    n, identity = len(table), _group_identity(table)
    for i, row in enumerate(table):
        if (k := row.count(identity)) != 1:
            raise ValueError(f"row {i} of the group table holds the "
                             f"identity {k} times")
    return Matrix.from_integers([[int(table[i][j] == identity)
                                  for j in range(n)] for i in range(n)], n)


def matrix_separability_idempotent(n: int) -> Matrix:
    """(1/n) sum_{ij} e_ij (x) e_ji for the n x n matrix algebra.

    The 1/n normalisation is what makes the multiplication map send the
    element to 1; without it the image is n times the identity.
    """
    # e_ij is basis element a = i n + j, and e_ji is (a % n) n + a // n
    return Matrix.from_integers([[int(b == a % n * n + a // n)
                                  for b in range(n * n)]
                                 for a in range(n * n)], n)


def product_field_separability_idempotent(n: int) -> Matrix:
    """sum_i e_i (x) e_i for k^n."""
    return Matrix.identity(n)


def frobenius_from_fusion(ring: FusionRing) -> FrobeniusAlgebra:
    """Fusion coefficients as a Frobenius algebra over the rationals.

    The counit indicates the unit components; the derived pairing is the
    involution's permutation matrix, so a degenerate pairing signals a
    fusion-axiom failure and raises DegeneratePairingError.
    """
    n = ring.rank
    algebra = FrobeniusAlgebra(
        names=ring.names,
        mult=(ring.table, 1),
        unit=tuple(Fraction(int(a in ring.unit)) for a in range(n)),
        counit=tuple(Fraction(int(a in ring.unit)) for a in range(n)))
    algebra._pairing_inverse  # raises DegeneratePairingError if singular
    return algebra
