"""Finite presented linear categories and their completions.

A presented category is a finite set of objects with a chosen rational
basis for every morphism space and a structure-constant table for
composition, kept as the sparse integer table of its total algebra
(+) hom(p, q) over a basis numbered once (Mitchell, "Rings with several
objects", 1972).  Composition is bilinear by construction; the one
product on that table is `PresentedCategory._product` of integer vectors
over the numbering.  Associativity (`exact.light_associativity_failures`
on composable triples) and the identity laws are equations on basis
elements, checked by `validate_category`.

On top of this the module provides the additive completion (objects
become finite sequences, morphisms matrices), the Karoubi completion
(objects become idempotents (p, e), morphisms triples (e', f, e) with
the composition law (e'', f', e')(e', f, e) = (e'', f'f, e)) and the
tensor product of categories.  Inside the module everything composes
through `_product`; `Morphism`s are built only at the public boundary
and for the text of a failing entry.  It re-exports `Algebra`,
`trace_form_semisimple` and `verify_separability_idempotent` from
`tqft`; the stock algebras are `tqft`'s alone, and
`Algebra.to_category` makes any algebra a one-object category.

The Karoubi completion is the costly builder (Karoubi(M_2) has 17
objects, 289 basis morphisms and 4,913 nonzero composites), so it makes
each product once and reuses it as a linear map: b . e once per
idempotent e and base b leaving its object, to carve the hom spaces
(one `exact.rref_integers` each), and v . b once per carved row v and
base b ending at its source, so that every composite v . u is a sum
over u's entries, read only at the target hom space's pivots.  That
holds because f hom e composed with e hom e' lies in f hom e' by
associativity and e . e = e alone, so the base's own table is put
through Light's test once and a base that fails it is refused: the
completion is of a category.  Each composite is kept over its own
denominator until the table is full, and the table is then put over
the reduced denominator read from them, so nothing is divided twice.
Its objects come from a grid search (`karoubi_idempotents`) that reads
the grid and the table of End(p) once per object, as integer
equations; each candidate then costs a few integer products and stops
at the first equation it fails.

Every builder (`one_object_category`, the completions, the tensor
product) fills the integer table directly from integer rows.
`formats.parse` and the public constructor share `_set_names`, which
numbers a table keyed by names: the parser hands it each coefficient
token with its integer numerator, the table's over the lcm of the
table's denominators and the identities' over the lcm of theirs, and
the constructor, which takes any rational coefficients, its
`Fraction`s the same way.  Every path gives the same reduced table, so
equal categories compare equal however they were made.  The parser,
the public constructor and
`one_object_category` run the structural checks; the completions and the
tensor product, whose tables are typed by construction, skip them.
Their errors name an object or basis element longer than
`report.MAX_HEADER_DIGITS` characters by its length.  The Karoubi
builder's hom spaces (`_Corner`) are frozen `report.Record`s.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

from .exact import (light_associativity_failures, rat, rref_integers,
                    scale_to_integers, sparse_rows)
from .report import (Record, Report, SearchTooLargeError, _quoted,
                     _set_field)
from .tqft import (Algebra, matrix_algebra as _matrix_algebra,
                   trace_form_semisimple, verify_separability_idempotent)

__all__ = [
    "CategoryFormatError",
    "Morphism",
    "PresentedCategory",
    "validate_category",
    "one_object_category",
    "field_category",
    "matrix_algebra_category",
    "mat_completion",
    "mat_object_name",
    "karoubi_idempotents",
    "karoubi_completion",
    "karoubi_object_name",
    "KaroubiCategory",
    "SearchTooLargeError",
    "MAX_KAROUBI_CANDIDATES",
    "MAX_COMPLETION_OBJECTS",
    "tensor_product",
    "Algebra",
    "trace_form_semisimple",
    "verify_separability_idempotent",
    "DEFAULT_GRID",
]

DEFAULT_GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
# the most grid candidates one idempotent search may try (|values|^dim End
# over the distinct values of the grid)
MAX_KAROUBI_CANDIDATES = 10 ** 6
# the most objects a Mat or Karoubi completion may have: the builders
# carve objects^2 hom spaces and tabulate objects^3 composites
MAX_COMPLETION_OBJECTS = 128


class CategoryFormatError(ValueError):
    """Malformed presentation: unknown names, bad targets, bad identities.

    `directive` holds the leading tokens of the text directive at fault,
    ["compose", g, f] or ["identity", p], and is empty for the rest."""

    def __init__(self, message: str, directive=()):
        super().__init__(message)
        self.directive = directive


def _clean(coeffs: dict) -> dict[str, Fraction]:
    return {k: c for k, v in coeffs.items() if (c := rat(v))}


def _scale(combos):
    """(den, numerator): den the lcm of the denominators of the
    `Fraction`s in the combos, and numerator(c) = c * den."""
    values = {c for combo in combos for c in combo.values()}
    den = lcm(*(c.denominator for c in values))
    return den, {c: c.numerator * (den // c.denominator) for c in values}.get


def _named(name) -> str:
    """A name as an error prints it: str(name), or past MAX_HEADER_DIGITS
    characters its length (`report._quoted`)."""
    return _quoted(str(name), str)


def _check_name(kind: str, name: str) -> None:
    if name.split() != [name]:  # empty, or holds whitespace
        raise CategoryFormatError(f"bad {kind} name {_quoted(name)}")


def _identity_error(p: str, b: str) -> CategoryFormatError:
    q = _named(p)
    return CategoryFormatError(
        f"identity of {q}: term {_named(b)} not in hom({q},{q})",
        ["identity", p])


class Morphism:
    """A linear combination of hom basis elements with fixed source/target."""

    __slots__ = ("src", "dst", "coeffs")

    def __init__(self, src: str, dst: str, coeffs: dict):
        self.src = src
        self.dst = dst
        self.coeffs = _clean(coeffs)

    def __eq__(self, other):
        return (isinstance(other, Morphism) and self.src == other.src
                and self.dst == other.dst and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def scaled(self, c) -> "Morphism":
        c = rat(c)
        return Morphism(self.src, self.dst,
                        {k: c * v for k, v in self.coeffs.items()})

    def __add__(self, other: "Morphism") -> "Morphism":
        if (self.src, self.dst) != (other.src, other.dst):
            raise CategoryFormatError("cannot add morphisms of different type")
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, Fraction(0)) + v
        return Morphism(self.src, self.dst, merged)

    def __repr__(self):
        body = " + ".join(f"{v}*{k}" for k, v in sorted(self.coeffs.items()))
        return f"Morphism({self.src}->{self.dst}: {body or '0'})"


class PresentedCategory:
    """Objects, hom bases, composition table, identities.

    The basis is numbered hom by hom in object order (`_names`,
    `_number`; `_types[k]` is the (source, target) of basis element k
    and `_span[(p, q)]` the numbers (start, stop) of hom(p, q)).  The
    composition table is stored in integers over that numbering:
    `_rows[g][f]` maps k to c for each term (c / `_den`) k of a nonzero
    composite g . f, with f and k in ascending order and no c zero, and
    `_identity[p]` is the identity of p as (x, d), the combination x / d
    of the integer vector x over its numbers.  Each is reduced: `_den`
    and d share no factor with all of their integers, so equal
    categories have equal forms.

    The constructor takes names and coefficients (ints, `Fraction`s or
    'p/q' strings); the builders and the parser fill the integer table
    directly (`_from_rows`, `_from_names`).  Every path but the
    completions and the tensor product performs the same structural
    validation (every name resolves, compositions are typed correctly,
    every nonzero endomorphism space has an identity); the categorical
    axioms are equations checked by `validate_category`.
    """

    def __init__(self, objects, hom, compose, identities):
        compose = {key: _clean(combo) for key, combo in compose.items()}
        units = {p: _clean(combo) for p, combo in identities.items()}
        self._set_names(objects, hom, compose, units,
                        _scale(compose.values()), _scale(units.values()))

    @classmethod
    def _from_rows(cls, objects, hom, rows, den, identities, checked=True):
        """The category with the basis of `hom` and the integer table of
        `_set_table`."""
        cat = object.__new__(cls)
        cat._set_basis(objects, hom)
        cat._set_table(rows, den, identities, checked)
        return cat

    @classmethod
    def _from_names(cls, *args):
        """The category of `_set_names`: an integer table keyed by names."""
        cat = object.__new__(cls)
        cat._set_names(*args)
        return cat

    def _set_basis(self, objects, hom):
        self.objects: tuple[str, ...] = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise CategoryFormatError("duplicate object names")
        for name in self.objects:
            _check_name("object", name)

        self._hom: dict[tuple[str, str], tuple[str, ...]] = {}
        self._basis: dict[str, tuple[str, str]] = {}
        for (p, q), basis in hom.items():
            if p not in self.objects or q not in self.objects:
                raise CategoryFormatError(
                    f"hom({_named(p)},{_named(q)}): unknown object")
            basis = tuple(basis)
            if not basis:
                continue
            for b in basis:
                _check_name("basis", b)
                if b in self._basis:
                    raise CategoryFormatError(
                        f"duplicate basis name {_quoted(b)}")
                self._basis[b] = (p, q)
            self._hom[(p, q)] = basis
        self._names = tuple(b for p in self.objects for q in self.objects
                            for b in self.hom(p, q))
        self._number = {b: i for i, b in enumerate(self._names)}
        self._types = [self._basis[b] for b in self._names]
        self._span = {pq: (self._number[basis[0]], self._number[basis[-1]] + 1)
                      for pq, basis in self._hom.items()}

    def _set_names(self, objects, hom, compose, identities, scale,
                   unit_scale):
        """Set the basis, then the table and the identities keyed by
        names: compose[(g, f)] = {h: x} is the composite g . f and
        identities[obj] = {b: x} the identity of obj.  scale = (den,
        numerator) makes each coefficient x of the table numerator(x) /
        den, and unit_scale those of the identities, so that a
        denominator of the identities does not scale the table.  Terms
        whose coefficient is zero are dropped before their names are
        read."""
        self._set_basis(objects, hom)
        number = self._number
        den, numerator = scale

        def numbered(combo, numerator):
            terms = {}
            for b, x in combo.items():
                c = numerator(x)
                if c:
                    terms[number[b]] = c
            return dict(sorted(terms.items())) if len(terms) > 1 else terms

        rows = [{} for _ in self._names]
        for (g, f), combo in compose.items():
            if g not in number or f not in number:
                raise CategoryFormatError(
                    f"compose({_named(g)},{_named(f)}): unknown basis "
                    "element")
            try:
                rows[number[g]][number[f]] = numbered(combo, numerator)
            except KeyError as err:
                raise self._typing_error(number[g], number[f],
                                         err.args[0]) from None
        idents, (d, read) = [], unit_scale
        for p in self.objects:
            try:
                idents.append((numbered(identities.get(p, {}), read), d))
            except KeyError as err:
                raise _identity_error(p, err.args[0]) from None
        self._set_table([dict(sorted(row.items())) for row in rows], den,
                        idents)

    def _set_table(self, rows, den, identities, checked=True):
        """Store the composition table and the identities, checked by
        `_check_table` first unless checked is False.

        rows[g][f] = {k: c} over the basis numbers, f and k ascending and
        c nonzero, is den times the composite g . f; an empty {} is
        checked for its types and dropped.  identities[i] = (x, d) with
        x ascending and nonzero is d times the identity of object i.
        Both are reduced here, so any positive scaling gives one form;
        the rows are kept and reduced in place, so no two entries may
        share a dict.  The builders, whose tables are typed by
        construction and hold no empty entry, pass checked=False and
        skip the structural checks, not the reduction.
        """
        if checked:
            self._check_table(rows, identities)
        common = den
        for terms in (terms for row in rows for terms in row.values()):
            if common == 1:
                break
            common = gcd(common, *terms.values())
        if common > 1:
            for row in rows:
                for terms in row.values():
                    for k, c in terms.items():
                        terms[k] = c // common
        self._rows, self._den = rows, den // common

        self._identity = {}
        for p, (x, d) in zip(self.objects, identities):
            common = gcd(d, *x.values())
            self._identity[p] = ({k: c // common for k, c in x.items()},
                                 d // common)

    def _check_table(self, rows, identities):
        """Raise the structural error of the first composite that is not
        composable or has a term outside hom(source f, target g), and of
        an identity with a term outside hom(p, p) or missing although
        hom(p, p) is nonzero; drop the empty entries of the rows."""
        types, span = self._types, self._span
        for g, row in enumerate(rows):
            gp, gq = types[g]
            for f, terms in row.items():
                fp, fq = types[f]
                if fq != gp:
                    raise self._typing_error(g, f)
                lo, hi = span.get((fp, gq), (0, 0))
                for k in terms:
                    if not lo <= k < hi:
                        raise self._typing_error(g, f, self._names[k])
            if not all(row.values()):
                rows[g] = {f: terms for f, terms in row.items() if terms}
        for p, (x, _) in zip(self.objects, identities):
            lo, hi = span.get((p, p), (0, 0))
            for k in x:
                if not lo <= k < hi:
                    raise _identity_error(p, self._names[k])
            if not x and hi:
                q = _named(p)
                raise CategoryFormatError(
                    f"identity of {q} missing although hom({q},{q}) "
                    "is nonzero")

    def _typing_error(self, g, f, h=None):
        """The error for the composite g . f of basis numbers: not
        composable, or else its term h outside hom(source f, target g)."""
        where = ["compose", self._names[g], self._names[f]]
        gn, fn, fp, fq, gp, gq = map(_named, (*where[1:], *self._types[f],
                                              *self._types[g]))
        if self._types[f][1] != self._types[g][0]:
            return CategoryFormatError(
                f"compose({gn},{fn}): not composable "
                f"({fn}: {fp}->{fq}, {gn}: {gp}->{gq})", where)
        return CategoryFormatError(
            f"compose({gn},{fn}): result term {_named(h)} does not lie "
            f"in hom({fp},{gq})", where)

    # -- accessors ---------------------------------------------------------

    def hom(self, p: str, q: str) -> tuple[str, ...]:
        return self._hom.get((p, q), ())

    def hom_dim(self, p: str, q: str) -> int:
        return len(self.hom(p, q))

    def hom_pairs(self):
        return self._hom.items()

    def basis_type(self, name: str) -> tuple[str, str]:
        return self._basis[name]

    def basis_morphism(self, name: str) -> Morphism:
        p, q = self._basis[name]
        return Morphism(p, q, {name: Fraction(1)})

    def morphism(self, src: str, dst: str, coeffs: dict) -> Morphism:
        m = Morphism(src, dst, coeffs)
        for b in m.coeffs:
            if self._basis.get(b) != (src, dst):
                raise CategoryFormatError(
                    f"term {b} not in hom({src},{dst})")
        return m

    def zero(self, src: str, dst: str) -> Morphism:
        return Morphism(src, dst, {})

    def identity(self, p: str) -> Morphism:
        return Morphism(p, p, self.identity_coeffs(p))

    def identity_coeffs(self, p: str) -> dict[str, Fraction]:
        return self._named(*self._identity[p])

    def compose_basis(self, g: str, f: str) -> dict[str, Fraction]:
        return self._named(
            self._rows[self._number[g]].get(self._number[f], {}), self._den)

    def _named(self, x: dict[int, int], d: int) -> dict[str, Fraction]:
        """The combination x / d of the integer vector x, by basis names."""
        return {self._names[k]: Fraction(c, d) for k, c in x.items()}

    def _vector(self, coeffs: dict) -> tuple[dict[int, int], int]:
        """(x, d) with x / d the combination `coeffs` of basis names: x
        maps basis numbers to nonzero integers, d > 0."""
        (ints,), den = scale_to_integers((tuple(map(rat, coeffs.values())),))
        return {self._number[b]: c for b, c in zip(coeffs, ints) if c}, den

    def _product(self, x: dict[int, int], y: dict[int, int]) -> dict:
        """The integer vector sum x_g y_f `_rows`[g][f], zeros dropped:
        `_den` times the composite x . y of two integer vectors."""
        out: dict[int, int] = {}
        for g, a in x.items():
            row = self._rows[g]
            for f, b in y.items():
                terms = row.get(f)
                if terms:
                    w = a * b
                    for k, c in terms.items():
                        out[k] = out.get(k, 0) + w * c
        return {k: v for k, v in out.items() if v}

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        """g after f; bilinear extension of the structure-constant table."""
        if f.dst != g.src:
            raise CategoryFormatError(
                f"not composable: {f.src}->{f.dst} then {g.src}->{g.dst}")
        (x, dx), (y, dy) = self._vector(g.coeffs), self._vector(f.coeffs)
        return Morphism(f.src, g.dst, self._named(self._product(x, y),
                                                  dx * dy * self._den))

    def table_items(self):
        """((g, f), g . f) for every nonzero composite, in basis order."""
        for g, row in zip(self._names, self._rows):
            for f, terms in row.items():
                yield (g, self._names[f]), self._named(terms, self._den)

    def __eq__(self, other):
        return (isinstance(other, PresentedCategory)
                and self.objects == other.objects
                and self._hom == other._hom
                and self._den == other._den
                and self._rows == other._rows
                and self._identity == other._identity)

    def __repr__(self):
        return (f"PresentedCategory({len(self.objects)} objects, "
                f"{len(self._basis)} basis morphisms)")


def validate_category(cat: PresentedCategory) -> Report:
    """Check the identity laws and associativity on composable basis triples.

    The identity laws are `_product`s with the integer identity vectors.
    Associativity is `exact.light_associativity_failures` on the integer
    rows, each basis element h paired with the basis elements ending at
    its source: the composable triples whose middle factor g is in a
    certified generating set decide it, and all composable triples are
    walked when one of those fails or the set would not be cheaper.  A
    failing equation is recomputed through `compose` for its report
    entry, and the associativity entries come in order of the (h, g, f)
    names.  `checked` counts the identity equations (two per basis
    element) plus the equations the associativity check evaluated: the
    composable triples when it walked them all, else the triples through
    the generators and the certificate's lookups.
    """
    report = Report("category axioms")
    for b in sorted(cat._basis):
        p, q = cat.basis_type(b)
        n = cat._number[b]
        (iq, dq), (ip, dp) = cat._identity[q], cat._identity[p]
        if cat._product(iq, {n: 1}) != {n: dq * cat._den}:
            left = cat.compose(cat.identity(q), cat.basis_morphism(b))
            report.fail(f"identity law: id_{q} . {b} = {left.coeffs} != {b}")
        if cat._product({n: 1}, ip) != {n: dp * cat._den}:
            right = cat.compose(cat.basis_morphism(b), cat.identity(p))
            report.fail(f"identity law: {b} . id_{p} = {right.coeffs} != {b}")

    names = cat._names
    failures, evaluated = _light_test(cat)
    for h, g, f in sorted((names[i], names[j], names[k])
                          for i, j, k in failures):
        hm, gm, fm = (cat.basis_morphism(b) for b in (h, g, f))
        lhs = cat.compose(cat.compose(hm, gm), fm)
        rhs = cat.compose(hm, cat.compose(gm, fm))
        report.fail(f"associativity on ({h},{g},{f}): "
                    f"{lhs.coeffs} != {rhs.coeffs}")
    report.checked = 2 * len(names) + evaluated
    return report


def _light_test(cat: PresentedCategory) -> tuple[list, int]:
    """`exact.light_associativity_failures` on cat's composable triples:
    each basis element h is paired with the basis elements ending at its
    source, one shared list per object."""
    ending_at: dict[str, list[int]] = {}
    for j, (_, q) in enumerate(cat._types):
        ending_at.setdefault(q, []).append(j)
    return light_associativity_failures(
        cat._rows, [ending_at.get(p, []) for p, _ in cat._types])


# ---------------------------------------------------------------------------
# builders


def one_object_category(obj: str, basis_names, mult,
                        unit) -> PresentedCategory:
    """An algebra presented as a category with a single object: its
    table is `mult` = (planes, den), integer planes over den > 0 as
    `Algebra.mult` holds them, the basis numbered in order."""
    planes, den = mult
    (unit,), d = scale_to_integers((tuple(map(rat, unit)),))
    return PresentedCategory._from_rows(
        (obj,), {(obj, obj): basis_names}, sparse_rows(planes), den,
        [({k: c for k, c in enumerate(unit) if c}, d)])


def field_category(obj: str = "x", gen: str = "u") -> PresentedCategory:
    """The ground field as a category: one object, one basis morphism."""
    return one_object_category(obj, (gen,), ((((1,),),), 1), (1,))


def matrix_algebra_category(n: int, obj: str = "x") -> PresentedCategory:
    """n x n matrix units e_ij with e_ij e_kl = delta(j,k) e_il."""
    return _matrix_algebra(n).to_category(obj)


# ---------------------------------------------------------------------------
# additive (Mat) completion


def mat_object_name(parts) -> str:
    return "[" + ",".join(parts) + "]"


def _mat_basis_name(pname: str, qname: str, i: int, j: int, b: str) -> str:
    return f"{pname}>{qname}:{i},{j}:{b}"


def mat_completion(cat: PresentedCategory, bound: int) -> PresentedCategory:
    """Objects become sequences of length <= bound, morphisms matrices.

    The empty sequence is kept as a zero object so additive identities
    exist.  Composition is block matrix composition over the base
    structure constants.  Raises SearchTooLargeError before building
    anything if sum_{k<=bound} |objects|^k passes MAX_COMPLETION_OBJECTS.
    """
    if bound < 1:
        raise ValueError(f"sequence bound {bound} must be >= 1")
    # any bound past the limit gives more objects than it: cap the sum
    reach = min(bound, MAX_COMPLETION_OBJECTS)
    count = sum(len(cat.objects) ** k for k in range(reach + 1))
    if count > MAX_COMPLETION_OBJECTS:
        raise SearchTooLargeError(
            f"Mat completion with bound {bound} would have "
            f"{'at least ' if reach < bound else ''}{count} objects, more "
            f"than {MAX_COMPLETION_OBJECTS}")
    sequences = [()]
    for length in range(1, bound + 1):
        sequences.extend(itertools.product(cat.objects, repeat=length))
    names = {seq: mat_object_name(seq) for seq in sequences}

    # entry (i, j) of a matrix from p to q holds hom(p[j], q[i]); its basis
    # element b (a base number) is number[p, q, i, j, b]
    hom, number = {}, {}
    for pseq, qseq in itertools.product(sequences, repeat=2):
        keys = [(pseq, qseq, i, j, b) for i, qi in enumerate(qseq)
                for j, pj in enumerate(pseq)
                for b in range(*cat._span.get((pj, qi), (0, 0)))]
        if keys:
            number.update(zip(keys, itertools.count(len(number))))
            hom[names[pseq], names[qseq]] = tuple(
                _mat_basis_name(names[pseq], names[qseq], i, j, cat._names[b])
                for _, _, i, j, b in keys)

    # (b2 at (k, l)) . (b1 at (l, j)) = (b2 . b1 at (k, j))
    rows = [{number[pseq, qseq, l, j, b1]: {number[pseq, rseq, k, j, h]: c
                                            for h, c in terms.items()}
             for pseq in sequences for j, pj in enumerate(pseq)
             for b1, terms in cat._rows[b2].items()
             if cat._types[b1][0] == pj}
            for qseq, rseq, k, l, b2 in number]
    identities = []
    for seq in sequences:
        parts = [cat._identity[p] for p in seq]
        d = lcm(*(dp for _, dp in parts))
        identities.append(({number[seq, seq, i, i, k]: c * (d // dp)
                            for i, (x, dp) in enumerate(parts)
                            for k, c in x.items()}, d))
    return PresentedCategory._from_rows(
        tuple(names[s] for s in sequences), hom, rows, cat._den, identities,
        checked=False)


# ---------------------------------------------------------------------------
# Karoubi (idempotent) completion


def karoubi_object_name(obj: str, coeffs) -> str:
    return f"{obj}(" + ",".join(str(rat(c)) for c in coeffs) + ")"


def _idempotent(cat: PresentedCategory, pair) -> tuple[dict[int, int], int]:
    """The endomorphism e of a (base object, coefficients) pair, as the
    (integer vector x, d) of `PresentedCategory._vector`: e = x / d."""
    obj, coeffs = pair
    if obj not in cat.objects:
        raise CategoryFormatError(f"unknown base object {obj!r}")
    basis = cat.hom(obj, obj)
    if len(coeffs) != len(basis):
        raise CategoryFormatError(
            f"{len(coeffs)} coefficients but dim End({obj}) = {len(basis)}")
    return cat._vector(dict(zip(basis, coeffs)))


def _scaled(x: dict[int, int], s: int) -> dict[int, int]:
    """x times s; x itself when s is 1."""
    return x if s == 1 else {k: c * s for k, c in x.items()}


def _grid_values(cat: PresentedCategory, objects, grid) -> list[Fraction]:
    """The distinct values of the grid, ascending.  Raises
    SearchTooLargeError, naming the object and its estimate, before a
    search on any object with |values|^dim End past the limit."""
    values = sorted(set(map(rat, grid)))
    for obj in objects:
        dim = cat.hom_dim(obj, obj)
        if len(values) ** dim > MAX_KAROUBI_CANDIDATES:
            raise SearchTooLargeError(
                f"idempotent search on {obj} would try {len(values)}^{dim} "
                f"= {len(values) ** dim} candidates, more than "
                f"{MAX_KAROUBI_CANDIDATES}")
    return values


def _solves(equations, scale: int, x) -> bool:
    """Whether the integer vector x satisfies sum c x_g x_f = scale x_k
    for each (k, [(g, f, c), ...]) of `equations`, stopping at the first
    equation that fails."""
    for k, terms in equations:
        s = 0
        for g, f, c in terms:
            s += c * x[g] * x[f]
        if s != scale * x[k]:
            return False
    return True


def karoubi_idempotents(cat: PresentedCategory, obj: str,
                        grid=DEFAULT_GRID) -> list[tuple[Fraction, ...]]:
    """All solutions of e . e = e with coefficients drawn from the
    distinct values of the grid, in ascending product order.

    Everything is read once: the grid's values as integers a / d over
    one common denominator d, and the table of End(obj) as one integer
    equation per basis element k, sum c x_g x_f = d `_den` x_k over the
    nonzero entries c of `_rows`[g][f][k].  A candidate x is then a
    tuple of those integers, and `_solves` tests it with a few integer
    products, stopping at the first equation it fails.

    Raises SearchTooLargeError before the search if it would try more
    than MAX_KAROUBI_CANDIDATES candidates, and CategoryFormatError for
    an object cat does not have.
    """
    values = _grid_values(cat, (obj,), grid)
    if obj not in cat.objects:
        raise CategoryFormatError(f"unknown base object {obj!r}")
    d = lcm(*(v.denominator for v in values))
    ints = {v.numerator * (d // v.denominator): v for v in values}
    lo, hi = cat._span.get((obj, obj), (0, 0))
    equations = [(k, []) for k in range(hi - lo)]
    for g in range(lo, hi):
        for f, terms in cat._rows[g].items():
            if lo <= f < hi:
                for k, c in terms.items():
                    equations[k - lo][1].append((g - lo, f - lo, c))
    return [tuple(map(ints.get, x))
            for x in itertools.product(ints, repeat=hi - lo)
            if _solves(equations, d * cat._den, x)]


def _escaped() -> CategoryFormatError:
    return CategoryFormatError("morphism escaped its carved-out hom subspace")


class _Corner(Record):
    """hom((p, e), (q, f)) = f . hom(p, q) . e, carved out of hom(p, q).

    `src` and `dst` are the base objects p and q; `rows` are the reduced
    rows of the subspace, integer vectors over the base numbering, all
    over the one denominator `den`, with the basis numbers of their
    `pivots`; in the completion they are the basis elements numbered
    from `start` on.  Over an associative base every composite into the
    corner lies in its rows, so its pivot entries are its coordinates.
    """

    def __init__(self, src: str, dst: str, rows: tuple[dict[int, int], ...],
                 den: int, pivots: tuple[int, ...], start: int):
        _set_field(self, "src", src)
        _set_field(self, "dst", dst)
        _set_field(self, "rows", rows)
        _set_field(self, "den", den)
        _set_field(self, "pivots", pivots)
        _set_field(self, "start", start)

    def express(self, w: dict[int, int]) -> dict[int, int]:
        """The coordinates of the integer vector w in the rows, keyed by
        the completion's basis numbers and over w's own scale: w's pivot
        entries, checked to rebuild w from the rows."""
        coords = [w.get(p, 0) for p in self.pivots]
        rebuilt: dict[int, int] = {}
        for c, row in zip(coords, self.rows):
            for b, x in row.items():
                rebuilt[b] = rebuilt.get(b, 0) + c * x
        if {b: x for b, x in rebuilt.items() if x} != _scaled(w, self.den):
            raise _escaped()
        return {k: c for k, c in enumerate(coords, self.start) if c}


class KaroubiCategory(PresentedCategory):
    """A Karoubi completion that remembers where its objects came from.

    `pairs` lists the (base object, idempotent coefficients) pairs in
    object order; `embed` turns a base morphism satisfying the triple
    constraint e' . f = f = f . e (checked in integers) into a morphism
    of the completion, and `base_morphism_of` goes the other way for
    basis elements.  `corners[i][j]` is the carved-out hom space from
    object i to object j, one `_Corner` per ordered pair of objects.
    The composition table and identities are integer rows over the
    completion's numbering, as `_set_table` takes them.
    """

    def __init__(self, base, pairs, corners, objects, hom, rows, den,
                 identities):
        self.base = base
        self.pairs = tuple(pairs)
        self._index = {pair: i for i, pair in enumerate(self.pairs)}
        self._corners = corners
        self._set_basis(objects, hom)
        self._set_table(rows, den, identities, checked=False)

    def _index_of(self, pair) -> int:
        obj, coeffs = pair
        key = (obj, tuple(rat(c) for c in coeffs))
        if key not in self._index:
            raise CategoryFormatError(
                f"{karoubi_object_name(*key)} is not an object of the "
                "completion")
        return self._index[key]

    def object_of(self, pair) -> str:
        return self.objects[self._index_of(pair)]

    def base_morphism_of(self, basis_name: str) -> Morphism:
        src, dst = self.basis_type(basis_name)
        corner = self._corners[self.objects.index(src)][
            self.objects.index(dst)]
        return Morphism(corner.src, corner.dst, self.base._named(
            corner.rows[self._number[basis_name] - corner.start], corner.den))

    def embed(self, src_pair, dst_pair, f: Morphism) -> Morphism:
        """The triple (e', f, e) as a morphism of the completion."""
        i, j = self._index_of(src_pair), self._index_of(dst_pair)
        corner, base = self._corners[i][j], self.base
        if (f.src, f.dst) != (corner.src, corner.dst):
            raise CategoryFormatError(
                f"{f!r} is not in hom({corner.src},{corner.dst})")
        (e, de), (e2, de2) = (_idempotent(base, self.pairs[i]),
                              _idempotent(base, self.pairs[j]))
        x, d = base._vector(f.coeffs)
        if (base._product(e2, x) != _scaled(x, de2 * base._den)
                or base._product(x, e) != _scaled(x, de * base._den)):
            raise CategoryFormatError(
                "morphism does not satisfy the triple constraint "
                "e'.f = f = f.e")
        return Morphism(self.objects[i], self.objects[j],
                        self._named(corner.express(x), d))


def karoubi_completion(cat: PresentedCategory, grid=DEFAULT_GRID,
                       idempotents=None) -> KaroubiCategory:
    """Split idempotents: objects (p, e), morphisms triples (e', f, e).

    The objects are the solutions of e . e = e found on the distinct
    values of a finite coefficient grid (or an explicitly supplied list,
    each entry checked exactly, rejected with its residual, and refused
    when it repeats an earlier one).  hom((p,e),(q,f)) is the subspace
    f . hom(p,q) . e with a canonical row-reduced basis, one `_Corner`
    per ordered pair of objects; the composition is
    (e'', f', e')(e', f, e) = (e'', f'f, e), and the identity of (p, e)
    is the triple (e, e, e).

    All of it is `cat._product` and sums of integer vectors, each
    product made once: b . e for each idempotent e and each base b
    leaving its object, of which every corner takes f . (b . e) and
    reduces them with one `exact.rref_integers`; and v . b for each row
    v of a corner and each base b ending at its source, so that the
    composite of v with any row u of a corner ending there is
    sum_b u[b] (v . b), computed only at its target corner's pivots,
    whose entries are the coordinates the table stores: the composite
    (f x e)(e y e') = f (x e y) e' lies in the target by associativity
    and e . e = e.  Rows are filled corner (j, k) by corner, the sources
    i inside, so each row takes its entries in ascending order.  The
    table is over the reduced denominator read from the composites, so
    `_set_table` has nothing left to divide.

    A grid search first estimates |values|^dim End(p) for every object
    and raises SearchTooLargeError past the limit; so does a list of
    more than MAX_COMPLETION_OBJECTS objects, found or supplied, before
    any hom space is carved.  Then a base that fails Light's test is
    refused with CategoryFormatError, naming the first non-associative
    triple (h, g, f) that `validate_category` reports.
    """
    pairs: list[tuple[str, tuple[Fraction, ...]]] = []
    if idempotents is not None:
        seen = set()
        for obj, coeffs in idempotents:
            x, d = _idempotent(cat, (obj, coeffs))
            if cat._product(x, x) != _scaled(x, d * cat._den):
                e = cat.morphism(obj, obj, dict(zip(cat.hom(obj, obj),
                                                    coeffs)))
                residual = (cat.compose(e, e) + e.scaled(-1)).coeffs
                raise CategoryFormatError(
                    f"supplied element on {obj} is not idempotent; "
                    f"e.e - e = {residual}")
            pair = (obj, tuple(rat(c) for c in coeffs))
            if pair in seen:
                raise CategoryFormatError(
                    f"idempotent {karoubi_object_name(*pair)} is supplied "
                    "twice")
            seen.add(pair)
            pairs.append(pair)
    else:
        _grid_values(cat, cat.objects, grid)
        for obj in cat.objects:
            for coeffs in karoubi_idempotents(cat, obj, grid):
                pairs.append((obj, coeffs))
    if len(pairs) > MAX_COMPLETION_OBJECTS:
        raise SearchTooLargeError(
            f"Karoubi completion would have {len(pairs)} objects, more than "
            f"{MAX_COMPLETION_OBJECTS}")

    names = [karoubi_object_name(*pair) for pair in pairs]
    idems = [_idempotent(cat, pair) for pair in pairs]

    # only over an associative base must every composite stay in its
    # corner; the first triple named is validate_category's first
    if failures := _light_test(cat)[0]:
        triple = min(tuple(cat._names[i] for i in ijk) for ijk in failures)
        raise CategoryFormatError(
            f"the base is not associative on ({','.join(triple)})")
    # carve out hom((p,e),(q,f)) = f . hom(p,q) . e with an rref basis,
    # from the products b . e of each e with every base b leaving p
    hom, corners, count = {}, [], 0
    for i, (p, _) in enumerate(pairs):
        right = {b: cat._product({b: 1}, idems[i][0])
                 for b, (src, _) in enumerate(cat._types) if src == p}
        line = []
        for j, (q, _) in enumerate(pairs):
            base = range(*cat._span.get((p, q), (0, 0)))
            images = [cat._product(idems[j][0], right[b]) for b in base]
            ints, den, pivots = rref_integers(
                [[m.get(b, 0) for b in base] for m in images], len(base))
            carved = tuple({b: c for b, c in zip(base, row) if c}
                           for row in ints)
            line.append(_Corner(p, q, carved, den,
                                tuple(base[c] for c in pivots), count))
            if ints:
                hom[names[i], names[j]] = tuple(
                    f"{names[i]}>{names[j]}:{k}" for k in range(len(ints)))
            count += len(ints)
        corners.append(tuple(line))

    # the composite of rows v (j to k) and u (i to j) is sum_b u[b] (v . b)
    # over d = first.den * then.den * cat._den, read at the target's
    # pivots; the products v . b are made once per row v, for all sources
    # i.  over[d] lists the entries over d, and the table is over the lcm
    # of d / gcd(d, entries over d), the reduced table's denominator
    rows = [{} for _ in range(count)]
    over = defaultdict(list)
    for j, k in itertools.product(range(len(pairs)), repeat=2):
        then = corners[j][k]
        for g, v in enumerate(then.rows, then.start):
            left = defaultdict(dict)  # b -> v . b, from one pass over v
            for h, a in v.items():
                for b, terms in cat._rows[h].items():
                    vb = left[b]
                    for t, c in terms.items():
                        vb[t] = vb.get(t, 0) + a * c
            for line in corners:
                first, target = line[j], line[k]
                entries = over[first.den * then.den * cat._den]
                pivots = target.pivots
                for f, u in enumerate(first.rows, first.start):
                    w = {}
                    for b, c in u.items():
                        if vb := left.get(b):
                            for h in pivots:
                                if x := vb.get(h):
                                    w[h] = w.get(h, 0) + c * x
                    coords = {t: c for t, piv
                              in enumerate(pivots, target.start)
                              if (c := w.get(piv))}
                    if coords:
                        rows[g][f] = coords
                        entries.append(coords)
    common = {d: gcd(d, *(c for coords in entries for c in coords.values()))
              if d > 1 else 1 for d, entries in over.items()}
    den = lcm(*(d // common[d] for d in over))
    for d, entries in over.items():
        m, scale = common[d], den // (d // common[d])
        if (m, scale) != (1, 1):
            for coords in entries:
                for t, c in coords.items():
                    coords[t] = c // m * scale

    return KaroubiCategory(
        cat, pairs, tuple(corners), names, hom, rows, den,
        [(corners[i][i].express(x), d) for i, (x, d) in enumerate(idems)])


# ---------------------------------------------------------------------------
# tensor product of categories


def tensor_product(a: PresentedCategory,
                   b: PresentedCategory) -> PresentedCategory:
    """Object pairs, hom bases pairs, (f (x) f')(g (x) g') = fg (x) f'g'.

    The rows of g (x) g' are the products of the rows of g and g', over
    the product of the two denominators.
    """
    objects = list(itertools.product(a.objects, b.objects))
    obj_name = {pair: f"({pair[0]},{pair[1]})" for pair in objects}

    # number[f1, f2] is the number of f1 (x) f2, hom by hom in object order
    hom, number = {}, {}
    for (p1, p2), (q1, q2) in itertools.product(objects, repeat=2):
        keys = list(itertools.product(range(*a._span.get((p1, q1), (0, 0))),
                                      range(*b._span.get((p2, q2), (0, 0)))))
        if keys:
            number.update(zip(keys, itertools.count(len(number))))
            hom[obj_name[p1, p2], obj_name[q1, q2]] = tuple(
                f"({a._names[f1]}|{b._names[f2]})" for f1, f2 in keys)

    rows = [dict(sorted(
        (number[f1, f2], {number[h1, h2]: c1 * c2 for h1, c1 in t1.items()
                          for h2, c2 in t2.items()})
        for f1, t1 in a._rows[g1].items() for f2, t2 in b._rows[g2].items()))
        for g1, g2 in number]
    identities = []
    for p1, p2 in objects:
        (x1, d1), (x2, d2) = a._identity[p1], b._identity[p2]
        identities.append(({number[k1, k2]: c1 * c2 for k1, c1 in x1.items()
                            for k2, c2 in x2.items()}, d1 * d2))
    return PresentedCategory._from_rows(
        [obj_name[pair] for pair in objects], hom, rows, a._den * b._den,
        identities, checked=False)

