"""Fusion rings (Verlinde algebras) with involution and reducible units.

A fusion ring is a free Z-algebra on a finite label set I = {0..n-1}
whose product is determined by a tensor of nonnegative integers
N[a][b][c] (the multiplicity of label c in a * b), together with an
involution a -> dual(a) of labels and a distinguished subset of unit
components whose sum acts as the multiplicative identity.

The axioms checked here are exactly the ones a braided monoidal
semisimple category imposes on its Grothendieck ring:

  * dual is an involution of I,
  * the product is associative and commutative
        (N[a][b][c] = N[b][a][c]),
  * the Frobenius reciprocity symmetry
        N[a][b][c] = N[dual(c)][a][dual(b)],
  * the unit law: multiplying by the sum of unit components is the
    identity, with each unit component forced to multiplicity one.

Object vectors are plain tuples of nonnegative multiplicities.

Each ring keeps its multiplicities once, in the integer form of its
`coeffs` tensor, whose denominator construction checks to be 1;
`table[a][b]` is that form's row of `int`s indexed by c.  Products, the
axiom checks, the block decomposition and restriction all read the
table; associativity is the shared `exact.associativity_failures`, on
the sparse rows of the table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (DimensionMismatchError, Tensor3, associativity_failures,
                    sparse_rows)
from .report import Report

__all__ = [
    "FusionRing",
    "BlockStructureError",
    "multiply",
    "combine_rows",
    "product_vector",
    "dual_vector",
    "inner_product",
    "verify_axioms",
    "verify_frobenius_pairing",
    "block_decomposition",
    "restrict_to_labels",
    "direct_product",
    "trivial_ring",
    "cyclic_ring",
    "fibonacci_ring",
    "enumerate_fusion_rings",
]


class BlockStructureError(ValueError):
    """The label set does not split cleanly into unit-component blocks."""


@dataclass(frozen=True)
class FusionRing:
    """Fusion ring data: involution, unit components, coefficient tensor.

    ``coeffs[a][b][c]`` is the multiplicity of label ``c`` in the product
    of labels ``a`` and ``b``.  Construction checks shapes and
    integrality only; the ring axioms are checked by `verify_axioms`.
    ``table[a][b]`` is the same row of multiplicities as a tuple of
    `int`s, the integer form of ``coeffs``, and ``handle`` the
    genus-adding vector sum_a Q_dual(a) Q_a; both are set at
    construction and take no part in equality.
    """

    dual: tuple[int, ...]
    unit: tuple[int, ...]
    coeffs: Tensor3
    names: tuple[str, ...] = field(default=())
    table: tuple[tuple[tuple[int, ...], ...], ...] = field(
        init=False, compare=False, repr=False)
    handle: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.dual)
        if self.coeffs.dims != (n, n, n):
            raise ValueError(
                f"coefficient tensor has dims {self.coeffs.dims}, "
                f"expected {(n, n, n)}")
        if not self.unit:
            raise ValueError("unit component set is empty")
        if tuple(sorted(set(self.unit))) != self.unit:
            raise ValueError("unit components must be sorted and distinct")
        for a in itertools.chain(self.dual, self.unit):
            if not 0 <= a < n:
                raise ValueError(f"label {a} out of range 0..{n - 1}")
        table, den = self.coeffs.integer_form
        bad = next(((a, b, c, x) for a, plane in enumerate(table)
                    for b, fibre in enumerate(plane)
                    for c, x in enumerate(fibre) if x < 0 or x % den), None)
        if bad is not None:
            a, b, c, x = bad
            raise ValueError(
                f"coefficient N[{a}][{b}][{c}] = {Fraction(x, den)} is not "
                "a nonnegative integer")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "handle", tuple(
            map(sum, zip(*(table[self.dual[a]][a] for a in range(n))))))
        if not self.names:
            object.__setattr__(self, "names", tuple(str(i) for i in range(n)))
        elif len(self.names) != n:
            raise ValueError("need one name per label")

    @property
    def rank(self) -> int:
        return len(self.dual)

    def n(self, a: int, b: int, c: int) -> int:
        """Multiplicity of label c in the product of labels a and b."""
        return self.table[a][b][c]

    def _check_label(self, a: int) -> None:
        if not 0 <= a < self.rank:
            raise ValueError(f"label {a} out of range 0..{self.rank - 1}")

    def basis_vector(self, a: int) -> tuple[int, ...]:
        self._check_label(a)
        return tuple(int(i == a) for i in range(self.rank))

    def unit_vector(self) -> tuple[int, ...]:
        return tuple(int(i in self.unit) for i in range(self.rank))

    def _check_vectors(self, *vectors) -> None:
        if any(len(v) != self.rank for v in vectors):
            raise DimensionMismatchError(
                "object vectors of length "
                + " and ".join(str(len(v)) for v in vectors)
                + f" for a ring of rank {self.rank}")


# ---------------------------------------------------------------------------
# ring operations


def multiply(ring: FusionRing, x, y) -> tuple[int, ...]:
    """Bilinear product of object vectors: z[c] = sum x[a] y[b] N[a][b][c]."""
    ring._check_vectors(x, y)
    n = ring.rank
    y_support = [(b, y[b]) for b in range(n) if y[b]]
    z = [0] * n
    for a in range(n):
        xa = x[a]
        if not xa:
            continue
        rows = ring.table[a]
        for b, yb in y_support:
            xy = xa * yb
            for c, m in enumerate(rows[b]):
                if m:
                    z[c] += xy * m
    return tuple(z)


def combine_rows(vec, rows) -> tuple[int, ...]:
    """The integer row combination sum_d vec[d] * rows[d], skipping zeros.

    With ``rows[d] = table[d][a]`` it is the product vec * a; with the
    rows of a square matrix it is the vector-matrix product.
    """
    z = [0] * len(vec)
    for v, row in zip(vec, rows):
        if v:
            for c, m in enumerate(row):
                if m:
                    z[c] += v * m
    return tuple(z)


def product_vector(ring: FusionRing, labels) -> tuple[int, ...]:
    """Fold the labels into a single object vector, starting from the unit.

    Each step is the row combination vec <- sum_d vec[d] * table[d][a].
    """
    vec = ring.unit_vector()
    for a in labels:
        ring._check_label(a)
        vec = combine_rows(vec, [plane[a] for plane in ring.table])
    return vec


def dual_vector(ring: FusionRing, x) -> tuple[int, ...]:
    """Apply the involution: x*[a] = x[dual(a)]."""
    ring._check_vectors(x)
    return tuple(x[ring.dual[a]] for a in range(ring.rank))


def inner_product(ring: FusionRing, x, y) -> int:
    """Pairing multiplicity <x, y> = sum_a x[dual(a)] y[a]."""
    ring._check_vectors(x, y)
    return sum(x[ring.dual[a]] * y[a] for a in range(ring.rank))


def verify_axioms(ring: FusionRing) -> Report:
    """Check all fusion-ring axioms exactly; the report lists every violation.

    `checked` counts n involution, n^3 commutativity, n^4 associativity,
    n^3 reciprocity (only once the involution holds) and n unit-law
    equations.
    """
    report = Report("fusion axioms")
    n = ring.rank
    dual = ring.dual
    table = ring.table

    involution = True
    for a in range(n):
        if dual[dual[a]] != a:
            involution = False
            report.fail(
                f"involution: dual(dual({a})) = {dual[dual[a]]} != {a}")

    for a in range(n):
        for b in range(n):
            ab, ba = table[a][b], table[b][a]
            if ab == ba:
                continue
            for c in range(n):
                if ab[c] != ba[c]:
                    report.fail(
                        f"commutativity: N[{a}][{b}][{c}] = "
                        f"{ab[c]} != {ba[c]} = N[{b}][{a}][{c}]")

    for a, b, c in associativity_failures(sparse_rows(table),
                                          [range(n)] * n):
        lhs = multiply(ring, table[a][b], ring.basis_vector(c))
        rhs = multiply(ring, ring.basis_vector(a), table[b][c])
        for e in range(n):
            if lhs[e] != rhs[e]:
                report.fail(
                    f"associativity at (a,b,c,e)=({a},{b},{c},{e}):"
                    f" {lhs[e]} != {rhs[e]}")

    # Frobenius reciprocity only makes sense once the involution holds.
    if involution:
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = table[a][b][c]
                    rhs = table[dual[c]][a][dual[b]]
                    if lhs != rhs:
                        report.fail(
                            f"frobenius symmetry: N[{a}][{b}][{c}] = {lhs} "
                            f"!= {rhs} = N[{dual[c]}][{a}][{dual[b]}]")

    unit = ring.unit_vector()
    for a in range(n):
        row = multiply(ring, ring.basis_vector(a), unit)
        if row != ring.basis_vector(a):
            report.fail(
                f"unit law: Q_{a} * 1 has multiplicities {row}, "
                f"expected the basis vector at {a}")
    report.checked = 2 * n + n ** 3 + n ** 4 + (n ** 3 if involution else 0)
    return report


def verify_frobenius_pairing(ring: FusionRing) -> Report:
    """Check <Q_a, Q_b * Q_c> = <Q_a * Q_b, Q_c> on all label triples.

    Equivalent to the Frobenius coefficient symmetry; the report names
    both the pairing instance and the coefficient identity that failed.
    `checked` counts the n^3 triples.
    """
    report = Report("frobenius pairing")
    n = ring.rank
    dual = ring.dual
    table = ring.table
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = table[b][c][dual[a]]
                rhs = table[a][b][dual[c]]
                if lhs != rhs:
                    report.fail(
                        f"<Q_{a}, Q_{b}*Q_{c}> = {lhs} != {rhs} = "
                        f"<Q_{a}*Q_{b}, Q_{c}> "
                        f"(N[{b}][{c}][{dual[a]}] vs N[{a}][{b}][{dual[c]}])")
    report.checked = n ** 3
    return report


def block_decomposition(ring: FusionRing) -> list[list[int]]:
    """Partition the labels into unit-component blocks I_i.

    Block i collects the labels a with N[a][beta_i][a] = 1.  Raises
    BlockStructureError if some label lies in zero or several blocks, or
    if a block fails to be closed under the involution and the product
    (any of which signals an axiom failure upstream).
    """
    table = ring.table
    blocks: list[list[int]] = [[] for _ in ring.unit]
    for a in range(ring.rank):
        hits = [i for i, b in enumerate(ring.unit) if table[a][b][a] == 1]
        if len(hits) != 1:
            raise BlockStructureError(
                f"label {a} lies in {len(hits)} blocks {hits}")
        blocks[hits[0]].append(a)

    owner = {a: i for i, block in enumerate(blocks) for a in block}
    for i, block in enumerate(blocks):
        for a in block:
            if owner[ring.dual[a]] != i:
                raise BlockStructureError(
                    f"block {i} not closed under dual: {a} -> "
                    f"{ring.dual[a]} (block {owner[ring.dual[a]]})")
    for a in range(ring.rank):
        for b in range(ring.rank):
            if owner[a] == owner[b]:
                continue
            for c, m in enumerate(table[a][b]):
                if m:
                    raise BlockStructureError(
                        f"cross-block product nonzero: N[{a}][{b}][{c}] = "
                        f"{m} across blocks "
                        f"{owner[a]} and {owner[b]}")
    return blocks


def restrict_to_labels(ring: FusionRing, labels) -> FusionRing:
    """Sub-ring on a dual-closed label subset (relabelled 0..k-1)."""
    labels = list(labels)
    pos = {a: i for i, a in enumerate(labels)}
    for a in labels:
        if ring.dual[a] not in pos:
            raise ValueError(f"label subset not closed under dual at {a}")
    unit = tuple(sorted(pos[b] for b in ring.unit if b in pos))
    if not unit:
        raise ValueError("label subset contains no unit component")
    table = ring.table
    coeffs = Tensor3.from_integers(
        [[[table[a][b][c] for c in labels] for b in labels]
         for a in labels], 1)
    return FusionRing(
        dual=tuple(pos[ring.dual[a]] for a in labels),
        unit=unit,
        coeffs=coeffs,
        names=tuple(ring.names[a] for a in labels))


def direct_product(left: FusionRing, right: FusionRing,
                   names: tuple[str, ...] = ()) -> FusionRing:
    """Direct product ring: disjoint labels, block-diagonal coefficients."""
    n1, n2 = left.rank, right.rank
    n = n1 + n2
    data: dict[tuple[int, int, int], int] = {}
    for (a, b, c), v in left.coeffs.nonzero():
        data[(a, b, c)] = v
    for (a, b, c), v in right.coeffs.nonzero():
        data[(a + n1, b + n1, c + n1)] = v
    if not names:
        names = tuple(f"l:{s}" for s in left.names) + tuple(
            f"r:{s}" for s in right.names)
    return FusionRing(
        dual=tuple(left.dual) + tuple(d + n1 for d in right.dual),
        unit=tuple(left.unit) + tuple(u + n1 for u in right.unit),
        coeffs=Tensor3.from_dict((n, n, n), data),
        names=names)


# ---------------------------------------------------------------------------
# named small rings


def trivial_ring() -> FusionRing:
    return FusionRing(dual=(0,), unit=(0,),
                      coeffs=Tensor3.from_dict((1, 1, 1), {(0, 0, 0): 1}))


def cyclic_ring(n: int) -> FusionRing:
    """Group ring of Z/n: N[a][b][a+b mod n] = 1, dual = inverse."""
    data = {(a, b, (a + b) % n): 1 for a in range(n) for b in range(n)}
    return FusionRing(dual=tuple((-a) % n for a in range(n)), unit=(0,),
                      coeffs=Tensor3.from_dict((n, n, n), data))


def fibonacci_ring() -> FusionRing:
    """Rank-2 ring with tau * tau = 1 + tau."""
    data = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
            (1, 1, 0): 1, (1, 1, 1): 1}
    return FusionRing(dual=(0, 1), unit=(0,),
                      coeffs=Tensor3.from_dict((2, 2, 2), data),
                      names=("1", "tau"))


# ---------------------------------------------------------------------------
# exhaustive enumeration (the brute-force oracle for small ranks)


def _involutions_fixing_zero(n: int):
    """All involutions of 0..n-1 with 0 as a fixed point, lexicographically."""

    def build(perm: list[int], free: list[int]):
        if not free:
            yield tuple(perm)
            return
        a = free[0]
        rest = free[1:]
        perm[a] = a
        yield from build(perm, rest)
        for b in rest:
            perm[a], perm[b] = b, a
            yield from build(perm, [c for c in rest if c != b])
        perm[a] = a

    yield from build(list(range(n)), list(range(1, n)))


def _forced_entries(n: int, dual: tuple[int, ...]) -> dict:
    """Coefficient entries pinned by the unit law and reciprocity.

    With unit {0}: N[0][b][c] = N[b][0][c] = delta(b, c) and
    N[a][b][0] = delta(b, dual(a)).
    """
    forced = {}
    for b in range(n):
        for c in range(n):
            forced[(0, b, c)] = int(b == c)
            forced[(b, 0, c)] = int(b == c)
    for a in range(1, n):
        for b in range(1, n):
            forced[(a, b, 0)] = int(b == dual[a])
    return forced


def _symmetry_orbits(n: int, dual: tuple[int, ...]):
    """Orbits of free index triples under commutativity and reciprocity."""
    free = [(a, b, c) for a in range(1, n) for b in range(1, n)
            for c in range(1, n)]
    seen: set[tuple[int, int, int]] = set()
    orbits = []
    for t in free:
        if t in seen:
            continue
        orbit = set()
        stack = [t]
        while stack:
            a, b, c = stack.pop()
            if (a, b, c) in orbit:
                continue
            orbit.add((a, b, c))
            stack.append((b, a, c))
            stack.append((dual[c], a, dual[b]))
        orbit &= set(free)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _canonical_key(n: int, dual: tuple[int, ...], N: dict):
    """Lexicographically least relabelling over permutations fixing 0.

    Relabellings transport the dual permutation along, so two rings are
    identified only when the involutions match up as well.
    """
    best = None
    for perm in itertools.permutations(range(1, n)):
        p = (0,) + perm
        d2 = tuple(sorted(range(n), key=lambda a: p[a]))  # inverse of p
        new_dual = tuple(p[dual[d2[a]]] for a in range(n))
        new_n = tuple(N[(d2[a], d2[b], d2[c])]
                      for a in range(n) for b in range(n) for c in range(n))
        key = (new_dual, new_n)
        if best is None or key < best:
            best = key
    return best


def enumerate_fusion_rings(rank: int, max_coeff: int) -> list[FusionRing]:
    """All fusion rings with irreducible self-dual unit, up to relabelling.

    Exhausts involutions fixing label 0 and coefficient tensors with
    entries bounded by max_coeff, keeps the tensors passing all axioms,
    and returns one representative per relabelling class (permutations
    fixing the unit label), in a deterministic canonical order.  Guard
    rails: rank <= 4 and max_coeff <= 3.
    """
    if not 1 <= rank <= 4:
        raise ValueError(f"rank {rank} out of supported range 1..4")
    if not 0 <= max_coeff <= 3:
        raise ValueError(f"max_coeff {max_coeff} out of supported range 0..3")

    found: dict[tuple, FusionRing] = {}
    partners = [range(rank)] * rank
    for dual in _involutions_fixing_zero(rank):
        forced = _forced_entries(rank, dual)
        orbits = _symmetry_orbits(rank, dual)
        orbits = [tuple(t for t in orbit if t not in forced)
                  for orbit in orbits]
        orbits = [o for o in orbits if o]

        for values in itertools.product(range(max_coeff + 1),
                                        repeat=len(orbits)):
            N = dict(forced)
            for orbit, v in zip(orbits, values):
                for t in orbit:
                    N[t] = v
            rows: list[dict] = [{} for _ in range(rank)]
            for (a, b, c), v in N.items():
                if v:
                    rows[a].setdefault(b, {})[c] = v
            if next(associativity_failures(rows, partners), None) is not None:
                continue
            key = _canonical_key(rank, dual, N)
            if key in found:
                continue
            canon_dual, flat = key
            coeffs = Tensor3.from_integers(
                [[flat[(a * rank + b) * rank:(a * rank + b + 1) * rank]
                  for b in range(rank)] for a in range(rank)], 1)
            ring = FusionRing(dual=canon_dual, unit=(0,), coeffs=coeffs)
            if verify_axioms(ring).ok:
                found[key] = ring
    return [found[key] for key in sorted(found)]
