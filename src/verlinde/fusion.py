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

Each ring keeps its multiplicities once, as the `int`s of `table`, which
every builder writes directly; `table[a][b]` is the row indexed by c.
Products, the axiom checks, the block decomposition and restriction all
read the table.  Every product of vectors, the unit law's Q_a * 1
included, is the one integer row product `exact.combine_rows` over rows
of the table; associativity is the shared
`exact.associativity_failures`, on the sparse rows of the table
(`exact.sparse_rows`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .exact import (DimensionMismatchError, associativity_failures,
                    combine_rows, sparse_rows)
from .report import Report, SearchTooLargeError

__all__ = [
    "FusionRing",
    "BlockStructureError",
    "multiply",
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
    "MAX_ENUMERATION_CANDIDATES",
]


class BlockStructureError(ValueError):
    """The label set does not split cleanly into unit-component blocks."""


@dataclass(frozen=True)
class FusionRing:
    """Fusion ring data: involution, unit components, multiplicity table.

    ``table[a][b][c]`` is the multiplicity of label ``c`` in the product
    of labels ``a`` and ``b``, a plain `int`.  Construction turns the
    table into nested tuples and checks its n x n x n shape, the labels
    and that every entry is a nonnegative `int` (a `bool` or a
    `Fraction` is not); the ring axioms are checked by `verify_axioms`.
    ``handle``, the genus-adding vector sum_a Q_dual(a) Q_a, is set at
    construction and takes no part in equality.  The colour operators
    and the unit vector are cached on first use, outside equality.
    """

    dual: tuple[int, ...]
    unit: tuple[int, ...]
    table: tuple[tuple[tuple[int, ...], ...], ...]
    names: tuple[str, ...] = field(default=())
    handle: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.dual)
        table = tuple(tuple(map(tuple, plane)) for plane in self.table)
        if len(table) != n or any(len(row) != n for plane in table
                                  for row in (plane, *plane)):
            raise DimensionMismatchError(
                f"multiplicity table is not {n} x {n} x {n}")
        if not self.unit:
            raise ValueError("unit component set is empty")
        if tuple(sorted(set(self.unit))) != self.unit:
            raise ValueError("unit components must be sorted and distinct")
        for a in itertools.chain(self.dual, self.unit):
            if not 0 <= a < n:
                raise ValueError(f"label {a} out of range 0..{n - 1}")
        bad = next(((a, b, c, x) for a, plane in enumerate(table)
                    for b, fibre in enumerate(plane)
                    for c, x in enumerate(fibre)
                    if type(x) is not int or x < 0), None)
        if bad is not None:
            a, b, c, x = bad
            raise ValueError(f"coefficient N[{a}][{b}][{c}] = {x!r} is not "
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
        return self._unit_vector

    @cached_property
    def _unit_vector(self) -> tuple[int, ...]:
        return tuple(int(i in self.unit) for i in range(self.rank))

    @cached_property
    def _colour_operators(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """R_a for each label a, whose row d is table[d][a] = d * a, so
        vec * a is combine_rows(vec, R_a)."""
        return tuple(tuple(plane[a] for plane in self.table)
                     for a in range(self.rank))

    def _check_vectors(self, *vectors) -> None:
        if any(len(v) != self.rank for v in vectors):
            raise DimensionMismatchError(
                "object vectors of length "
                + " and ".join(str(len(v)) for v in vectors)
                + f" for a ring of rank {self.rank}")


# ---------------------------------------------------------------------------
# ring operations


def multiply(ring: FusionRing, x, y) -> tuple[int, ...]:
    """Bilinear product of object vectors: z[c] = sum x[a] y[b] N[a][b][c],
    as the combination by x of the rows y * Q_a = sum_b y[b] N[a][b]."""
    ring._check_vectors(x, y)
    zero = (0,) * ring.rank
    return combine_rows(x, [combine_rows(y, plane) if xa else zero
                            for xa, plane in zip(x, ring.table)])


def product_vector(ring: FusionRing, labels) -> tuple[int, ...]:
    """Fold the labels into a single object vector, starting from the unit.

    Each step is the row combination vec <- sum_d vec[d] * table[d][a],
    with the colour operator R_a the ring keeps.
    """
    vec = ring.unit_vector()
    for a in labels:
        ring._check_label(a)
        vec = combine_rows(vec, ring._colour_operators[a])
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
        row = combine_rows(unit, table[a])  # Q_a * 1
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
    return FusionRing(
        dual=tuple(pos[ring.dual[a]] for a in labels),
        unit=unit,
        table=[[[table[a][b][c] for c in labels] for b in labels]
               for a in labels],
        names=tuple(ring.names[a] for a in labels))


def direct_product(left: FusionRing, right: FusionRing,
                   names: tuple[str, ...] = ()) -> FusionRing:
    """Direct product ring: disjoint labels, block-diagonal coefficients."""
    n1, n2 = left.rank, right.rank
    pad1, pad2 = (0,) * n1, (0,) * n2
    zero = pad1 + pad2
    table = ([[row + pad2 for row in plane] + [zero] * n2
              for plane in left.table]
             + [[zero] * n1 + [pad1 + row for row in plane]
                for plane in right.table])
    if not names:
        names = tuple(f"l:{s}" for s in left.names) + tuple(
            f"r:{s}" for s in right.names)
    return FusionRing(
        dual=tuple(left.dual) + tuple(d + n1 for d in right.dual),
        unit=tuple(left.unit) + tuple(u + n1 for u in right.unit),
        table=table,
        names=names)


# ---------------------------------------------------------------------------
# named small rings


def trivial_ring() -> FusionRing:
    return FusionRing(dual=(0,), unit=(0,), table=[[[1]]])


def cyclic_ring(n: int) -> FusionRing:
    """Group ring of Z/n: N[a][b][a+b mod n] = 1, dual = inverse."""
    return FusionRing(dual=tuple((-a) % n for a in range(n)), unit=(0,),
                      table=[[[int((a + b) % n == c) for c in range(n)]
                              for b in range(n)] for a in range(n)])


def fibonacci_ring() -> FusionRing:
    """Rank-2 ring with tau * tau = 1 + tau."""
    return FusionRing(dual=(0, 1), unit=(0,),
                      table=[[[1, 0], [0, 1]], [[0, 1], [1, 1]]],
                      names=("1", "tau"))


# ---------------------------------------------------------------------------
# enumeration: a depth-first search over symmetry orbits, refused by an
# estimate before it starts


# the most work one enumeration may do, in steps that each cost about as
# much as a candidate tensor (see `_enumeration_estimate`)
MAX_ENUMERATION_CANDIDATES = 2 * 10 ** 7


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


def _enumeration_estimate(rank: int, max_coeff: int) -> tuple[int, int]:
    """(candidate tensors, work estimate) of an enumeration, in closed form.

    There are T(rank - 1) involutions fixing 0 (telephone numbers), and
    each leaves C(rank + 1, 3) free orbits, whatever the involution: by
    Burnside's lemma over the six symmetries of (a, b, c) that
    commutativity and reciprocity generate, the m^3 free triples, m =
    rank - 1, fall into (m^3 + 3m^2 + 2m) / 6 orbits.  The work counts,
    in steps that each cost about as much as a candidate, every
    candidate tensor and, per involution, rank^5 steps to compile its
    equations and the (rank - 1)! relabellings of rank^3 entries of one
    `_canonical_key`.  Up to rank 2 no equation is left to prune, so
    every candidate is a ring, whose build counts 1000 steps; past rank
    2 the equations leave few tensors (294 of the 10,485,760 candidates
    at (5, 1)), and those are not charged.
    """
    involutions, before = 1, 0  # T(0), T(-1)
    for k in range(1, rank):
        involutions, before = involutions + (k - 1) * before, involutions
    candidates = involutions * (max_coeff + 1) ** math.comb(rank + 1, 3)
    work = (candidates * (1000 if rank <= 2 else 1) + involutions
            * (rank ** 5 + math.factorial(rank - 1) * rank ** 3))
    return candidates, work


def _compiled_equations(n: int, forced: dict, orbits) -> list[tuple]:
    """The associativity equations of one involution, in the orbit values.

    Equation (a, b, c, d) is sum_e N[a][b][e] N[e][c][d] =
    sum_e N[b][c][e] N[a][e][d].  Only a < c and a, b, c, d >= 1 are
    compiled: with the unit among a, b, c both sides agree by the unit
    law, with d = 0 they are N[a][b][dual c] and N[b][c][dual a], one
    orbit, and by commutativity equation (c, b, a, d) is equation
    (a, b, c, d) with its sides swapped.  A factor is an orbit number,
    or len(orbits) for a forced 1, and a term with a forced 0 is
    dropped.  Each equation is a sorted tuple of (i, j, s),
    meaning sum s * v[i] * v[j] = 0 with v[len(orbits)] = 1, its first s
    positive; terms that cancel are dropped, equations that cancel to
    nothing are left out and each other equation is kept once.
    """
    k = len(orbits)
    slot = [[[None] * n for _ in range(n)] for _ in range(n)]
    for (a, b, c), v in forced.items():
        if v:
            slot[a][b][c] = k
    for o, orbit in enumerate(orbits):
        for a, b, c in orbit:
            slot[a][b][c] = o
    equations = set()
    for a, b, c in itertools.product(range(1, n), repeat=3):
        if a >= c:
            continue
        # (ab)c pairs N[a][b][e] with N[e][c], a(bc) N[b][c][e] with N[a][e]
        sides = ([(x, slot[e][c], 1) for e, x in enumerate(slot[a][b])
                  if x is not None]
                 + [(x, slot[a][e], -1) for e, x in enumerate(slot[b][c])
                    if x is not None])
        for d in range(1, n):
            terms: dict[tuple[int, int], int] = {}
            for x, row, s in sides:
                y = row[d]
                if y is not None:
                    pair = (x, y) if x <= y else (y, x)
                    terms[pair] = terms.get(pair, 0) + s
            eq = sorted((i, j, s) for (i, j), s in terms.items() if s)
            if eq:
                sign = 1 if eq[0][2] > 0 else -1
                equations.add(tuple((i, j, sign * s) for i, j, s in eq))
    return sorted(equations)


def _search_plan(k: int, equations):
    """The order in which to assign the k orbits, most constrained first,
    and each equation filed under the position of the last orbit it reads.

    Each step takes the orbit that closes the most equations given the
    orbits before it (ties: the one read by the most equations, then the
    lowest number).  An equation that reads no orbit, if any, is filed
    under the first position.
    """
    reads = [{x for i, j, _ in eq for x in (i, j) if x < k}
             for eq in equations]
    readers: list[list[int]] = [[] for _ in range(k)]
    for q, orbits in enumerate(reads):
        for o in orbits:
            readers[o].append(q)
    unset = [set(orbits) for orbits in reads]
    closes = [0] * k
    for orbits in unset:
        if len(orbits) == 1:
            closes[next(iter(orbits))] += 1
    order: list[int] = []
    left = set(range(k))
    while left:
        o = max(left, key=lambda o: (closes[o], len(readers[o]), -o))
        left.remove(o)
        order.append(o)
        for q in readers[o]:
            unset[q].discard(o)
            if len(unset[q]) == 1:
                closes[next(iter(unset[q]))] += 1
    position = {o: p for p, o in enumerate(order)}
    filed: list[list[tuple]] = [[] for _ in range(k)]
    for eq, orbits in zip(equations, reads):
        filed[max(map(position.__getitem__, orbits), default=0)].append(eq)
    return order, filed


def _associative_values(max_coeff: int, order, filed):
    """Yield each list of orbit values (the list is reused) that satisfies
    every filed equation, testing each one as soon as its last orbit is
    assigned and pruning at the first that fails.

    Where a filed equation is linear in the orbit being assigned, as
    s1 * v + s0 = 0 with s1 and s0 fixed by the orbits before it, that
    equation picks the value: the one root when s1 != 0, none or all
    when s1 = 0.
    """
    k = len(order)
    values = [0] * k + [1]
    steps = []
    for o, checks in zip(order, filed):
        pivot = next((eq for eq in checks
                      if all(i != o or j != o for i, j, _ in eq)), None)
        if pivot is not None:
            pivot = ([(j if i == o else i, s) for i, j, s in pivot
                      if o in (i, j)],
                     [t for t in pivot if o not in t[:2]])
        steps.append((o, checks, pivot))
    every = range(max_coeff + 1)

    def extend(depth):
        if depth == k:
            yield values
            return
        o, checks, pivot = steps[depth]
        choices = every
        if pivot is not None:
            s1 = sum(s * values[j] for j, s in pivot[0])
            s0 = sum(s * values[i] * values[j] for i, j, s in pivot[1])
            if s1:
                v, r = divmod(-s0, s1)
                choices = (v,) if not r and 0 <= v <= max_coeff else ()
            elif s0:
                choices = ()
        for v in choices:
            values[o] = v
            if all(sum(s * values[i] * values[j] for i, j, s in eq) == 0
                   for eq in checks):
                yield from extend(depth + 1)

    return extend(0)


def enumerate_fusion_rings(rank: int, max_coeff: int) -> list[FusionRing]:
    """All fusion rings with irreducible self-dual unit, up to relabelling.

    For each involution fixing label 0, a depth-first search assigns the
    free symmetry orbits values 0..max_coeff, most constrained first,
    and prunes at the first associativity equation whose entries are all
    fixed and which fails.  Every surviving tensor is put in canonical
    form; one representative per relabelling class (permutations fixing
    the unit label) is returned, in a deterministic canonical order.  The
    orbits, the forced entries and the equations impose every axiom of
    `verify_axioms`, so the rings are not checked again.  Raises
    SearchTooLargeError, naming the estimate, before any search whose
    work estimate passes MAX_ENUMERATION_CANDIDATES, and ValueError on a
    rank below 1 or a negative max_coeff.
    """
    if rank < 1:
        raise ValueError(f"rank {rank} must be >= 1")
    if max_coeff < 0:
        raise ValueError(f"max_coeff {max_coeff} must be >= 0")
    candidates, work = _enumeration_estimate(rank, max_coeff)
    if work > MAX_ENUMERATION_CANDIDATES:
        raise SearchTooLargeError(
            f"enumerating rank {rank} with max_coeff {max_coeff} would try "
            f"{candidates} candidate tensors, an estimated {work} steps, "
            f"more than MAX_ENUMERATION_CANDIDATES = "
            f"{MAX_ENUMERATION_CANDIDATES}")

    found: dict[tuple, FusionRing] = {}
    for dual in _involutions_fixing_zero(rank):
        forced = _forced_entries(rank, dual)
        orbits = _symmetry_orbits(rank, dual)
        plan = _search_plan(len(orbits),
                            _compiled_equations(rank, forced, orbits))
        for values in _associative_values(max_coeff, *plan):
            N = dict(forced)
            for orbit, v in zip(orbits, values):
                N.update(dict.fromkeys(orbit, v))
            key = _canonical_key(rank, dual, N)
            if key in found:
                continue
            canon_dual, flat = key
            found[key] = FusionRing(
                dual=canon_dual, unit=(0,),
                table=[[flat[(a * rank + b) * rank:(a * rank + b + 1) * rank]
                        for b in range(rank)] for a in range(rank)])
    return [found[key] for key in sorted(found)]
