"""Independent brute-force oracles the library is tested against.

Nothing here reuses the library's evaluation paths: the structure
constants of rings and algebras are read through one plain helper,
`fraction_constants`, as a dict of `Fraction`s per integer form (a
ring's `(table, 1)`, an algebra's `mult`), never as the table's
`int`s, and the ring and algebra builders are checked against the
dict-literal constructions they replaced (`mult_form` of
`conftest` writes those as integer planes); surface
dimensions are recomputed by naive convolution (and, for tiny cases,
by literally expanding the
product as a multiset of labels), the in-order `dim_V` by one product
with the handle vector per handle, gluing-consistency reports by
branching over every label of every handle, the fusion-axiom, pairing and
Frobenius-algebra reports by loops over every index, associativity on
sparse integer rows by two sums per triple, the generators of Light's
test by re-reading every product of a generated element and a
generator until nothing new is made, fusion-ring enumeration by
building every candidate tensor and filtering it with those sums (it
shares only the involutions, orbits and canonical key of the
library's search), representation-ring
coefficients come from character-table inner products, category
associativity is checked on every basis triple with plain `Fraction`
sums over `compose_basis`, grid idempotents by one such composite per
candidate, Karoubi completions by carving each corner
with `gauss_jordan` and composing its rows with the same sums, rank,
inverse and row reduction come from a textbook `Fraction` Gauss-Jordan
(and the stored rows of the integer elimination from its previous
kernel, which combined rows with unreduced multipliers, and the integer
forms of inverses and ranks from that kernel, as `Matrix` computed them
before it recursed on blocks),
tensor contractions and matrix products from plain triple loops over
`Fraction` entries, the trace form and the separability equations of an
algebra from index loops over `m[i, j, k]`, basis changes of an
algebra from n^2 `Fraction` products, random basis changes from two
`Fraction` triangular factors multiplied by a triple loop, genus
invariants from repeated
`Fraction` products with a handle element built from the Gauss-Jordan
inverse of the pairing, cobordism words from a `Fraction` state with
its own comultiplication, and invariance-suite reports from those two.
The text readers of `formats` are compared with their line-by-line
predecessors (`parent_parse`), which read each value as a `Fraction`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from conftest import mult_form
from verlinde.fusion import (FusionRing, _canonical_key, _forced_entries,
                             _involutions_fixing_zero, _symmetry_orbits,
                             verify_axioms)


@lru_cache(maxsize=256)
def fraction_constants(mult) -> dict[tuple[int, int, int], Fraction]:
    """The structure constants planes[i][j][k] / den of the integer form
    mult = (planes, den), nested tuples, as a dense dict of `Fraction`s
    keyed (i, j, k), made once per form (the cache holds forms, not
    rings or algebras, so that it keeps none alive)."""
    planes, den = mult
    return {(i, j, k): Fraction(x, den) for i, plane in enumerate(planes)
            for j, fibre in enumerate(plane) for k, x in enumerate(fibre)}


def multiplicities(ring: FusionRing) -> dict:
    """The `Fraction` constants N[a, b, c] of a ring."""
    return fraction_constants((ring.table, 1))


def _n(ring: FusionRing, a: int, b: int, c: int) -> int:
    return int(multiplicities(ring)[a, b, c])


def _mult_label(ring: FusionRing, counts: dict[int, int],
                label: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, m in counts.items():
        for c in range(ring.rank):
            k = _n(ring, a, label, c)
            if k:
                out[c] = out.get(c, 0) + m * k
    return out


def brute_force_product(ring: FusionRing, colours) -> tuple[int, ...]:
    """Unit times the colours as an object vector, by convolution."""
    counts = {b: 1 for b in ring.unit}
    for colour in colours:
        counts = _mult_label(ring, counts, colour)
    return tuple(counts.get(c, 0) for c in range(ring.rank))


def brute_force_dim(ring: FusionRing, genus: int, colours) -> int:
    """Unit multiplicity of the total product, by dictionary convolution."""
    counts = {b: 1 for b in ring.unit}
    for colour in colours:
        counts = _mult_label(ring, counts, colour)
    for _ in range(genus):
        acc: dict[int, int] = {}
        for a in range(ring.rank):
            piece = _mult_label(ring, _mult_label(ring, counts,
                                                  ring.dual[a]), a)
            for c, m in piece.items():
                acc[c] = acc.get(c, 0) + m
        counts = acc
    return sum(counts.get(b, 0) for b in ring.unit)


def list_expansion_dim(ring: FusionRing, genus: int, colours) -> int:
    """Same number by expanding the product as a literal list of labels.

    Exponential; keep to rank <= 3, genus <= 2, few colours.
    """
    def append(states: list[int], label: int) -> list[int]:
        out = []
        for a in states:
            for c in range(ring.rank):
                out.extend([c] * _n(ring, a, label, c))
        return out

    states = list(ring.unit)
    for colour in colours:
        states = append(states, colour)
    for _ in range(genus):
        new_states: list[int] = []
        for a in range(ring.rank):
            new_states.extend(append(append(states, ring.dual[a]), a))
        states = new_states
    return sum(1 for a in states if a in ring.unit)


def step_fold(ring: FusionRing, genus: int, colours) -> tuple[int, ...]:
    """Unit times the colours, then genus many products with the handle."""
    return handle_steps(ring, genus, brute_force_product(ring, colours))


def handle_steps(ring: FusionRing, genus: int, vec) -> tuple[int, ...]:
    """The object vector `vec`, then genus many products with the handle.

    The handle vector h = sum_a dual(a) * a is multiplied in one handle
    at a time, x * h = sum_{d, b} x[d] h[b] N[d][b][.], so on a ring
    that fails associativity this is the in-order answer of `dim_V`.
    """
    n = ring.rank
    N = [[[_n(ring, a, b, c) for c in range(n)] for b in range(n)]
         for a in range(n)]
    handle = [sum(N[ring.dual[a]][a][c] for a in range(n))
              for c in range(n)]
    vec = list(vec)
    for _ in range(genus):
        vec = [sum(vec[d] * handle[b] * N[d][b][c]
                   for d in range(n) for b in range(n)) for c in range(n)]
    return tuple(vec)


def step_fold_dim(ring: FusionRing, genus: int, colours) -> int:
    return sum(step_fold(ring, genus, colours)[b] for b in ring.unit)


def gluing_by_branching(ring: FusionRing, genus: int, colours, rng) -> int:
    """Genus reduction by branching over every label of every handle.

    Handle k is inserted as the pair (dual(a), a) at a position drawn in
    the sequence of length len(colours) + 2k, one draw per handle, made
    up front in that order; every fully inserted sequence is folded by
    convolution.  rank^genus folds.
    """
    positions = [rng.randrange(len(colours) + 2 * k + 1)
                 for k in range(genus)]

    def branch(seq: tuple, level: int) -> int:
        if level == genus:
            return brute_force_dim(ring, 0, seq)
        pos = positions[level]
        return sum(branch(seq[:pos] + (ring.dual[a], a) + seq[pos:],
                          level + 1) for a in range(ring.rank))

    return branch(tuple(colours), 0)


def gluing_entries(ring: FusionRing, genus: int, colours, trials: int,
                   seed: int) -> list[str]:
    """The entries of a gluing-consistency report, from the two oracles
    above, with the checks in the library's order and random draws."""
    rng = random.Random(seed)
    colours = tuple(colours)
    reference = step_fold_dim(ring, genus, colours)
    entries = []
    for _ in range(trials):
        shuffled = list(colours)
        rng.shuffle(shuffled)
        got = step_fold_dim(ring, genus, shuffled)
        if got != reference:
            entries.append(f"boundary order {tuple(shuffled)} gives {got}, "
                           f"canonical order gives {reference}")
    for t in range(trials if genus else 0):
        got = gluing_by_branching(ring, genus, colours, rng)
        if got != reference:
            entries.append(f"genus-reduction schedule {t} gives {got}, "
                           f"direct evaluation gives {reference}")
    for k, colour in enumerate(colours):
        rest = colours[:k] + colours[k + 1:]
        got = step_fold(ring, genus, rest)[ring.dual[colour]]
        if got != reference:
            entries.append(f"capping boundary {k} (colour {colour}) gives "
                           f"{got}, direct evaluation gives {reference}")
    for _ in range(trials):
        g1 = rng.randint(0, genus)
        keep = [rng.random() < 0.5 for _ in colours]
        s1 = tuple(c for c, k in zip(colours, keep) if k)
        s2 = tuple(c for c, k in zip(colours, keep) if not k)
        glued = sum(step_fold_dim(ring, g1, s1 + (ring.dual[a],))
                    * step_fold_dim(ring, genus - g1, s2 + (a,))
                    for a in range(ring.rank))
        if glued != reference:
            entries.append(
                f"split (genus {g1}+{genus - g1}, boundaries {s1}|{s2}) "
                f"glued along one circle gives {glued}, direct evaluation "
                f"gives {reference}")
    return entries


# ---------------------------------------------------------------------------
# fusion-axiom and pairing reports by loops over every index


def fusion_axiom_entries(ring: FusionRing) -> tuple[list[str], int]:
    """(entries, equations checked) of the fusion-axiom check.

    Every equation is evaluated on its own, associativity as n^4 sums
    over d, from the `Fraction` coefficients; the unit-law rows come
    from the same coefficients, not from a product routine.
    """
    entries: list[str] = []
    checked = 0
    n = ring.rank
    dual = ring.dual
    N = multiplicities(ring)

    for a in range(n):
        checked += 1
        if dual[dual[a]] != a:
            entries.append(
                f"involution: dual(dual({a})) = {dual[dual[a]]} != {a}")

    for a in range(n):
        for b in range(n):
            for c in range(n):
                checked += 1
                if N[a, b, c] != N[b, a, c]:
                    entries.append(
                        f"commutativity: N[{a}][{b}][{c}] = "
                        f"{N[a, b, c]} != {N[b, a, c]} = "
                        f"N[{b}][{a}][{c}]")

    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    checked += 1
                    lhs = sum(N[a, b, d] * N[d, c, e] for d in range(n))
                    rhs = sum(N[b, c, d] * N[a, d, e] for d in range(n))
                    if lhs != rhs:
                        entries.append(
                            f"associativity at (a,b,c,e)=({a},{b},{c},{e}):"
                            f" {lhs} != {rhs}")

    if all(dual[dual[a]] == a for a in range(n)):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    checked += 1
                    lhs = N[a, b, c]
                    rhs = N[dual[c], a, dual[b]]
                    if lhs != rhs:
                        entries.append(
                            f"frobenius symmetry: N[{a}][{b}][{c}] = {lhs} "
                            f"!= {rhs} = N[{dual[c]}][{a}][{dual[b]}]")

    for a in range(n):
        checked += 1
        row = tuple(int(sum(N[a, b, c] for b in ring.unit))
                    for c in range(n))
        if row != tuple(int(c == a) for c in range(n)):
            entries.append(
                f"unit law: Q_{a} * 1 has multiplicities {row}, "
                f"expected the basis vector at {a}")
    return entries, checked


def frobenius_pairing_entries(ring: FusionRing) -> tuple[list[str], int]:
    """(entries, equations checked) of the pairing check, on every triple."""
    entries: list[str] = []
    checked = 0
    n = ring.rank
    dual = ring.dual
    N = multiplicities(ring)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                checked += 1
                lhs = N[b, c, dual[a]]
                rhs = N[a, b, dual[c]]
                if lhs != rhs:
                    entries.append(
                        f"<Q_{a}, Q_{b}*Q_{c}> = {lhs} != {rhs} = "
                        f"<Q_{a}*Q_{b}, Q_{c}> "
                        f"(N[{b}][{c}][{dual[a]}] vs N[{a}][{b}][{dual[c]}])")
    return entries, checked


# ---------------------------------------------------------------------------
# Frobenius-algebra report by a Fraction loop over every basis triple


def frobenius_axiom_entries(algebra) -> tuple[list[str], int]:
    """(entries, equations checked) of the Frobenius-algebra check.

    Both bracketings of every basis triple are summed in `Fraction`
    from `fraction_constants(algebra.mult)`, and both associativity and
    pairing invariance are compared on each; the unit laws and the rank
    of the pairing come from the same constants.
    """
    entries: list[str] = []
    checked = 0
    n = algebra.dim
    m = fraction_constants(algebra.mult)

    def times(x, y):
        out = [Fraction(0)] * n
        xs = [(i, a) for i, a in enumerate(x) if a]
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in xs:
            for j, b in ys:
                for k in range(n):
                    if m[i, j, k]:
                        out[k] += a * b * m[i, j, k]
        return tuple(out)

    def eps(x):
        return sum(a * b for a, b in zip(algebra.counit, x) if a and b)

    basis = [tuple(Fraction(int(j == i)) for j in range(n))
             for i in range(n)]
    prod = [[times(x, y) for y in basis] for x in basis]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                checked += 2
                lhs = times(prod[i][j], basis[k])
                rhs = times(basis[i], prod[j][k])
                if lhs != rhs:
                    entries.append(f"associativity at (e_{i} e_{j}) e_{k}: "
                                   f"{lhs} != {rhs}")
                if eps(lhs) != eps(rhs):
                    entries.append(
                        f"pairing invariance at (e_{i} e_{j}, e_{k}): "
                        "eps((ab)c) != eps(a(bc))")
    for i in range(n):
        checked += 2
        left = times(algebra.unit, basis[i])
        right = times(basis[i], algebra.unit)
        if left != basis[i]:
            entries.append(f"unit law: 1 * e_{i} = {left}")
        if right != basis[i]:
            entries.append(f"unit law: e_{i} * 1 = {right}")
    checked += 1
    pairing = [[eps(xy) for xy in row] for row in prod]
    rank = gauss_jordan_rank(pairing)
    if rank != n:
        entries.append(
            f"pairing eps(e_i e_j) is degenerate: rank {rank} of {n}")
    return entries, checked


# ---------------------------------------------------------------------------
# character-theoretic representation-ring oracle (rational tables only)


def fusion_from_characters(class_sizes, table, names) -> FusionRing:
    """Representation ring from a rational character table.

    `table[a][k]` is the character of irreducible a on conjugacy class
    k.  The hand-entered table is self-validated through the
    orthogonality relations before any coefficient is produced, and the
    tensor-product multiplicities come from the inner product
    (1/|G|) sum_k |class_k| chi_a chi_b chi_c.
    """
    order = sum(class_sizes)
    n = len(table)
    for a in range(n):
        for b in range(n):
            inner = Fraction(sum(s * table[a][k] * table[b][k]
                                 for k, s in enumerate(class_sizes)), order)
            if inner != int(a == b):
                raise ValueError(
                    f"character table fails orthogonality at ({a},{b})")
    if sum(row[0] ** 2 for row in table) != order:
        raise ValueError("character degrees do not sum to the group order")

    multiplicity = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                m = Fraction(sum(s * table[a][k] * table[b][k] * table[c][k]
                                 for k, s in enumerate(class_sizes)), order)
                if m.denominator != 1 or m < 0:
                    raise ValueError(
                        f"non-integral multiplicity at ({a},{b},{c})")
                multiplicity[a][b][c] = int(m)
    return FusionRing(dual=tuple(range(n)), unit=(0,), table=multiplicity,
                      names=tuple(names))


S3_CLASS_SIZES = (1, 3, 2)
S3_CHARACTER_TABLE = (
    (1, 1, 1),    # trivial
    (1, -1, 1),   # sign
    (2, 0, -1),   # standard
)
Z2_CLASS_SIZES = (1, 1)
Z2_CHARACTER_TABLE = ((1, 1), (1, -1))


def s3_cayley_table() -> list[list[int]]:
    """Composition table of all permutations of three points."""
    from itertools import permutations

    elems = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    return [[index[compose(p, q)] for q in elems] for p in elems]


# ---------------------------------------------------------------------------
# the ring builders as dict-literal constructions, each giving the
# (dual, unit, multiplicities, names) that `ring_data` reads off a ring


def from_dict(n: int, data: dict) -> dict:
    """The dense `fraction_constants` of the n x n x n constants with
    value v at each (i, j, k): v of `data`, zero elsewhere; an index out
    of range raises `IndexError`."""
    return fraction_constants(mult_form(n, data))


def ring_data(ring: FusionRing) -> tuple:
    return ring.dual, ring.unit, multiplicities(ring), ring.names


def reference_trivial() -> tuple:
    return (0,), (0,), from_dict(1, {(0, 0, 0): 1}), ("0",)


def reference_cyclic(n: int) -> tuple:
    data = {(a, b, (a + b) % n): 1 for a in range(n) for b in range(n)}
    return (tuple((-a) % n for a in range(n)), (0,),
            from_dict(n, data), tuple(str(a) for a in range(n)))


def reference_fibonacci() -> tuple:
    data = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
            (1, 1, 0): 1, (1, 1, 1): 1}
    return (0, 1), (0,), from_dict(2, data), ("1", "tau")


def reference_direct_product(left: FusionRing, right: FusionRing,
                             names: tuple[str, ...] = ()) -> tuple:
    n1, n2 = left.rank, right.rank
    n = n1 + n2
    data: dict[tuple[int, int, int], Fraction] = {}
    for (a, b, c), v in multiplicities(left).items():
        data[(a, b, c)] = v
    for (a, b, c), v in multiplicities(right).items():
        data[(a + n1, b + n1, c + n1)] = v
    if not names:
        names = tuple(f"l:{s}" for s in left.names) + tuple(
            f"r:{s}" for s in right.names)
    return (tuple(left.dual) + tuple(d + n1 for d in right.dual),
            tuple(left.unit) + tuple(u + n1 for u in right.unit),
            from_dict(n, data), names)


def reference_restriction(ring: FusionRing, labels) -> tuple:
    """The sub-ring on `labels`, relabelled 0..k-1 in their order, for a
    dual-closed `labels` that holds a unit component."""
    labels = list(labels)
    pos = {a: i for i, a in enumerate(labels)}
    k = len(labels)
    data = {(pos[a], pos[b], pos[c]): v
            for (a, b, c), v in multiplicities(ring).items()
            if a in pos and b in pos and c in pos}
    return (tuple(pos[ring.dual[a]] for a in labels),
            tuple(sorted(pos[b] for b in ring.unit if b in pos)),
            from_dict(k, data),
            tuple(ring.names[a] for a in labels))


# ---------------------------------------------------------------------------
# the stock algebras of `tqft` as the dict-literal constructions they
# replaced, each giving the (names, constants, unit) `algebra_data` reads


def algebra_data(algebra) -> tuple:
    return algebra.names, fraction_constants(algebra.mult), algebra.unit


def reference_field_algebra() -> tuple:
    return ("1",), from_dict(1, {(0, 0, 0): 1}), (1,)


def reference_product_field_algebra(n: int) -> tuple:
    data = {(i, i, i): 1 for i in range(n)}
    return tuple(f"e{i}" for i in range(n)), from_dict(n, data), (1,) * n


def reference_group_algebra(table, names=()) -> tuple:
    n = len(table)
    identity, = (e for e in range(n)
                 if all(table[e][j] == j == table[j][e] for j in range(n)))
    data = {(i, j, table[i][j]): 1 for i in range(n) for j in range(n)}
    return (names or tuple(f"g{i}" for i in range(n)), from_dict(n, data),
            tuple(int(i == identity) for i in range(n)))


def reference_matrix_algebra(n: int) -> tuple:
    data = {(i * n + j, j * n + l, i * n + l): 1
            for i in range(n) for j in range(n) for l in range(n)}
    return (tuple(f"e{i}{j}" for i in range(n) for j in range(n)),
            from_dict(n * n, data),
            tuple(int(i == j) for i in range(n) for j in range(n)))


def reference_dual_numbers_algebra() -> tuple:
    data = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    return ("1", "x"), from_dict(2, data), (1, 0)


# ---------------------------------------------------------------------------
# associativity on sparse integer rows, one triple at a time


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


def associativity_by_triples(rows, partners) -> list[tuple[int, int, int]]:
    """Every (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), in the order
    i, j in partners[i], k in partners[j], on sparse integer rows as
    `integer_rows` builds them: both products summed afresh for every
    triple and compared without their zero entries."""
    empty: dict = {}
    failures = []
    for i, row in enumerate(rows):
        for j in partners[i]:
            for k in partners[j]:
                lhs: dict = {}
                for m, c in row.get(j, empty).items():
                    for t, v in rows[m].get(k, empty).items():
                        lhs[t] = lhs.get(t, 0) + c * v
                rhs: dict = {}
                for n, c in rows[j].get(k, empty).items():
                    for t, v in row.get(n, empty).items():
                        rhs[t] = rhs.get(t, 0) + c * v
                if ({t: v for t, v in lhs.items() if v}
                        != {t: v for t, v in rhs.items() if v}):
                    failures.append((i, j, k))
    return failures


def light_generators(rows) -> list[int]:
    """The generators S of Light's test on sparse integer rows, by their
    definition: each basis element, in order, that is not generated
    joins S, and then every product x s and s x of a generated x and an
    s in S is read again until none makes a new element (a single term
    c * e_m, c != 0, with e_m not yet generated).
    """
    gens: list[int] = []
    generated: set[int] = set()
    for b in range(len(rows)):
        if b in generated:
            continue
        gens.append(b)
        generated.add(b)
        grown = True
        while grown:
            grown = False
            for x, s in product(sorted(generated), gens):
                for combo in (rows[x].get(s, {}), rows[s].get(x, {})):
                    terms = [m for m, v in combo.items() if v]
                    if (len(combo) == 1 and terms
                            and terms[0] not in generated):
                        generated.add(terms[0])
                        grown = True
    return gens


# ---------------------------------------------------------------------------
# fusion-ring enumeration by trying every candidate tensor


def enumerate_by_exhaustion(rank: int, max_coeff: int) -> list[FusionRing]:
    """The rings of `enumerate_fusion_rings(rank, max_coeff)`, in its order.

    For every involution fixing 0, every assignment of 0..max_coeff to
    the symmetry orbits is built in full and kept when
    `associativity_by_triples` finds no failure on its `integer_rows`;
    the survivors are deduplicated, checked and ordered by the library's
    canonical key, as the search does.  No limit applies.
    """
    found: dict[tuple, FusionRing] = {}
    partners = [range(rank)] * rank
    for dual in _involutions_fixing_zero(rank):
        forced = _forced_entries(rank, dual)
        orbits = _symmetry_orbits(rank, dual)
        for values in product(range(max_coeff + 1), repeat=len(orbits)):
            N = dict(forced)
            for orbit, v in zip(orbits, values):
                for t in orbit:
                    N[t] = v
            rows, _ = integer_rows(rank, ((t, v) for t, v in N.items() if v))
            if associativity_by_triples(rows, partners):
                continue
            key = _canonical_key(rank, dual, N)
            if key in found:
                continue
            canon_dual, flat = key
            ring = FusionRing(dual=canon_dual, unit=(0,),
                              table=[[flat[(a * rank + b) * rank:
                                           (a * rank + b + 1) * rank]
                                      for b in range(rank)]
                                     for a in range(rank)])
            if verify_axioms(ring).ok:
                found[key] = ring
    return [found[key] for key in sorted(found)]


# ---------------------------------------------------------------------------
# category associativity by brute force over all basis triples


def _compose_combos(cat, left: dict, right: dict) -> dict:
    """Bilinear composite `left . right` of two basis combinations."""
    out: dict[str, Fraction] = {}
    for g, a in left.items():
        for f, b in right.items():
            for h, c in cat.compose_basis(g, f).items():
                out[h] = out.get(h, Fraction(0)) + a * b * c
    return {h: v for h, v in out.items() if v}


def associativity_failures(cat) -> set[tuple[str, str, str]]:
    """Every composable basis triple (h, g, f) with (hg)f != h(gf).

    Cubic in the number of basis morphisms; keep to a few dozen.
    """
    types = {b: pq for pq, basis in cat.hom_pairs() for b in basis}
    failures = set()
    for h in types:
        for g in types:
            for f in types:
                if types[f][1] != types[g][0] or types[g][1] != types[h][0]:
                    continue
                hm, gm, fm = ({b: Fraction(1)} for b in (h, g, f))
                lhs = _compose_combos(cat, _compose_combos(cat, hm, gm), fm)
                rhs = _compose_combos(cat, hm, _compose_combos(cat, gm, fm))
                if lhs != rhs:
                    failures.add((h, g, f))
    return failures


# ---------------------------------------------------------------------------
# Karoubi completion by Fraction sums over compose_basis


def _carved_coords(base, pivots, rows, names, m: dict) -> dict:
    """Coordinates of the base combination m in a carved row space.

    Raises ValueError when m does not rebuild from the rows.
    """
    coords = [m.get(base[p], Fraction(0)) for p in pivots]
    rebuilt = {b: sum((c * row[col] for c, row in zip(coords, rows)),
                      Fraction(0)) for col, b in enumerate(base)}
    if {b: v for b, v in rebuilt.items() if v} != m:
        raise ValueError("morphism escaped its carved-out hom subspace")
    return {name: c for name, c in zip(names, coords) if c}


def karoubi_idempotents(cat, obj, grid) -> list[tuple[Fraction, ...]]:
    """The coefficient tuples of End(obj) drawn from the distinct values
    of the grid, in ascending product order, whose `Fraction` composite
    e.e equals e; ValueError for an object cat does not have."""
    if obj not in cat.objects:
        raise ValueError(f"unknown base object {obj!r}")
    basis = cat.hom(obj, obj)
    found = []
    for combo in product(sorted({Fraction(c) for c in grid}),
                         repeat=len(basis)):
        e = {b: c for b, c in zip(basis, combo) if c}
        if _compose_combos(cat, e, e) == e:
            found.append(combo)
    return found


def karoubi_table(cat, grid, idempotents=None):
    """(objects, hom, table, identities) of the Karoubi completion of cat.

    The objects are the (object, coefficients) pairs of
    `karoubi_idempotents` on the grid, object by object (or the supplied
    pairs).  The hom space from (p, e) to (q, f) is the `gauss_jordan`
    row space of the images f.b.e of the basis of hom(p, q); a composite
    of two carved rows is read at the target's pivot columns and must
    rebuild from the target's rows, or ValueError is raised.  `hom` maps
    (source, target) names to the nonempty bases, `table` lists
    ((g, f), g.f) for the nonzero composites in basis order, and
    `identities` maps each object to the coordinates of its idempotent.
    """
    if idempotents is None:
        idempotents = [(obj, combo) for obj in cat.objects
                       for combo in karoubi_idempotents(cat, obj, grid)]
    pairs = [(obj, tuple(Fraction(c) for c in coeffs))
             for obj, coeffs in idempotents]
    objects = tuple(f"{obj}(" + ",".join(str(c) for c in coeffs) + ")"
                    for obj, coeffs in pairs)
    idems = [{b: c for b, c in zip(cat.hom(obj, obj), coeffs) if c}
             for obj, coeffs in pairs]

    corners = {}  # (i, j) -> (base, pivots, rows, names)
    for i, (p, _) in enumerate(pairs):
        for j, (q, _) in enumerate(pairs):
            base = cat.hom(p, q)
            images = [_compose_combos(cat, idems[j], _compose_combos(
                cat, {b: Fraction(1)}, idems[i])) for b in base]
            rows, pivots = gauss_jordan(
                [[m.get(b, Fraction(0)) for b in base] for m in images])
            names = tuple(f"{objects[i]}>{objects[j]}:{k}"
                          for k in range(len(rows)))
            corners[(i, j)] = (base, pivots, rows, names)

    hom = {(objects[i], objects[j]): c[3]
           for (i, j), c in corners.items() if c[3]}
    basis = [(i, j, k) for i in range(len(pairs)) for j in range(len(pairs))
             for k in range(len(corners[(i, j)][3]))]

    def row(i, j, k):
        base, _, rows, _ = corners[(i, j)]
        return {b: c for b, c in zip(base, rows[k]) if c}

    table = []
    for j, k, r in basis:
        for i, j2, s in basis:
            if j2 == j:
                composite = _compose_combos(cat, row(j, k, r), row(i, j, s))
                coords = _carved_coords(*corners[(i, k)], composite)
                if coords:
                    table.append(((corners[(j, k)][3][r],
                                   corners[(i, j)][3][s]), coords))
    identities = {objects[i]: _carved_coords(*corners[(i, i)], idems[i])
                  for i in range(len(pairs))}
    return objects, hom, table, identities


# ---------------------------------------------------------------------------
# trace form and separability equations by index loops


def trace_form_gram(algebra) -> list[list[Fraction]]:
    """T[i][j] = sum_bc m[i][c][b] m[j][b][c], one `Fraction` sum per entry."""
    n = algebra.dim
    m = fraction_constants(algebra.mult)
    return [[sum((m[i, c, b] * m[j, b, c] for b in range(n)
                  for c in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def separability_entries(algebra, e) -> tuple[list[str], int]:
    """(entries, equations checked) of the separability-idempotent check.

    The multiplication map is `naive_contract`; each commutation
    component (r, c, d) compares sum_a m[r][a][c] e[a][d] with
    sum_b e[c][b] m[b][r][d], both summed in `Fraction`.
    """
    n = algebra.dim
    if e.shape != (n, n):
        return [f"coefficient matrix is {e.shape}, expected {(n, n)}"], 0
    entries = []
    mu = naive_contract(algebra.mult, e.entries)
    if mu != algebra.unit:
        entries.append(f"multiplication map sends e to {mu}, "
                       f"expected the unit {algebra.unit}")
    m = fraction_constants(algebra.mult)
    for r in range(n):
        for c in range(n):
            for d in range(n):
                left = sum(m[r, a, c] * e[a, d] for a in range(n))
                right = sum(e[c, b] * m[b, r, d] for b in range(n))
                if left != right:
                    entries.append(
                        f"e does not commute with basis element {r}: "
                        f"component ({c},{d}) gives {left} != {right}")
    return entries, n + n ** 3


# ---------------------------------------------------------------------------
# textbook Gauss-Jordan elimination and tensor contraction over Fraction


def gauss_jordan(rows) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """Reduced row echelon form of a list of rows: (nonzero rows, pivots).

    Pivots on the first nonzero entry of each column, divides the pivot
    row by its pivot and clears the column above and below, all in
    `Fraction`.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    width = len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(m[i]) for i in range(len(pivots))], pivots


def gauss_jordan_rank(rows) -> int:
    return len(gauss_jordan(rows)[1])


def gauss_jordan_inverse(rows):
    """Inverse of a square list of rows, or None when it is singular."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    reduced, pivots = gauss_jordan(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def full_multiplier_eliminate(m: list, cols: int,
                              echelon: bool = False) -> tuple[list,
                                                              list[int]]:
    """The fraction-free elimination `exact._eliminate` replaced: each
    row b at a pivot a becomes a row - b pivot row over all columns,
    then divided by the gcd of its entries.  Same contract; the rows it
    stores are the ones `_eliminate` must store."""
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


def elimination_inverse(a, den: int):
    """(rank, form) for the square integer rows a over den: the integer
    form (rows, d) of (a / den)^-1, divided by its gcd, from one
    `full_multiplier_eliminate` of [a | den I], or None when the rank is
    short.  The inverse as `Matrix.inverse` computed it by elimination
    alone."""
    n = len(a)
    m, pivots = full_multiplier_eliminate(
        [list(row) + [den if i == j else 0 for j in range(n)]
         for i, row in enumerate(a)], 2 * n)
    rank = sum(1 for c in pivots if c < n)
    if rank < n:
        return rank, None
    d = lcm(*(m[i][i] for i in range(n)))
    rows = [[x * (d // m[i][i]) for x in m[i][n:]] for i in range(n)]
    g = gcd(d, *(x for row in rows for x in row))
    return rank, (tuple(tuple(x // g for x in row) for row in rows), d // g)


def echelon_rank(a, cols: int) -> int:
    """The rank of integer rows a of `cols` entries, from the echelon
    form of `full_multiplier_eliminate`, as `Matrix.rank` computed it
    by elimination alone."""
    return len(full_multiplier_eliminate(list(a), cols, echelon=True)[1])


def naive_combine_rows(vec, rows, width: int) -> tuple[int, ...]:
    """sum_d vec[d] * rows[d] over `width` columns by a plain double loop,
    zeros included."""
    out = [0] * width
    for d in range(len(rows)):
        for c in range(width):
            out[c] += vec[d] * rows[d][c]
    return tuple(out)


def naive_power_columns(a, max_exponent: int, column) -> list[tuple]:
    """a^e * column for e = 0 .. max_exponent, each one more
    matrix-vector product by a plain double loop, zeros included."""
    n = len(a)
    columns = [tuple(column)]
    for _ in range(max_exponent):
        t = columns[-1]
        columns.append(tuple(sum(a[i][j] * t[j] for j in range(n))
                             for i in range(n)))
    return columns


def naive_contract(mult, weights) -> tuple[Fraction, ...]:
    """z[k] = sum_ij w[i][j] m[i, j, k] by a plain loop over the
    `fraction_constants` m of mult = (planes, den)."""
    planes, _ = mult
    out = [Fraction(0)] * (len(planes[0][0]) if planes and planes[0] else 0)
    for (i, j, k), v in fraction_constants(mult).items():
        out[k] += Fraction(weights[i][j]) * v
    return tuple(out)


def fraction_matmul(a, b) -> list[list[Fraction]]:
    """a @ b by the textbook triple loop over `Fraction` entries."""
    (rows, inner), cols = a.shape, b.shape[1]
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for k in range(inner):
                out[i][j] += a[i, k] * b[k, j]
    return out


# ---------------------------------------------------------------------------
# Frobenius algebras: basis change and word evaluation over Fraction


def _times(algebra, x, y) -> list[Fraction]:
    n = algebra.dim
    m = fraction_constants(algebra.mult)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if x[i] and y[j] and m[i, j, k]:
                    out[k] += Fraction(x[i]) * y[j] * m[i, j, k]
    return out


def transport_by_products(algebra, p):
    """(mult, unit, counit) in the basis e'_i = sum_a p[a][i] e_a.

    Each product e'_i e'_j is formed in the old basis by a `Fraction`
    loop and carried back by the Gauss-Jordan inverse of p; mult is
    nested lists indexed [i][j][k].
    """
    n = algebra.dim
    pinv = gauss_jordan_inverse([list(p.row(a)) for a in range(n)])
    cols = [[p[a, i] for a in range(n)] for i in range(n)]

    def back(v):
        return [sum((pinv[k][c] * v[c] for c in range(n)), Fraction(0))
                for k in range(n)]

    mult = [[back(_times(algebra, cols[i], cols[j])) for j in range(n)]
            for i in range(n)]
    counit = [sum((c[a] * algebra.counit[a] for a in range(n)), Fraction(0))
              for c in cols]
    return mult, back(algebra.unit), counit


def fraction_random_invertible(dim: int, rng) -> list[list[Fraction]]:
    """L U from the draws `tqft.random_invertible` makes, in its order.

    L is unit lower-triangular over [-2, 2]; U is upper-triangular with
    its diagonal from {1, -1, 2} and a/b (|a| <= 2, b <= 2) above it;
    both are `Fraction` lists, multiplied by a triple loop.
    """
    lower = [[Fraction(1) if i == j
              else Fraction(rng.randint(-2, 2)) if i > j else Fraction(0)
              for j in range(dim)] for i in range(dim)]
    upper = [[Fraction(rng.choice([1, -1, 2])) if i == j
              else Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if i < j
              else Fraction(0)
              for j in range(dim)] for i in range(dim)]
    return [[sum((lower[i][k] * upper[k][j] for k in range(dim)),
                 Fraction(0)) for j in range(dim)] for i in range(dim)]


def genus_invariants(algebra, max_genus: int) -> list[Fraction]:
    """eps(w^g) for g = 0 .. max_genus, each power 1 w ... w formed by one
    more `Fraction` product on the right, w = sum_ij ginv[i][j] e_i e_j."""
    n = algebra.dim
    eps = algebra.counit
    m = fraction_constants(algebra.mult)
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pairing = [[sum(m[i, j, k] * eps[k] for k in range(n))
                for j in range(n)] for i in range(n)]
    ginv = gauss_jordan_inverse(pairing)
    handle = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            e_ij = _times(algebra, basis[i], basis[j])
            handle = [h + ginv[i][j] * c for h, c in zip(handle, e_ij)]
    power, values = list(algebra.unit), []
    for g in range(max_genus + 1):
        if g:
            power = _times(algebra, power, handle)
        values.append(sum((e * c for e, c in zip(eps, power)), Fraction(0)))
    return values


def fraction_word(algebra, word) -> dict[tuple[int, ...], Fraction]:
    """Nonzero coefficients of an evaluated word, keyed inputs first.

    The state is a dict of `Fraction`s; the cup is the Gauss-Jordan
    inverse of the pairing eps(e_i e_j), and the comultiplication of e_i
    is sum_pq ginv[p][q] e_p (x) e_q e_i.
    """
    n = algebra.dim
    eps = algebra.counit
    m = fraction_constants(algebra.mult)
    pairing = [[sum(m[i, j, k] * eps[k] for k in range(n))
                for j in range(n)] for i in range(n)]
    ginv = gauss_jordan_inverse(pairing)

    memo: dict = {}

    def action(gen, args):
        if (gen, args) not in memo:
            memo[gen, args] = {out: c for out, c in
                               expand(gen, args).items() if c}
        return memo[gen, args]

    def expand(gen, args):
        if gen in ("id", "swap"):
            return {args[::-1]: Fraction(1)}
        if gen == "mult":
            return {(k,): m[args + (k,)] for k in range(n)}
        if gen == "comult":
            return {(p, k): sum(ginv[p][q] * m[q, args[0], k]
                                for q in range(n))
                    for p in range(n) for k in range(n)}
        if gen == "unit":
            return {(k,): algebra.unit[k] for k in range(n)}
        if gen == "counit":
            return {(): eps[args[0]]}
        if gen == "cup":
            return {(i, j): ginv[i][j] for i in range(n) for j in range(n)}
        return {(): pairing[args[0]][args[1]]}  # cap

    arity = {"id": 1, "swap": 2, "mult": 2, "comult": 1, "unit": 0,
             "counit": 1, "cup": 0, "cap": 2}
    inputs = sum(arity[g] for g in word.layers[0]) if word.layers else 0
    state = {idx + idx: Fraction(1)
             for idx in product(range(n), repeat=inputs)}
    for layer in word.layers:
        new: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in state.items():
            partials = {key[:inputs]: coeff}
            pos = inputs
            for gen in layer:
                args = key[pos:pos + arity[gen]]
                pos += arity[gen]
                partials = {prefix + out: c * w
                            for prefix, c in partials.items()
                            for out, w in action(gen, args).items()}
            for full, value in partials.items():
                new[full] = new.get(full, Fraction(0)) + value
        state = new
    return {key: v for key, v in state.items() if v}


def invariance_entries(algebra, presentations):
    """(entries, checked) of an invariance suite over `presentations`, or
    None when the pairing is degenerate.

    `presentations` lists (name, genus, word) in the suite's order; each
    closed word is evaluated by `fraction_word` and compared with
    `genus_invariants`, and a random word's entry spells out its layers.
    The n(n-1)/2 pairs i < j of the pairing are compared first; at the
    first with eps(e_i e_j) != eps(e_j e_i) one entry names it, and the
    words with a swap are neither evaluated nor counted.
    """
    n = algebra.dim
    m = fraction_constants(algebra.mult)
    pairing = [[sum(m[i, j, k] * algebra.counit[k]
                    for k in range(n)) for j in range(n)] for i in range(n)]
    if gauss_jordan_inverse(pairing) is None:
        return None
    reference = genus_invariants(algebra,
                                 max(g for _, g, _ in presentations))
    entries = []
    skew = [(i, j) for i in range(n) for j in range(i + 1, n)
            if pairing[i][j] != pairing[j][i]]
    if skew:
        i, j = skew[0]
        entries.append(
            f"counit is not a trace: eps(e_{i} e_{j}) != eps(e_{j} e_{i})")
        presentations = [(name, genus, word)
                         for name, genus, word in presentations
                         if all("swap" not in layer for layer in word.layers)]
    for name, genus, word in presentations:
        got = fraction_word(algebra, word).get((), Fraction(0))
        want = reference[genus]
        if got == want:
            continue
        where = f"{name} at genus {genus}"
        if name.startswith("random"):
            layers = "; ".join(" ".join(layer) for layer in word.layers)
            where += f" ({layers})"
        against = ("handle formula gives" if name == "canonical word"
                   else "expected")
        entries.append(f"{where} evaluates to {got}, {against} {want}")
    return entries, n * (n - 1) // 2 + len(presentations)


# ---------------------------------------------------------------------------
# the text readers of `formats` as they were before each document was read
# in one pass: a `Fraction` per entry, `conftest.mult_form`, name-keyed
# composites, and a structural category error on the last line


def parent_lines(text: str):
    """(line number, tokens) of every line that holds a token."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _parent_int(token, source, line):
    from verlinde.formats import ParseError
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", source, line)


def _parent_fraction(token, source, line):
    from verlinde.formats import ParseError
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational p/q, got {token!r}",
                         source, line) from None


def _parent_index(token, bound, source, line):
    from verlinde.formats import SemanticError
    value = _parent_int(token, source, line)
    if not 0 <= value < bound:
        raise SemanticError(f"index {value} out of range 0..{bound - 1}",
                            source, line)
    return value


def _parent_arity(tokens, n, source, line):
    from verlinde.formats import ParseError
    if len(tokens) != n:
        raise ParseError(
            f"directive {tokens[0]!r} takes {n - 1} argument(s), "
            f"got {len(tokens) - 1}", source, line)


def _parent_header(entries, name, source):
    from verlinde.formats import SemanticError
    value = None
    for lineno, tokens in entries:
        if tokens[0] == name:
            if value is not None:
                raise SemanticError(f"duplicate {name} directive",
                                    source, lineno)
            _parent_arity(tokens, 2, source, lineno)
            value = _parent_int(tokens[1], source, lineno)
            if value < 1:
                raise SemanticError(f"{name} {value} must be >= 1",
                                    source, lineno)
    if value is None:
        raise SemanticError(f"missing {name}", source, 0)
    return value


def _parent_fusion(text, source):
    from verlinde.formats import ParseError, SemanticError
    entries = list(parent_lines(text))
    rank = _parent_header(entries, "rank", source)
    names, dual, unit, coeffs = {}, {}, None, {}
    for lineno, tokens in entries:
        head = tokens[0]
        if head == "rank":
            continue
        if head == "label":
            _parent_arity(tokens, 3, source, lineno)
            i = _parent_index(tokens[1], rank, source, lineno)
            if i in names:
                raise SemanticError(f"duplicate label entry for {i}",
                                    source, lineno)
            names[i] = tokens[2]
        elif head == "dual":
            _parent_arity(tokens, 3, source, lineno)
            i = _parent_index(tokens[1], rank, source, lineno)
            j = _parent_index(tokens[2], rank, source, lineno)
            if i in dual or j in dual:
                raise SemanticError(
                    f"duplicate dual entry for {i if i in dual else j}",
                    source, lineno)
            dual[i] = j
            dual[j] = i
        elif head == "unit":
            if unit is not None:
                raise SemanticError("duplicate unit directive", source, lineno)
            if len(tokens) < 2:
                raise ParseError("unit needs at least one label",
                                 source, lineno)
            parts = [_parent_index(t, rank, source, lineno)
                     for t in tokens[1:]]
            if len(set(parts)) != len(parts):
                raise SemanticError("repeated unit component", source, lineno)
            unit = tuple(sorted(parts))
        elif head == "N":
            _parent_arity(tokens, 5, source, lineno)
            a, b, c = (_parent_index(t, rank, source, lineno)
                       for t in tokens[1:4])
            m = _parent_int(tokens[4], source, lineno)
            if m < 0:
                raise SemanticError(f"negative coefficient {m}",
                                    source, lineno)
            if (a, b, c) in coeffs:
                raise SemanticError(f"duplicate N entry for ({a},{b},{c})",
                                    source, lineno)
            if m:
                coeffs[(a, b, c)] = m
        else:
            raise ParseError(f"unknown directive {head!r}", source, lineno)
    if unit is None:
        raise SemanticError("missing unit directive", source, 0)
    for i in range(rank):
        if i not in dual:
            raise SemanticError(f"dual not specified for label {i}",
                                source, 0)
    full_names = tuple(names.get(i, str(i)) for i in range(rank))
    if len(set(full_names)) != rank:
        raise SemanticError("label names are not distinct", source, 0)
    return FusionRing(dual=tuple(dual[i] for i in range(rank)), unit=unit,
                      table=[[[coeffs.get((a, b, c), 0) for c in range(rank)]
                              for b in range(rank)] for a in range(rank)],
                      names=full_names)


def _parent_algebra(text, source):
    from verlinde.formats import ParseError, SemanticError
    from verlinde.tqft import FrobeniusAlgebra
    entries = list(parent_lines(text))
    dim = _parent_header(entries, "dim", source)
    names, mult, unit, counit = {}, {}, {}, {}
    for lineno, tokens in entries:
        head = tokens[0]
        if head == "dim":
            continue
        if head == "basis":
            _parent_arity(tokens, 3, source, lineno)
            i = _parent_index(tokens[1], dim, source, lineno)
            if i in names:
                raise SemanticError(f"duplicate basis entry for {i}",
                                    source, lineno)
            names[i] = tokens[2]
        elif head == "mult":
            _parent_arity(tokens, 5, source, lineno)
            i, j, k = (_parent_index(t, dim, source, lineno)
                       for t in tokens[1:4])
            v = _parent_fraction(tokens[4], source, lineno)
            if (i, j, k) in mult:
                raise SemanticError(f"duplicate mult entry for ({i},{j},{k})",
                                    source, lineno)
            if v:
                mult[(i, j, k)] = v
        elif head in ("unit", "counit"):
            _parent_arity(tokens, 3, source, lineno)
            i = _parent_index(tokens[1], dim, source, lineno)
            v = _parent_fraction(tokens[2], source, lineno)
            store = unit if head == "unit" else counit
            if i in store:
                raise SemanticError(f"duplicate {head} entry for {i}",
                                    source, lineno)
            if v:
                store[i] = v
        else:
            raise ParseError(f"unknown directive {head!r}", source, lineno)
    return FrobeniusAlgebra(
        names=tuple(names.get(i, f"e{i}") for i in range(dim)),
        mult=mult_form(dim, mult),
        unit=tuple(unit.get(i, Fraction(0)) for i in range(dim)),
        counit=tuple(counit.get(i, Fraction(0)) for i in range(dim)))


def _parent_combination(tokens, source, lineno):
    from verlinde.formats import ParseError, SemanticError
    if tokens == ["0"]:
        return {}
    combo = {}
    expect_term = True
    for token in tokens:
        if token == "+":
            if expect_term:
                raise ParseError("misplaced '+' in combination",
                                 source, lineno)
            expect_term = True
            continue
        if not expect_term:
            raise ParseError(f"expected '+' before {token!r}", source, lineno)
        if "*" not in token:
            raise ParseError(
                f"expected coeff*name term, got {token!r}", source, lineno)
        coeff, name = token.split("*", 1)
        coeff = _parent_fraction(coeff, source, lineno)
        if name in combo:
            raise SemanticError(f"repeated term {name!r} in combination",
                                source, lineno)
        combo[name] = coeff
        expect_term = False
    if expect_term:
        raise ParseError("combination ends with '+'", source, lineno)
    return combo


def _parent_category(text, source):
    from verlinde.categories import CategoryFormatError, PresentedCategory
    from verlinde.formats import ParseError, SemanticError
    objects, hom, basis_seen = [], {}, set()
    compose, identities = {}, {}
    last_line = 0
    for lineno, tokens in parent_lines(text):
        last_line = lineno
        head = tokens[0]
        if head == "object":
            _parent_arity(tokens, 2, source, lineno)
            if tokens[1] in objects:
                raise SemanticError(f"duplicate object {tokens[1]!r}",
                                    source, lineno)
            objects.append(tokens[1])
        elif head == "hom":
            _parent_arity(tokens, 4, source, lineno)
            p, q, b = tokens[1], tokens[2], tokens[3]
            for obj in (p, q):
                if obj not in objects:
                    raise SemanticError(f"unknown object {obj!r}",
                                        source, lineno)
            if b in basis_seen:
                raise SemanticError(f"duplicate basis name {b!r}",
                                    source, lineno)
            basis_seen.add(b)
            hom.setdefault((p, q), []).append(b)
        elif head == "compose":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError(
                    "expected: compose <g> <f> = <combination>",
                    source, lineno)
            g, f = tokens[1], tokens[2]
            for b in (g, f):
                if b not in basis_seen:
                    raise SemanticError(f"unknown basis element {b!r}",
                                        source, lineno)
            if (g, f) in compose:
                raise SemanticError(f"duplicate compose entry ({g},{f})",
                                    source, lineno)
            compose[(g, f)] = _parent_combination(tokens[4:], source, lineno)
        elif head == "identity":
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError("expected: identity <p> = <combination>",
                                 source, lineno)
            p = tokens[1]
            if p not in objects:
                raise SemanticError(f"unknown object {p!r}", source, lineno)
            if p in identities:
                raise SemanticError(f"duplicate identity for {p!r}",
                                    source, lineno)
            identities[p] = _parent_combination(tokens[3:], source, lineno)
        else:
            raise ParseError(f"unknown directive {head!r}", source, lineno)
    if not objects:
        raise SemanticError("missing object directives", source, 0)
    try:
        return PresentedCategory(objects, hom, compose, identities)
    except CategoryFormatError as err:
        raise SemanticError(str(err), source, last_line) from err


def _parent_idempotent(text, source):
    from verlinde.exact import Matrix
    from verlinde.formats import ParseError, SemanticError
    entries = list(parent_lines(text))
    dim = _parent_header(entries, "dim", source)
    values = {}
    for lineno, tokens in entries:
        if tokens[0] == "dim":
            continue
        if tokens[0] != "e":
            raise ParseError(f"unknown directive {tokens[0]!r}",
                             source, lineno)
        _parent_arity(tokens, 4, source, lineno)
        i = _parent_index(tokens[1], dim, source, lineno)
        j = _parent_index(tokens[2], dim, source, lineno)
        if (i, j) in values:
            raise SemanticError(f"duplicate entry for ({i},{j})",
                                source, lineno)
        values[i, j] = _parent_fraction(tokens[3], source, lineno)
    return Matrix([[values.get((i, j), Fraction(0)) for j in range(dim)]
                   for i in range(dim)])


PARENT_READERS = {"fusion": _parent_fusion, "algebra": _parent_algebra,
                  "category": _parent_category,
                  "idempotent": _parent_idempotent}


def parent_parse(kind: str, text: str, source: str = "<input>"):
    """The payload the reader of `kind` gave before the one-pass readers,
    or its `ParseError`, for the kinds those readers rewrote."""
    return PARENT_READERS[kind](text, source)
