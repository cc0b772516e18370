"""Input documents for the benchmark, written by the benchmark itself.

Rings, algebras, categories and matrices are held here as plain Python
data (dicts of exact coefficients) and written out in `verlinde`'s text
formats.  The oracles read the same plain data, so no answer is ever
checked against anything the library computed or parsed.  Nothing in
this module imports `verlinde`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# fusion rings


@dataclass(frozen=True)
class Block:
    """One unit-component block and the closed form that governs it.

    ``kind`` is "cyclic" (Z/n: label ``labels[i]`` is the residue i),
    "fib" (``labels`` = (one, tau)) or "table" (no closed form: the
    oracles fall back to brute-force convolution).
    """

    kind: str
    labels: tuple[int, ...]


@dataclass(frozen=True)
class Ring:
    """Fusion-ring data: label names, involution, unit, N[a, b, c]."""

    names: tuple[str, ...]
    dual: tuple[int, ...]
    unit: tuple[int, ...]
    N: dict = field(hash=False, compare=False)
    blocks: tuple[Block, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.dual)

    def n(self, a: int, b: int, c: int) -> int:
        return self.N.get((a, b, c), 0)

    def text(self) -> str:
        lines = [f"rank {self.rank}"]
        lines += [f"label {i} {name}" for i, name in enumerate(self.names)]
        lines += [f"dual {i} {d}" for i, d in enumerate(self.dual) if i <= d]
        lines.append("unit " + " ".join(map(str, self.unit)))
        lines += [f"N {a} {b} {c} {v}"
                  for (a, b, c), v in sorted(self.N.items()) if v]
        return "\n".join(lines) + "\n"

    def relabel(self, perm) -> "Ring":
        """The same ring with label a renamed perm[a] (names move along)."""
        names = [""] * self.rank
        dual = [0] * self.rank
        for a in range(self.rank):
            names[perm[a]] = self.names[a]
            dual[perm[a]] = perm[self.dual[a]]
        return Ring(
            names=tuple(names), dual=tuple(dual),
            unit=tuple(sorted(perm[u] for u in self.unit)),
            N={(perm[a], perm[b], perm[c]): v
               for (a, b, c), v in self.N.items()},
            blocks=tuple(Block(b.kind, tuple(perm[a] for a in b.labels))
                         for b in self.blocks))

    def shuffled(self, rng: random.Random) -> "Ring":
        perm = list(range(self.rank))
        rng.shuffle(perm)
        return self.relabel(perm)

    def block_of(self, label: int) -> Block:
        return next(b for b in self.blocks if label in b.labels)


def direct_sum(*rings: Ring) -> Ring:
    """Block sum: disjoint label sets, products across summands vanish."""
    names, dual, unit, N, blocks = [], [], [], {}, []
    offset = 0
    for k, ring in enumerate(rings):
        names += [f"{chr(97 + k)}.{s}" for s in ring.names]
        dual += [d + offset for d in ring.dual]
        unit += [u + offset for u in ring.unit]
        N.update({(a + offset, b + offset, c + offset): v
                  for (a, b, c), v in ring.N.items()})
        blocks += [Block(b.kind, tuple(a + offset for a in b.labels))
                   for b in ring.blocks]
        offset += ring.rank
    return Ring(tuple(names), tuple(dual), tuple(sorted(unit)), N,
                tuple(blocks))


def cyclic(n: int) -> Ring:
    return Ring(names=tuple(f"r{a}" for a in range(n)),
                dual=tuple((-a) % n for a in range(n)), unit=(0,),
                N={(a, b, (a + b) % n): 1 for a in range(n)
                   for b in range(n)},
                blocks=(Block("cyclic", tuple(range(n))),))


def fibonacci() -> Ring:
    return Ring(names=("1", "tau"), dual=(0, 1), unit=(0,),
                N={(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1,
                   (1, 1, 1): 1},
                blocks=(Block("fib", (0, 1)),))


def toy_ring() -> Ring:
    """Rank-3 ring that is not commutative: N[1,2,1] = 1, N[2,1,.] = 0.

    Both non-unit labels are self-dual and the unit law holds, so the
    ring passes the shape checks but fails the axioms.  Folded in the
    order (1, 2, 1) the product contains the unit once; folded in sorted
    order (1, 1, 2) it does not.
    """
    N = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1,
         (2, 0, 2): 1, (1, 1, 0): 1, (2, 2, 0): 1, (1, 2, 1): 1}
    return Ring(names=("1", "x", "y"), dual=(0, 1, 2), unit=(0,), N=N,
                blocks=(Block("table", (0, 1, 2)),))


def perturbed(ring: Ring, rng: random.Random) -> Ring:
    """The ring with one non-unit coefficient raised by one."""
    a = rng.choice([x for x in range(ring.rank) if x not in ring.unit])
    b = rng.choice([x for x in range(ring.rank) if x not in ring.unit])
    c = rng.randrange(ring.rank)
    N = dict(ring.N)
    N[(a, b, c)] = N.get((a, b, c), 0) + 1
    return Ring(ring.names, ring.dual, ring.unit, N, ring.blocks)


def parse_ring(text: str, blocks: tuple[Block, ...]) -> Ring:
    """Read a `.fusion` text; ``blocks`` says what the ring is known to be."""
    names, dual, unit, N = {}, {}, (), {}
    rank = 0
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "rank":
            rank = int(tok[1])
        elif tok[0] == "label":
            names[int(tok[1])] = tok[2]
        elif tok[0] == "dual":
            i, j = int(tok[1]), int(tok[2])
            dual[i], dual[j] = j, i
        elif tok[0] == "unit":
            unit = tuple(sorted(int(t) for t in tok[1:]))
        elif tok[0] == "N":
            N[(int(tok[1]), int(tok[2]), int(tok[3]))] = int(tok[4])
    return Ring(tuple(names.get(i, str(i)) for i in range(rank)),
                tuple(dual[i] for i in range(rank)), unit, N, blocks)


# What each corpus ring is, for the closed forms.  `check_blocks` in the
# oracle module confirms every claim against the coefficients.
CORPUS_RINGS = {
    "trivial.fusion": (Block("cyclic", (0,)),),
    "z2.fusion": (Block("cyclic", (0, 1)),),
    "z3.fusion": (Block("cyclic", (0, 1, 2)),),
    "fib.fusion": (Block("fib", (0, 1)),),
    "s3rep.fusion": (Block("table", (0, 1, 2)),),
    "fib_x_z2.fusion": (Block("fib", (0, 1)), Block("cyclic", (2, 3))),
}


def corpus_text(root: Path, name: str) -> str:
    return (root / "src" / "verlinde" / "corpus" / name).read_text(
        encoding="utf-8")


# ---------------------------------------------------------------------------
# algebras and one-object categories


@dataclass(frozen=True)
class Alg:
    """Structure constants mult[i, j, k] (e_i e_j = sum_k ... e_k).

    ``closed`` names the closed form of the genus invariants:
    ("group", |G|), ("matrix", k), ("product", lambdas), ("fusion", ring)
    or ("dual-numbers",).
    """

    names: tuple[str, ...]
    mult: dict = field(hash=False, compare=False)
    unit: tuple
    counit: tuple
    closed: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.names)

    def text(self) -> str:
        lines = [f"dim {self.dim}"]
        lines += [f"basis {i} {name}" for i, name in enumerate(self.names)]
        lines += [f"mult {i} {j} {k} {v}"
                  for (i, j, k), v in sorted(self.mult.items()) if v]
        lines += [f"unit {i} {v}" for i, v in enumerate(self.unit) if v]
        lines += [f"counit {i} {v}" for i, v in enumerate(self.counit) if v]
        return "\n".join(lines) + "\n"

    def category_text(self, obj: str = "x", prefix: str = "") -> str:
        """The algebra as a one-object category (compose g f = g f)."""
        b = [prefix + name for name in self.names]
        lines = [f"object {obj}"] + [f"hom {obj} {obj} {x}" for x in b]
        for i in range(self.dim):
            for j in range(self.dim):
                terms = [f"{self.mult[(i, j, k)]}*{b[k]}"
                         for k in range(self.dim) if self.mult.get((i, j, k))]
                if terms:
                    lines.append(f"compose {b[i]} {b[j]} = "
                                 + " + ".join(terms))
        unit = [f"{u}*{b[k]}" for k, u in enumerate(self.unit) if u]
        lines.append(f"identity {obj} = " + " + ".join(unit))
        return "\n".join(lines) + "\n"


def group_alg(table) -> Alg:
    n = len(table)
    e = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    return Alg(tuple(f"g{i}" for i in range(n)),
               {(i, j, table[i][j]): Fraction(1)
                for i in range(n) for j in range(n)},
               tuple(Fraction(int(i == e)) for i in range(n)),
               tuple(Fraction(int(i == e)) for i in range(n)),
               ("group", n))


def cyclic_group(n: int) -> Alg:
    return group_alg([[(i + j) % n for j in range(n)] for i in range(n)])


def s3_group() -> Alg:
    elems = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    return group_alg([[index[tuple(p[q[i]] for i in range(3))]
                       for q in elems] for p in elems])


def matrix_alg(k: int) -> Alg:
    """Matrix units e_ij (row-major) with the trace as counit."""
    def idx(i, j):
        return i * k + j
    mult = {(idx(i, j), idx(j, l), idx(i, l)): Fraction(1)
            for i in range(k) for j in range(k) for l in range(k)}
    diag = tuple(Fraction(int(i == j)) for i in range(k) for j in range(k))
    return Alg(tuple(f"e{i}{j}" for i in range(k) for j in range(k)),
               mult, diag, diag, ("matrix", k))


def product_alg(lambdas) -> Alg:
    """k^m with componentwise product and counit e_i -> lambda_i."""
    m = len(lambdas)
    lambdas = tuple(Fraction(x) for x in lambdas)
    return Alg(tuple(f"e{i}" for i in range(m)),
               {(i, i, i): Fraction(1) for i in range(m)},
               tuple(Fraction(1) for _ in range(m)), lambdas,
               ("product", lambdas))


def dual_numbers() -> Alg:
    """k[x]/(x^2) with eps(x) = 1: handle element 2x, invariants 0, 2, 0..."""
    return Alg(("1", "x"),
               {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(1),
                (1, 0, 1): Fraction(1)},
               (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
               ("dual-numbers",))


def fusion_alg(ring: Ring) -> Alg:
    """What frobenius_from_fusion should build: counit = unit indicator."""
    ind = tuple(Fraction(int(a in ring.unit)) for a in range(ring.rank))
    return Alg(ring.names, {k: Fraction(v) for k, v in ring.N.items() if v},
               ind, ind, ("fusion", ring))


CORPUS_ALGEBRAS = {
    "fib.algebra": lambda: fusion_alg(fibonacci()),
    "mat2.algebra": lambda: matrix_alg(2),
    "z2group.algebra": lambda: cyclic_group(2),
    "z3group.algebra": lambda: cyclic_group(3),
    "ksquared.algebra": lambda: product_alg((1, 1)),
    "ground.algebra": lambda: product_alg((1,)),
    "dual_numbers.algebra": dual_numbers,
}


def parse_category_algebra(text: str) -> tuple[str, Alg]:
    """Read a one-object `.category` text back into structure constants."""
    basis, compose, identity, obj = [], [], {}, ""
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "object":
            obj = tok[1]
        elif tok[0] == "hom":
            basis.append(tok[3])
        elif tok[0] == "compose":
            compose.append((tok[1], tok[2], _combination(tok[4:])))
        elif tok[0] == "identity":
            identity = _combination(tok[3:])
    index = {b: i for i, b in enumerate(basis)}
    mult = {(index[g], index[f], index[h]): c
            for g, f, combo in compose for h, c in combo.items()}
    unit = tuple(identity.get(b, Fraction(0)) for b in basis)
    return obj, Alg(tuple(basis), mult, unit, unit)


def _combination(tokens) -> dict:
    if tokens == ["0"]:
        return {}
    out = {}
    for t in tokens:
        if t != "+":
            c, name = t.split("*", 1)
            out[name] = Fraction(c)
    return out


# ---------------------------------------------------------------------------
# matrices, words and separability elements


def _scaled_triangular(d: int, rng: random.Random, lower: bool):
    """6 * (unit-triangular matrix with entries k/q, |k| <= 3, q <= 3)."""
    return [[6 if i == j
             else rng.randint(-3, 3) * (6 // rng.randint(1, 3))
             if (i > j) == lower else 0
             for j in range(d)] for i in range(d)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def invertible(d: int, rng: random.Random):
    """L * U with rational unit-triangular L and U: determinant 1."""
    lower = _scaled_triangular(d, rng, True)
    upper = _scaled_triangular(d, rng, False)
    return [[Fraction(v, 36) for v in row] for row in matmul(lower, upper)]


def of_rank(d: int, r: int, rng: random.Random):
    """L * diag(1^r, 0^(d-r)) * U: rank exactly r."""
    lower = [row[:r] + [0] * (d - r)
             for row in _scaled_triangular(d, rng, True)]
    upper = _scaled_triangular(d, rng, False)
    return [[Fraction(v, 36) for v in row] for row in matmul(lower, upper)]


def matrix_text(rows) -> str:
    lines = [f"dim {len(rows)}"]
    lines += [f"e {i} {j} {v}" for i, row in enumerate(rows)
              for j, v in enumerate(row) if v]
    return "\n".join(lines) + "\n"


def word_text(layers) -> str:
    return "".join(" ".join(layer) + "\n" for layer in layers)


def canonical_word(genus: int):
    return [("unit",)] + [("comult",), ("mult",)] * genus + [("counit",)]


def alternate_words(genus: int):
    """Identity padding, and swapped handle legs: same surface."""
    padded = [("unit",), ("id",)]
    swapped = [("unit",)]
    for _ in range(genus):
        padded += [("comult",), ("id", "id"), ("mult",)]
        swapped += [("comult",), ("swap",), ("mult",)]
    return [padded + [("counit",)], swapped + [("counit",)]]


def wide_word(strands: int):
    """Split one strand into k parallel strands, then merge: genus k - 1."""
    layers = [("unit",)]
    for s in range(1, strands):
        layers.append(("comult",) + ("id",) * (s - 1))
    for s in range(strands, 1, -1):
        layers.append(("mult",) + ("id",) * (s - 2))
    return layers + [("counit",)]


def separability_element(alg: Alg, normalised: bool = True):
    """Coefficient matrix of the separability idempotent of a stock algebra.

    Group algebras: (1/|G|) sum_g g (x) g^-1.  M_k: (1/k) sum e_ij (x)
    e_ji, or without the 1/k when ``normalised`` is false.  k^m:
    sum e_i (x) e_i.
    """
    n = alg.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    kind = alg.closed[0]
    if kind == "group":
        e = alg.unit.index(1)
        for i in range(n):
            j = next(j for j in range(n) if alg.mult.get((i, j, e)))
            rows[i][j] = Fraction(1, n)
    elif kind == "matrix":
        k = alg.closed[1]
        scale = Fraction(1, k) if normalised else Fraction(1)
        for i in range(k):
            for j in range(k):
                rows[i * k + j][j * k + i] = scale
    elif kind == "product":
        for i in range(n):
            rows[i][i] = Fraction(1)
    else:
        raise ValueError(f"no separability element for {kind}")
    return rows


def parse_algebra(text: str) -> Alg:
    """Read an `.algebra` text into structure constants, unit and counit."""
    dim, names, mult, unit, counit = 0, {}, {}, {}, {}
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "dim":
            dim = int(tok[1])
        elif tok[0] == "basis":
            names[int(tok[1])] = tok[2]
        elif tok[0] == "mult":
            mult[(int(tok[1]), int(tok[2]), int(tok[3]))] = Fraction(tok[4])
        elif tok[0] in ("unit", "counit"):
            (unit if tok[0] == "unit" else counit)[int(tok[1])] = Fraction(
                tok[2])
    return Alg(tuple(names.get(i, f"e{i}") for i in range(dim)), mult,
               tuple(unit.get(i, Fraction(0)) for i in range(dim)),
               tuple(counit.get(i, Fraction(0)) for i in range(dim)))


def same_structure(a: Alg, b: Alg) -> bool:
    strip = {k: v for k, v in a.mult.items() if v}
    return (strip == {k: v for k, v in b.mult.items() if v}
            and a.unit == b.unit and a.counit == b.counit)
