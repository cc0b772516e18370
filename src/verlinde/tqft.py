"""Frobenius algebras, closed-surface invariants, and cobordism words.

A finite dimensional algebra with unit u and counit functional eps is
Frobenius when the derived pairing g[i][j] = eps(e_i e_j) is
nondegenerate; the identity eps((ab)c) = eps(a(bc)) then makes the
pairing associative by construction.  Such an algebra evaluates any
closed oriented surface to an exact scalar: the genus-g invariant is
eps(w^g) for the handle element w = sum g^{ij} e_i e_j.

Cobordism words present surfaces as layered compositions of the eight
elementary generators (identity, swap, multiplication, comultiplication,
unit, counit, cup, cap); `evaluate_word` compiles a word into a fold of
exact tensor contractions, and closed words must reproduce the handle
formula.  Comultiplication is never user input: it is the adjoint of the
multiplication under the pairing.

The derived data (pairing, its inverse, comultiplication, handle
element) is computed once per `FrobeniusAlgebra` object and cached on
it, so no module-level table keeps an algebra alive.  Associativity is
checked by `exact.associativity_failures` on the integer-scaled
structure constants.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .categories import Algebra
from .exact import (Matrix, SingularMatrixError, Tensor3,
                    associativity_failures, integer_rows, rat)
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


@dataclass(frozen=True)
class FrobeniusAlgebra(Algebra):
    """A unital `Algebra` plus a counit functional eps.

    The pairing, its inverse, the comultiplication and the handle
    element are derived on first use and cached on the object, outside
    equality and hashing, so they are freed with it.  A degenerate
    pairing raises `DegeneratePairingError` on every request.
    """

    counit: tuple[Fraction, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "counit", tuple(rat(x) for x in self.counit))
        if len(self.counit) != self.dim:
            raise ValueError("counit vector length mismatch")

    @cached_property
    def _pairing(self) -> Matrix:
        n = self.dim
        return Matrix(
            [[sum(self.mult[i, j, k] * self.counit[k] for k in range(n))
              for j in range(n)] for i in range(n)])

    @cached_property
    def _pairing_inverse(self) -> Matrix:
        try:
            return self._pairing.inverse()
        except SingularMatrixError as err:
            raise DegeneratePairingError(
                f"derived pairing is singular (rank {err.rank} of "
                f"{self.dim})") from err

    @cached_property
    def _comult(self) -> Tensor3:
        n = self.dim
        ginv = self._pairing_inverse
        data = {}
        for i in range(n):
            for p in range(n):
                for k in range(n):
                    v = sum(ginv[p, q] * self.mult[q, i, k] for q in range(n))
                    if v:
                        data[(i, p, k)] = v
        return Tensor3.from_dict((n, n, n), data)

    @cached_property
    def _handle(self) -> tuple[Fraction, ...]:
        return self.mult.contract(self._pairing_inverse.entries)


def multiply_elements(algebra: Algebra, x, y) -> tuple[Fraction, ...]:
    """x y: the structure constants contracted with the outer product."""
    zero = (0,) * len(y)
    return algebra.mult.contract(
        [[a * b if b else 0 for b in y] if a else zero for a in x])


def apply_counit(algebra: FrobeniusAlgebra, x) -> Fraction:
    return sum(a * b for a, b in zip(algebra.counit, x))


def pairing_matrix(algebra: FrobeniusAlgebra) -> Matrix:
    """Derived pairing g[i][j] = eps(e_i e_j)."""
    return algebra._pairing


def comultiplication_tensor(algebra: FrobeniusAlgebra) -> Tensor3:
    """D[i][p][k]: coefficient of e_p (x) e_k in the coproduct of e_i.

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
    n = algebra.dim
    basis = [tuple(Fraction(int(j == i)) for j in range(n))
             for i in range(n)]
    products = algebra.mult.entries  # products[i][j] is e_i e_j

    rows, _ = integer_rows(n, algebra.mult.nonzero())
    for i, j, k in associativity_failures(rows, [range(n)] * n):
        lhs = multiply_elements(algebra, products[i][j], basis[k])
        rhs = multiply_elements(algebra, basis[i], products[j][k])
        report.fail(f"associativity at (e_{i} e_{j}) e_{k}: {lhs} != {rhs}")
        if apply_counit(algebra, lhs) != apply_counit(algebra, rhs):
            report.fail(
                f"pairing invariance at (e_{i} e_{j}, e_{k}): "
                "eps((ab)c) != eps(a(bc))")

    for i in range(n):
        left = multiply_elements(algebra, algebra.unit, basis[i])
        right = multiply_elements(algebra, basis[i], algebra.unit)
        if left != basis[i]:
            report.fail(f"unit law: 1 * e_{i} = {left}")
        if right != basis[i]:
            report.fail(f"unit law: e_{i} * 1 = {right}")

    g = pairing_matrix(algebra)
    r = g.rank()
    if r != n:
        report.fail(
            f"pairing eps(e_i e_j) is degenerate: rank {r} of {n}")
    report.checked = 2 * n ** 3 + 2 * n + 1
    return report


def handle_element(algebra: FrobeniusAlgebra) -> tuple[Fraction, ...]:
    """w = sum_{ij} g^{ij} e_i e_j; its counit powers give the invariants."""
    return algebra._handle


def genus_invariant(algebra: FrobeniusAlgebra, genus: int) -> Fraction:
    """Closed-surface invariant eps(w^genus); genus 0 gives eps(1)."""
    if genus < 0:
        raise ValueError(f"negative genus {genus}")
    power = algebra.unit
    w = None
    for _ in range(genus):
        if w is None:
            w = handle_element(algebra)
        power = multiply_elements(algebra, power, w)
    return apply_counit(algebra, power)


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


def _generator_action(algebra: FrobeniusAlgebra, gen: str, args):
    """Expand one generator applied to concrete input indices."""
    n = algebra.dim
    if gen == "id":
        return [((args[0],), Fraction(1))]
    if gen == "swap":
        return [((args[1], args[0]), Fraction(1))]
    if gen == "mult":
        i, j = args
        return [((k,), algebra.mult[i, j, k]) for k in range(n)
                if algebra.mult[i, j, k]]
    if gen == "comult":
        (i,) = args
        d = algebra._comult
        return [((p, k), d[i, p, k]) for p in range(n) for k in range(n)
                if d[i, p, k]]
    if gen == "unit":
        return [((k,), algebra.unit[k]) for k in range(n) if algebra.unit[k]]
    if gen == "counit":
        (i,) = args
        return [((), algebra.counit[i])] if algebra.counit[i] else []
    if gen == "cup":
        ginv = algebra._pairing_inverse
        return [((i, j), ginv[i, j]) for i in range(n) for j in range(n)
                if ginv[i, j]]
    if gen == "cap":
        i, j = args
        g = algebra._pairing
        return [((), g[i, j])] if g[i, j] else []
    raise WordTypeError(f"unknown generator {gen!r}")


def evaluate_word(algebra: FrobeniusAlgebra, word: CobordismWord):
    """Evaluate a word to a scalar (closed) or a WordTensor (open).

    The state after each layer is the sparse coefficient table of a
    tensor whose legs are the word's input strands (frozen) followed by
    the current working strands; a layer acts by contracting each
    generator against its consecutive working strands.  A closed word
    collapses to a single exact scalar.
    """
    inputs, outputs = word.signature()
    n = algebra.dim
    state: dict[tuple[int, ...], Fraction] = {
        idx + idx: Fraction(1)
        for idx in itertools.product(range(n), repeat=inputs)}
    for layer in word.layers:
        new_state: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in state.items():
            frozen = key[:inputs]
            working = key[inputs:]
            partials = [((), coeff)]
            pos = 0
            for gen in layer:
                n_in = GENERATORS[gen][0]
                args = working[pos:pos + n_in]
                pos += n_in
                expansion = _generator_action(algebra, gen, args)
                partials = [(prefix + out, c * w)
                            for prefix, c in partials
                            for out, w in expansion]
            for out_key, value in partials:
                full = frozen + out_key
                total = new_state.get(full, Fraction(0)) + value
                if total:
                    new_state[full] = total
                elif full in new_state:
                    del new_state[full]
        state = new_state
    if (inputs, outputs) == (0, 0):
        return state.get((), Fraction(0))
    return WordTensor(inputs=inputs, outputs=outputs,
                      entries=tuple(sorted(state.items())))


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
    return words


# ---------------------------------------------------------------------------
# invariance checks


def random_invertible(dim: int, rng: random.Random) -> Matrix:
    """Random rational invertible matrix, built as unit-triangular L * U."""
    lower = [[Fraction(1) if i == j
              else Fraction(rng.randint(-2, 2)) if i > j else Fraction(0)
              for j in range(dim)] for i in range(dim)]
    upper = [[Fraction(rng.choice([1, -1, 2])) if i == j
              else Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if i < j
              else Fraction(0)
              for j in range(dim)] for i in range(dim)]
    return Matrix(lower) @ Matrix(upper)


def transport_basis(algebra: FrobeniusAlgebra, p: Matrix) -> FrobeniusAlgebra:
    """The same algebra written in the basis e'_i = sum_a p[a][i] e_a."""
    n = algebra.dim
    if p.shape != (n, n):
        raise ValueError(f"basis change must be {n}x{n}")
    pinv = p.inverse()
    pt = p.transpose()
    cols = pt.entries
    data = {}
    for i in range(n):
        for j in range(n):
            # product e'_i e'_j in the old basis
            old = multiply_elements(algebra, cols[i], cols[j])
            for k, v in enumerate(pinv.apply(old)):
                if v:
                    data[(i, j, k)] = v
    return FrobeniusAlgebra(
        names=tuple(f"b{i}" for i in range(n)),
        mult=Tensor3.from_dict((n, n, n), data),
        unit=pinv.apply(algebra.unit),
        counit=pt.apply(algebra.counit))


def invariance_suite(algebra: FrobeniusAlgebra, trials: int = 20,
                     seed: int = 0, max_genus: int = 3) -> Report:
    """Invariance of the surface invariants under presentation choices.

    (i) conjugating all structure tensors by random invertible rational
    basis changes leaves every genus invariant unchanged; (ii) distinct
    arity-valid words for the same genus evaluate to the same scalar.
    Exact equality throughout.  `checked` counts the invariants and
    word values compared with the handle formula.
    """
    report = Report("invariance suite")
    rng = random.Random(seed)
    reference = [genus_invariant(algebra, g) for g in range(max_genus + 1)]

    for t in range(trials):
        p = random_invertible(algebra.dim, rng)
        moved = transport_basis(algebra, p)
        for g in range(max_genus + 1):
            got = genus_invariant(moved, g)
            if got != reference[g]:
                report.fail(
                    f"basis change {t}: genus {g} invariant {got} != "
                    f"{reference[g]}")

    report.checked = trials * (max_genus + 1)
    for g in range(max_genus + 1):
        words = alternate_genus_words(g)
        report.checked += 1 + len(words)
        canonical = evaluate_word(algebra, canonical_genus_word(g))
        if canonical != reference[g]:
            report.fail(
                f"canonical word at genus {g} evaluates to {canonical}, "
                f"handle formula gives {reference[g]}")
        for k, word in enumerate(words):
            got = evaluate_word(algebra, word)
            if got != reference[g]:
                report.fail(
                    f"alternate word {k} at genus {g} evaluates to {got}, "
                    f"expected {reference[g]}")
    return report


# ---------------------------------------------------------------------------
# from fusion rings


def frobenius_from_fusion(ring: FusionRing) -> FrobeniusAlgebra:
    """Fusion coefficients as a Frobenius algebra over the rationals.

    The counit indicates the unit components; the derived pairing is the
    involution's permutation matrix, so a degenerate pairing signals a
    fusion-axiom failure and raises DegeneratePairingError.
    """
    n = ring.rank
    algebra = FrobeniusAlgebra(
        names=ring.names,
        mult=Tensor3.from_dict(
            (n, n, n), {idx: v for idx, v in ring.coeffs.nonzero()}),
        unit=tuple(Fraction(int(a in ring.unit)) for a in range(n)),
        counit=tuple(Fraction(int(a in ring.unit)) for a in range(n)))
    algebra._pairing_inverse  # raises DegeneratePairingError if singular
    return algebra
