"""Coloured-surface dimension counts, twist data, and the modular report.

A coloured surface is a connected oriented surface of genus g whose
boundary circles carry labels of a fusion ring (all boundary incoming;
an outgoing circle of colour a is recorded as incoming dual(a)).  The
dimension assigned to it is the multiplicity of the unit in the total
fusion product

    Q_{s1} * ... * Q_{sm} * w^g,   w = sum_a Q_{dual(a)} * Q_a,

summed over unit components.  The gluing law, invariance under
reordering, and the disjoint-union product law are then theorems about
valid rings, checked empirically by `verify_gluing_consistency`.
Surfaces, twists and the modular report with its entries are frozen
`report.Record`s, compared, hashed and printed by their fields.

Surfaces are evaluated with integer right-multiplication operators read
from `ring.table`: colour c acts as R_c, whose row d is d * c, and the
handle as R_h, whose row d is d * h.  Both maps are linear on every
ring, valid or not, and matrix products associate, so every number here
is the in-order colour product dotted with R_h^g * column
(`exact.power_apply`, O(n^3 log g) big-integer products for rank n):
chi, the unit indicator, for a unit multiplicity and e_dual(c) for
capping colour c.  The gluing check builds t_g = R_h^g * chi once per
genus per call, so a reordering costs its colour steps and one dot
product and a split one row combination plus O(n^2); it reduces the
genus at O(g * n^4) per trial.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache
from operator import mul

from .exact import combine_rows, power_apply
from .fusion import (FusionRing, block_decomposition, product_vector,
                     restrict_to_labels, verify_axioms)
from .report import Record, Report, _set_field, _shown

__all__ = [
    "ColouredSurface",
    "Twist",
    "TwistData",
    "TwistFormatError",
    "BlockSummary",
    "SurfaceEntry",
    "ModularReport",
    "dim_V",
    "dim_V_disjoint",
    "handle_vector",
    "verify_gluing_consistency",
    "check_nontriviality",
    "validate_twists",
    "modular_report",
    "render_report_text",
    "render_report_machine",
]


class ColouredSurface(Record):
    """Genus plus boundary colouring; empty boundary means a closed surface."""

    def __init__(self, genus: int, boundary: tuple[int, ...] = ()):
        if genus < 0:
            raise ValueError(f"negative genus {genus}")
        _set_field(self, "genus", genus)
        _set_field(self, "boundary", tuple(boundary))


def handle_vector(ring: FusionRing) -> tuple[int, ...]:
    """The genus-adding vector: sum over labels of Q_dual(a) * Q_a.

    The ring computes it once, at construction (`FusionRing.handle`).
    """
    return ring.handle


def _handle_squares(ring: FusionRing, genus: int) -> list:
    """The `power_apply` squares of R_h, whose row d is d * h: [R_h],
    or [] at genus 0, so that genus 0 does no n^3 work."""
    if not genus:
        return []
    return [tuple(combine_rows(ring.handle, plane) for plane in ring.table)]


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def _dim(ring: FusionRing, genus: int, colours, squares: list) -> int:
    """The unit multiplicity of colours * h^genus, folded in order."""
    return _dot(product_vector(ring, colours),
                power_apply(squares, genus, ring.unit_vector()))


def dim_V(ring: FusionRing, surface: ColouredSurface) -> int:
    """Dimension of the space attached to a coloured surface.

    The colours are folded in the given boundary order, then the
    handles.  For rings that pass `verify_axioms` the order is
    immaterial; for rings that fail them the in-order product is the
    answer.  The g handles cost O(n^3 log g) big-integer products at
    rank n, through repeated squaring of the handle operator R_h.
    Nothing is memoised: each call folds afresh, and the ring is kept
    alive by no table of this module.  A colour out of range raises
    `ValueError`.
    """
    genus = surface.genus
    return _dim(ring, genus, surface.boundary, _handle_squares(ring, genus))


def dim_V_disjoint(ring: FusionRing, surfaces) -> int:
    """Dimension for a disjoint union of surfaces: the product of parts."""
    return math.prod(dim_V(ring, s) for s in surfaces)


def check_nontriviality(ring: FusionRing) -> bool:
    """Whether the sphere space is nonzero: some unit component is self-dual."""
    return any(ring.dual[b] in ring.unit for b in ring.unit)


# ---------------------------------------------------------------------------
# gluing consistency


def _pair(vec, ops, right, dual) -> tuple[int, ...]:
    """vec * sum_a R_dual(a) O_1 ... O_k R_a, for the operators `ops`."""
    total = [0] * len(right)
    for a, ra in enumerate(right):
        v = combine_rows(vec, right[dual[a]])
        for op in ops:
            v = combine_rows(v, op)
        for c, x in enumerate(combine_rows(v, ra)):
            total[c] += x
    return tuple(total)


def _pair_operators(ring: FusionRing):
    """The colour operators R_a, whose row d is d * a, and the operator
    E = sum_a R_dual(a) R_a of a pair with nothing inside."""
    right = ring._colour_operators
    empty = tuple(_pair(ring.basis_vector(d), (), right, ring.dual)
                  for d in range(ring.rank))
    return right, empty


def _eval_by_gluing(ring: FusionRing, genus: int, colours: tuple[int, ...],
                    rng: random.Random, operators=None) -> int:
    """Genus reduction with one random insertion position per handle.

    Handle k inserts a pair (dual(a), a), summed over the label a, at a
    position drawn in the sequence built so far, so a later pair may land
    inside an earlier one; no colour ever does.  A pair around the
    segment S contributes sum_a R_dual(a) S R_a.  `operators` is
    `_pair_operators(ring)`, built here when not given.  A pair with
    nothing inside is one row combination with E; a pair around others
    costs rank folds on the vector, and as an inner matrix O(n^4) more.
    """
    tokens = list(colours)
    for _ in range(genus):
        pos = rng.randrange(len(tokens) + 1)
        tokens[pos:pos] = ("(", ")")
    stack: list[list] = [[]]
    for t in tokens:
        if t == "(":
            stack.append([])
        elif t == ")":
            inner = stack.pop()
            stack[-1].append(inner)
        else:
            stack[-1].append(t)

    right, empty = operators or _pair_operators(ring)

    def pair(vec, ops):
        if not ops:
            return combine_rows(vec, empty)
        return _pair(vec, ops, right, ring.dual)

    def operator(inner):
        """The matrix of a pair around the pairs `inner`."""
        if not inner:
            return empty
        ops = [operator(x) for x in inner]
        return [pair(ring.basis_vector(d), ops) for d in range(ring.rank)]

    vec = ring.unit_vector()
    for item in stack[0]:
        if isinstance(item, list):
            vec = pair(vec, [operator(x) for x in item])
        else:
            vec = combine_rows(vec, right[item])
    return _dot(vec, ring.unit_vector())


def verify_gluing_consistency(ring: FusionRing, surface: ColouredSurface,
                              trials: int = 8, seed: int = 0) -> Report:
    """Re-evaluate dim_V along several distinct recursion orders.

    Checked against the canonical value: boundary reorderings, genus
    reductions with varying insertion positions, capping off single
    boundary colours through the involution, and random two-part splits
    glued back along one circle (the disjoint-union law combined with
    one gluing).  Any disagreement indicates a fusion-axiom failure
    upstream and is reported with both values.  `checked` counts the
    re-evaluations compared with the canonical value.

    The call builds the squares of R_h once, and from them, once per
    genus g it meets, the unit functional t_g = R_h^g * chi, so the
    unit multiplicity of x * R_h^g is the dot product x . t_g.  At
    rank n with m colours, the reference and each reordering cost the
    m colour steps of `product_vector` and one dot product.  Each
    genus reduction draws one insertion position per handle and costs
    O(g * n^4) at genus g, from colour operators and an empty-pair
    operator built once per call.  Capping colour c dots the others
    with R_h^g * e_dual(c).  Each side of a split costs its
    colour steps, one row combination with the n^3 structure constants
    and n dot products of length n, not n complete folds.
    """
    if trials < 0:
        raise ValueError(f"trials {trials} must be >= 0")
    report = Report("gluing consistency")
    rng = random.Random(seed)
    genus, colours = surface.genus, tuple(surface.boundary)
    n, dual = ring.rank, ring.dual
    squares = _handle_squares(ring, genus)

    @cache
    def unit_functional(g):
        return power_apply(squares, g, ring.unit_vector())

    reference = _dot(product_vector(ring, colours), unit_functional(genus))

    for t in range(trials):
        shuffled = list(colours)
        rng.shuffle(shuffled)
        got = _dot(product_vector(ring, shuffled), unit_functional(genus))
        if got != reference:
            report.fail(
                f"boundary order {tuple(shuffled)} gives {got}, "
                f"canonical order gives {reference}")

    if genus > 0 and trials:
        operators = _pair_operators(ring)
        for t in range(trials):
            got = _eval_by_gluing(ring, genus, colours, rng, operators)
            if got != reference:
                report.fail(
                    f"genus-reduction schedule {t} gives {got}, "
                    f"direct evaluation gives {reference}")

    for k, c in enumerate(colours):
        got = _dot(product_vector(ring, colours[:k] + colours[k + 1:]),
                   power_apply(squares, genus, ring.basis_vector(dual[c])))
        if got != reference:
            report.fail(
                f"capping boundary {k} (colour {colours[k]}) gives {got}, "
                f"direct evaluation gives {reference}")

    # row d of `flat` is plane d of the table, so x combined with it is
    # x * a for every label a, side by side
    flat = [tuple(c for fibre in plane for c in fibre) for plane in ring.table]

    def side(g, labels):
        """Unit multiplicity of labels * a * h^g for every label a."""
        y = combine_rows(product_vector(ring, labels), flat)
        t_g = unit_functional(g)
        return [_dot(y[a * n:a * n + n], t_g) for a in range(n)]

    for t in range(trials):
        g1 = rng.randint(0, genus)
        keep = [rng.random() < 0.5 for _ in colours]
        s1 = tuple(c for c, k in zip(colours, keep) if k)
        s2 = tuple(c for c, k in zip(colours, keep) if not k)
        u1, u2 = side(g1, s1), side(genus - g1, s2)
        glued = sum(u1[dual[a]] * u2[a] for a in range(n))
        if glued != reference:
            report.fail(
                f"split (genus {g1}+{genus - g1}, boundaries {s1}|{s2}) "
                f"glued along one circle gives {glued}, direct evaluation "
                f"gives {reference}")
    report.checked = (3 if genus else 2) * trials + len(colours)
    return report


# ---------------------------------------------------------------------------
# twist data


class TwistFormatError(ValueError):
    """Malformed twist value (zero scalar or bad root-of-unity token)."""


class Twist(Record):
    """An exact twist scalar: a nonzero rational or a root of unity.

    Roots of unity are opaque tokens exp(2*pi*i * exponent/order),
    canonicalised so equality is decidable: the fraction exponent/order
    is reduced, and the real cases (1 and -1) collapse to rationals.
    """

    def __init__(self, rational: Fraction | None = None, order: int = 0,
                 exponent: int = 0):
        _set_field(self, "rational", rational)
        _set_field(self, "order", order)
        _set_field(self, "exponent", exponent)

    @classmethod
    def one(cls) -> "Twist":
        return cls.from_rational(Fraction(1))

    @classmethod
    def from_rational(cls, value: Fraction) -> "Twist":
        if value == 0:
            raise TwistFormatError("twist scalar must be nonzero")
        return cls(rational=Fraction(value))

    @classmethod
    def root_of_unity(cls, order: int, exponent: int) -> "Twist":
        if order <= 0:
            raise TwistFormatError(
                f"root-of-unity order {_shown(order)} must be >= 1")
        exponent %= order
        g = math.gcd(exponent, order) or order
        order, exponent = order // g, exponent // g
        if exponent == 0:
            return cls.from_rational(Fraction(1))
        if (order, exponent) == (2, 1):
            return cls.from_rational(Fraction(-1))
        return cls(rational=None, order=order, exponent=exponent)

    def is_one(self) -> bool:
        return self.rational == 1


class TwistData(Record):
    """One twist scalar per label; unlisted labels default to 1."""

    def __init__(self, values: tuple[Twist, ...]):
        _set_field(self, "values", values)

    @classmethod
    def from_mapping(cls, rank: int, mapping: dict[int, Twist]) -> "TwistData":
        for a in mapping:
            if not 0 <= a < rank:
                raise ValueError(f"twist label {a} out of range for {rank}")
        return cls(tuple(mapping.get(a, Twist.one()) for a in range(rank)))


def validate_twists(ring: FusionRing, twists: TwistData) -> Report:
    """Check the two paper constraints: units twist by 1, duals twist alike.

    `checked` counts the length test and one equation per unit and label.
    """
    report = Report("twist data")
    report.checked = 1
    if len(twists.values) != ring.rank:
        report.fail(
            f"{len(twists.values)} twist values for rank {ring.rank}")
        return report
    report.checked += len(ring.unit) + ring.rank
    for b in ring.unit:
        if not twists.values[b].is_one():
            report.fail(
                f"unit component {b} has twist {twists.values[b]} != 1")
    for a in range(ring.rank):
        if twists.values[a] != twists.values[ring.dual[a]]:
            report.fail(
                f"twist of {a} is {twists.values[a]} but its dual "
                f"{ring.dual[a]} has {twists.values[ring.dual[a]]}")
    return report


# ---------------------------------------------------------------------------
# the modular report


class BlockSummary(Record):
    def __init__(self, labels: tuple[int, ...], unit_component: int,
                 nontrivial: bool, torus_dim: int):
        _set_field(self, "labels", labels)
        _set_field(self, "unit_component", unit_component)
        _set_field(self, "nontrivial", nontrivial)
        _set_field(self, "torus_dim", torus_dim)


class SurfaceEntry(Record):
    def __init__(self, name: str, surface: ColouredSurface, total: int,
                 per_block: tuple[int, ...]):
        _set_field(self, "name", name)
        _set_field(self, "surface", surface)
        _set_field(self, "total", total)
        _set_field(self, "per_block", per_block)


class ModularReport(Record):
    def __init__(self, rank: int, r: int, blocks: tuple[BlockSummary, ...],
                 functor_count: int, torus_dim: int,
                 surfaces: tuple[SurfaceEntry, ...],
                 twist_report: Report | None, axiom_report: Report):
        _set_field(self, "rank", rank)
        _set_field(self, "r", r)
        _set_field(self, "blocks", blocks)
        _set_field(self, "functor_count", functor_count)
        _set_field(self, "torus_dim", torus_dim)
        _set_field(self, "surfaces", surfaces)
        _set_field(self, "twist_report", twist_report)
        _set_field(self, "axiom_report", axiom_report)


def modular_report(ring: FusionRing, twists: TwistData | None = None,
                   surfaces: dict[str, ColouredSurface] | None = None
                   ) -> ModularReport:
    """Assemble the block structure, non-triviality, and dimension table.

    The theory is a direct product over unit-component blocks, so
    dimensions are reported per block; the total over the whole ring is
    their sum.  The number of modular functors the ring determines is
    the number of non-trivial blocks (equivalently the sphere
    dimension).
    """
    axiom_report = verify_axioms(ring)
    blocks_raw = block_decomposition(ring)
    subrings = [restrict_to_labels(ring, block) for block in blocks_raw]
    # the squares of R_h of each ring, built once for all its surfaces
    sub_squares = [_handle_squares(sub, 1) for sub in subrings]
    squares = _handle_squares(ring, 1)

    summaries = []
    for block, sub, beta, sq in zip(blocks_raw, subrings, ring.unit,
                                    sub_squares):
        summaries.append(BlockSummary(
            labels=tuple(block),
            unit_component=beta,
            nontrivial=check_nontriviality(sub),
            torus_dim=_dim(sub, 1, (), sq)))

    entries = []
    for name in sorted(surfaces or {}):
        surf = (surfaces or {})[name]
        per_block = []
        for block, sub, sq in zip(blocks_raw, subrings, sub_squares):
            if all(c in block for c in surf.boundary):
                relabel = {a: i for i, a in enumerate(block)}
                per_block.append(_dim(
                    sub, surf.genus, [relabel[c] for c in surf.boundary], sq))
            else:
                per_block.append(0)
        entries.append(SurfaceEntry(
            name=name, surface=surf,
            total=_dim(ring, surf.genus, surf.boundary, squares),
            per_block=tuple(per_block)))

    return ModularReport(
        rank=ring.rank,
        r=len(ring.unit),
        blocks=tuple(summaries),
        functor_count=sum(1 for s in summaries if s.nontrivial),
        torus_dim=_dim(ring, 1, (), squares),
        surfaces=tuple(entries),
        twist_report=(validate_twists(ring, twists)
                      if twists is not None else None),
        axiom_report=axiom_report)


def render_report_text(rep: ModularReport) -> str:
    lines = [f"fusion ring of rank {rep.rank} with {rep.r} unit component(s)"]
    lines.append(rep.axiom_report.render())
    for i, b in enumerate(rep.blocks):
        state = "non-trivial" if b.nontrivial else "trivial"
        labels = " ".join(str(a) for a in b.labels)
        lines.append(
            f"block {i}: unit {b.unit_component}, labels {{{labels}}}, "
            f"{state}, torus dim {b.torus_dim}")
    lines.append(f"torus dim (whole ring) = {rep.torus_dim}")
    lines.append(f"modular functors determined = {rep.functor_count}")
    for e in rep.surfaces:
        per = " ".join(str(d) for d in e.per_block)
        boundary = "".join(f" {c}" for c in e.surface.boundary)
        lines.append(
            f"dim V({e.name}: genus {e.surface.genus} "
            f"boundary{boundary}) = {e.total} (per block: {per})")
    if rep.twist_report is not None:
        lines.append(rep.twist_report.render())
    return "\n".join(lines)


def render_report_machine(rep: ModularReport) -> str:
    lines = [
        f"ring.rank = {rep.rank}",
        f"ring.unit_components = {rep.r}",
        f"ring.axioms_ok = {str(rep.axiom_report.ok).lower()}",
    ]
    for i, b in enumerate(rep.blocks):
        labels = " ".join(str(a) for a in b.labels)
        lines.append(f"block.{i}.labels = {labels}")
        lines.append(f"block.{i}.unit = {b.unit_component}")
        lines.append(f"block.{i}.nontrivial = {str(b.nontrivial).lower()}")
        lines.append(f"block.{i}.torus_dim = {b.torus_dim}")
    lines.append(f"torus_dim = {rep.torus_dim}")
    lines.append(f"functors = {rep.functor_count}")
    for e in rep.surfaces:
        lines.append(f"surface.{e.name}.dim = {e.total}")
        per = " ".join(str(d) for d in e.per_block)
        lines.append(f"surface.{e.name}.per_block = {per}")
    if rep.twist_report is not None:
        lines.append(f"twists_ok = {str(rep.twist_report.ok).lower()}")
    return "\n".join(lines)
