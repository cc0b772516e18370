"""Fusion ring axioms, block structure, pairing, and enumeration."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import CORPUS_RINGS, load, ring_table, toy_ring
from oracles import (S3_CHARACTER_TABLE, S3_CLASS_SIZES, Z2_CHARACTER_TABLE,
                     Z2_CLASS_SIZES, brute_force_product,
                     enumerate_by_exhaustion, frobenius_pairing_entries,
                     fusion_axiom_entries, fusion_from_characters,
                     multiplicities, naive_contract, reference_cyclic,
                     reference_direct_product, reference_fibonacci,
                     reference_restriction, reference_trivial, ring_data)
import verlinde
from verlinde import categories, fusion
from verlinde.exact import DimensionMismatchError
from verlinde.formats import serialize
from verlinde.fusion import (MAX_ENUMERATION_CANDIDATES, BlockStructureError,
                             FusionRing, block_decomposition, cyclic_ring,
                             direct_product, dual_vector,
                             enumerate_fusion_rings, fibonacci_ring,
                             inner_product, multiply, product_vector,
                             restrict_to_labels, trivial_ring,
                             verify_axioms, verify_frobenius_pairing)
from verlinde.report import SearchTooLargeError


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_corpus_rings_pass_axioms(name, monkeypatch):
    # the element product is used only to write the entry of a failure
    def no_product(*args):
        raise AssertionError("multiply called")

    monkeypatch.setattr(fusion, "multiply", no_product)
    assert verify_axioms(load(name)).ok


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_unit_is_two_sided_identity(name):
    ring = load(name)
    unit = ring.unit_vector()
    for a in range(ring.rank):
        e = ring.basis_vector(a)
        assert multiply(ring, unit, e) == e
        assert multiply(ring, e, unit) == e


def test_z2_and_fibonacci_products_match_enumeration_oracle():
    # the rank-2 enumeration is the origin of these two rings
    enumerated = enumerate_fusion_rings(2, 1)
    assert len(enumerated) == 2
    by_selfcoeff = {r.n(1, 1, 1): r for r in enumerated}
    z2 = load("z2.fusion")
    fib = load("fib.fusion")
    assert by_selfcoeff[0].table == z2.table
    assert by_selfcoeff[1].table == fib.table
    assert multiply(z2, z2.basis_vector(1), z2.basis_vector(1)) == (1, 0)
    assert multiply(fib, fib.basis_vector(1), fib.basis_vector(1)) == (1, 1)


def test_s3_representation_ring_matches_character_oracle():
    oracle = fusion_from_characters(S3_CLASS_SIZES, S3_CHARACTER_TABLE,
                                    ("triv", "sign", "std"))
    assert load("s3rep.fusion") == oracle


def test_z2_ring_matches_character_oracle():
    oracle = fusion_from_characters(Z2_CLASS_SIZES, Z2_CHARACTER_TABLE,
                                    ("0", "1"))
    assert load("z2.fusion").table == oracle.table


def test_z3_ring_is_group_ring_with_inverse_dual():
    ring = load("z3.fusion")
    assert ring.dual == (0, 2, 1)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert ring.n(a, b, c) == int((a + b) % 3 == c)


def test_fibonacci_variant_with_doubled_self_coefficient_is_still_a_ring():
    # tau * tau = 1 + 2 tau presents Z[x]/(x^2 - 2x - 1): associative,
    # so no rank-2 tweak of this single entry can break associativity
    variant = FusionRing(dual=(0, 1), unit=(0,),
                         table=ring_table(fibonacci_ring(), {(1, 1, 1): 2}))
    assert verify_axioms(variant).ok


def test_broken_associativity_is_reported_with_indices():
    broken = FusionRing(dual=(0, 2, 1), unit=(0,),
                        table=ring_table(cyclic_ring(3), {(1, 1, 2): 2}))
    report = verify_axioms(broken)
    assert not report.ok
    assert any("associativity at (a,b,c,e)=(1,1,2,1)" in e
               for e in report.entries)


def test_non_involution_dual_is_reported():
    ring = FusionRing(dual=(1, 2, 0), unit=(0,),
                      table=cyclic_ring(3).table)
    report = verify_axioms(ring)
    assert any("involution" in e for e in report.entries)


def test_forced_identity_dual_breaks_frobenius_symmetry():
    z3 = cyclic_ring(3)
    broken = FusionRing(dual=(0, 1, 2), unit=(0,), table=z3.table)
    report = verify_axioms(broken)
    assert any("frobenius symmetry" in e for e in report.entries)
    pairing = verify_frobenius_pairing(broken)
    assert not pairing.ok


def test_block_decomposition_fibonacci_single_block():
    assert block_decomposition(fibonacci_ring()) == [[0, 1]]


def test_block_decomposition_product_ring():
    ring = load("fib_x_z2.fusion")
    blocks = block_decomposition(ring)
    assert blocks == [[0, 1], [2, 3]]
    # cross-block products vanish
    for a in blocks[0]:
        for b in blocks[1]:
            assert multiply(ring, ring.basis_vector(a),
                            ring.basis_vector(b)) == (0, 0, 0, 0)


def test_block_decomposition_rejects_inconsistent_ring():
    product = load("fib_x_z2.fusion")
    # drop one unit component: its block's labels land in no block
    bad = FusionRing(dual=product.dual, unit=(0,), table=product.table)
    with pytest.raises(BlockStructureError, match="lies in 0 blocks"):
        block_decomposition(bad)


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_dual_vector_is_an_involution(name):
    ring = load(name)
    rng = random.Random(11)
    for _ in range(20):
        x = tuple(rng.randrange(4) for _ in range(ring.rank))
        assert dual_vector(ring, dual_vector(ring, x)) == x


def test_dual_vector_on_z3():
    z3 = cyclic_ring(3)
    assert dual_vector(z3, z3.basis_vector(1)) == z3.basis_vector(2)


def test_dual_of_unit_vector_is_supported_on_dual_components():
    ring = load("fib_x_z2.fusion")
    dualled = dual_vector(ring, ring.unit_vector())
    expected = [0] * ring.rank
    for b in ring.unit:
        expected[ring.dual[b]] = 1
    assert dualled == tuple(expected)


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_inner_product_of_basis_vectors_is_dual_delta(name):
    ring = load(name)
    for a in range(ring.rank):
        for b in range(ring.rank):
            got = inner_product(ring, ring.basis_vector(a),
                                ring.basis_vector(b))
            assert got == int(ring.dual[a] == b)


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_inner_product_symmetry_and_frobenius_adjunction(name):
    ring = load(name)
    rng = random.Random(7)
    for _ in range(100):
        x = tuple(rng.randrange(3) for _ in range(ring.rank))
        y = tuple(rng.randrange(3) for _ in range(ring.rank))
        z = tuple(rng.randrange(3) for _ in range(ring.rank))
        assert inner_product(ring, x, y) == inner_product(ring, y, x)
        assert (inner_product(ring, x, multiply(ring, y, z))
                == inner_product(ring, multiply(ring, x, y), z))


def test_multiply_checks_vector_lengths():
    fib = load("fib.fusion")
    for x, y, lengths in (((0, 1, 7), (0, 1), "3 and 2"),
                          ((0, 1), (1,), "2 and 1")):
        with pytest.raises(DimensionMismatchError, match=lengths):
            multiply(fib, x, y)


def test_inner_product_checks_vector_lengths():
    fib = load("fib.fusion")
    for x, y, lengths in (((0, 1, 5), (0, 1, 3), "3 and 3"),
                          ((0, 1), (1,), "2 and 1")):
        with pytest.raises(DimensionMismatchError, match=lengths):
            inner_product(fib, x, y)


def test_dual_vector_checks_vector_length():
    z3 = cyclic_ring(3)
    for x in ((0, 1, 0, 4), (0, 1)):
        with pytest.raises(DimensionMismatchError,
                           match=f"length {len(x)} for a ring of rank 3"):
            dual_vector(z3, x)


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_frobenius_pairing_report_empty(name):
    assert verify_frobenius_pairing(load(name)).ok


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_frobenius_index_map_orbit_closes(name):
    ring = load(name)
    dual = ring.dual

    def step(t):
        a, b, c = t
        return (dual[c], a, dual[b])

    for a in range(ring.rank):
        for b in range(ring.rank):
            for c in range(ring.rank):
                t = (a, b, c)
                value = ring.n(*t)
                s = t
                for _ in range(6):
                    s = step(s)
                    assert ring.n(*s) == value
                assert s == t


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_multiply_is_associative_and_commutative(name):
    ring = load(name)
    rng = random.Random(3)
    for _ in range(25):
        x = tuple(rng.randrange(3) for _ in range(ring.rank))
        y = tuple(rng.randrange(3) for _ in range(ring.rank))
        z = tuple(rng.randrange(3) for _ in range(ring.rank))
        assert multiply(ring, x, y) == multiply(ring, y, x)
        assert (multiply(ring, multiply(ring, x, y), z)
                == multiply(ring, x, multiply(ring, y, z)))


def test_product_vector_folds_from_unit():
    fib = fibonacci_ring()
    assert product_vector(fib, ()) == fib.unit_vector()
    assert product_vector(fib, (1, 1)) == (1, 1)


@pytest.mark.parametrize("name", CORPUS_RINGS + ("toy",))
def test_product_vector_matches_dictionary_convolution(name):
    ring = toy_ring() if name == "toy" else load(name)
    rng = random.Random(5)
    for length in range(6):
        for _ in range(10):
            labels = tuple(rng.randrange(ring.rank) for _ in range(length))
            assert product_vector(ring, labels) == brute_force_product(
                ring, labels)


def test_colour_operators_and_unit_vector_are_kept_once_outside_equality():
    from verlinde.surfaces import _pair_operators
    parsed = [load(name) for name in CORPUS_RINGS]
    enumerated = enumerate_fusion_rings(3, 1)
    # parsing builds neither, and enumeration no colour operator (its
    # axiom checks read the unit vector)
    assert not any({"_colour_operators", "_unit_vector"} & set(vars(ring))
                   for ring in parsed)
    assert not any("_colour_operators" in vars(ring) for ring in enumerated)
    for ring in parsed + enumerated:
        twin = FusionRing(ring.dual, ring.unit, ring.table, ring.names)
        ops = ring._colour_operators
        assert ops == tuple(tuple(plane[a] for plane in ring.table)
                            for a in range(ring.rank))
        assert ring.unit_vector() == tuple(int(a in ring.unit)
                                           for a in range(ring.rank))
        assert ring.unit_vector() is ring.unit_vector()
        assert _pair_operators(ring)[0] is ops
        assert (twin, hash(twin), repr(twin)) == (ring, hash(ring),
                                                  repr(ring))


@pytest.mark.parametrize("label", [2, 5, -1])
def test_out_of_range_labels_are_rejected(label):
    fib = fibonacci_ring()
    with pytest.raises(ValueError, match=f"label {label} out of range"):
        fib.basis_vector(label)
    with pytest.raises(ValueError, match=f"label {label} out of range"):
        product_vector(fib, (1, label))


def test_direct_product_is_blockwise():
    ring = direct_product(fibonacci_ring(), cyclic_ring(2))
    assert ring.rank == 4
    assert ring.unit == (0, 2)
    assert verify_axioms(ring).ok


def test_enumerate_rank_one_gives_only_trivial():
    rings = enumerate_fusion_rings(1, 3)
    assert len(rings) == 1
    assert rings[0].table == trivial_ring().table


def test_enumerate_rank_two_maxcoeff_zero_gives_only_z2():
    rings = enumerate_fusion_rings(2, 0)
    assert len(rings) == 1
    assert rings[0].table == cyclic_ring(2).table


def test_enumerate_rank_three_recovers_the_classical_theories():
    rings = enumerate_fusion_rings(3, 1)
    assert len(rings) == 5
    tables = [r.table for r in rings]
    assert cyclic_ring(3).table in tables
    assert load("s3rep.fusion").table in tables
    ising = FusionRing(dual=(0, 1, 2), unit=(0,), table=ring_table(
        3, {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1,
            (1, 0, 1): 1, (1, 1, 0): 1, (1, 2, 2): 1,
            (2, 0, 2): 1, (2, 1, 2): 1, (2, 2, 0): 1, (2, 2, 1): 1}))
    assert ising.table in tables


def test_block_restrictions_reassemble_the_product_ring():
    ring = load("fib_x_z2.fusion")
    blocks = block_decomposition(ring)
    parts = [restrict_to_labels(ring, block) for block in blocks]
    rebuilt = direct_product(parts[0], parts[1], names=ring.names)
    assert rebuilt == ring


def test_enumerate_is_deterministic():
    first = enumerate_fusion_rings(3, 1)
    second = enumerate_fusion_rings(3, 1)
    assert first == second
    assert all(verify_axioms(r).ok for r in first)
    # the search imposes every axiom itself and does not check its rings
    for rank, max_coeff in ((2, 6), (3, 3), (4, 2), (5, 1)):
        assert all(verify_axioms(r).ok
                   for r in enumerate_fusion_rings(rank, max_coeff))


def test_enumerate_guard_rails(monkeypatch):
    # both are refused by their estimate before any involution is set up
    def tripped(n, dual):
        raise AssertionError(f"search started for dual {dual}")

    monkeypatch.setattr(fusion, "_symmetry_orbits", tripped)
    limit = f"MAX_ENUMERATION_CANDIDATES = {MAX_ENUMERATION_CANDIDATES}"
    for rank, max_coeff, candidates in ((5, 2, 34867844010),
                                        (12, 0, 35696)):
        _, work = fusion._enumeration_estimate(rank, max_coeff)
        with pytest.raises(SearchTooLargeError) as err:
            enumerate_fusion_rings(rank, max_coeff)
        assert str(err.value) == (
            f"enumerating rank {rank} with max_coeff {max_coeff} would try "
            f"{candidates} candidate tensors, an estimated {work} steps, "
            f"more than {limit}")
    # one class, shared with the Karoubi and Mat searches
    assert issubclass(SearchTooLargeError, ValueError)
    assert SearchTooLargeError is categories.SearchTooLargeError
    assert SearchTooLargeError is verlinde.SearchTooLargeError
    for rank, max_coeff in ((0, 1), (-2, 0), (2, -1)):
        with pytest.raises(ValueError, match="must be >= "):
            enumerate_fusion_rings(rank, max_coeff)


def test_enumerate_limit_is_inclusive(monkeypatch):
    _, work = fusion._enumeration_estimate(3, 1)
    monkeypatch.setattr(fusion, "MAX_ENUMERATION_CANDIDATES", work)
    assert len(enumerate_fusion_rings(3, 1)) == 5
    monkeypatch.setattr(fusion, "MAX_ENUMERATION_CANDIDATES", work - 1)
    with pytest.raises(SearchTooLargeError, match=f"{work} steps"):
        enumerate_fusion_rings(3, 1)


@pytest.mark.parametrize("rank", range(1, 7))
def test_enumeration_estimate_counts_the_candidates(rank):
    # the closed form against the involutions and orbits the search uses
    sizes = [len(fusion._symmetry_orbits(rank, dual))
             for dual in fusion._involutions_fixing_zero(rank)]
    for max_coeff in range(3):
        candidates, work = fusion._enumeration_estimate(rank, max_coeff)
        assert candidates == sum((max_coeff + 1) ** k for k in sizes)
        assert work >= candidates


@pytest.mark.parametrize("rank, max_coeff", [
    (1, 0), (1, 1), (1, 2), (1, 3),
    (2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
    (3, 0), (3, 1), (3, 2), (3, 3),
    (4, 1),
])
def test_enumerate_equals_the_exhaustive_oracle(rank, max_coeff):
    def texts(rings):
        return [serialize("fusion", r) for r in rings]

    assert texts(enumerate_fusion_rings(rank, max_coeff)) == texts(
        enumerate_by_exhaustion(rank, max_coeff))


def test_ring_construction_rejects_bad_data():
    with pytest.raises(ValueError):
        FusionRing(dual=(0, 1), unit=(), table=ring_table(2))
    with pytest.raises(ValueError):
        FusionRing(dual=(0,), unit=(0,), table=ring_table(2))
    with pytest.raises(ValueError):
        FusionRing(dual=(0, 1), unit=(0,),
                   table=ring_table(2, {(0, 0, 0): -1}))


@pytest.mark.parametrize("table", [
    [],
    [[[1]]],
    [[[1, 0], [0, 1]]],
    [[[1, 0], [0, 1]], [[0, 1]]],
    [[[1, 0], [0, 1]], [[0, 1], [1, 0], [0, 0]]],
    [[[1, 0], [0, 1]], [[0, 1], [1]]],
    [[[1, 0], [0, 1]], [[0, 1], [1, 0, 0]]],
    [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0]]],
], ids=["empty", "rank 1", "one plane", "short plane", "long plane",
        "short row", "long row", "every row long"])
def test_ring_construction_rejects_a_table_of_the_wrong_shape(table):
    with pytest.raises(DimensionMismatchError,
                       match=r"^multiplicity table is not 2 x 2 x 2$"):
        FusionRing(dual=(0, 1), unit=(0,), table=table)


def test_rings_built_from_lists_and_from_tuples_are_equal():
    for ring in [load(name) for name in CORPUS_RINGS] + [toy_ring()]:
        listed = FusionRing(ring.dual, ring.unit, ring_table(ring),
                            ring.names)
        assert listed == ring and hash(listed) == hash(ring)
        assert listed.table == ring.table
        assert type(listed.table[0][0]) is tuple
        assert listed.handle == ring.handle
    # names take part in equality
    fib = fibonacci_ring()
    assert FusionRing(fib.dual, fib.unit, fib.table) != fib


@pytest.mark.parametrize("bad,message", [
    ({(1, 0, 1): Fraction(1, 2), (1, 1, 1): Fraction(3, 2)},
     "N[1][0][1] = Fraction(1, 2)"),
    ({(1, 0, 1): -1, (1, 1, 1): -2}, "N[1][0][1] = -1"),
    ({(0, 1, 1): -2, (1, 0, 1): Fraction(1, 2)}, "N[0][1][1] = -2"),
    ({(1, 0, 1): True}, "N[1][0][1] = True"),
    ({(1, 1, 0): Fraction(1), (1, 1, 1): -1}, "N[1][1][0] = Fraction(1, 1)"),
    ({(0, 1, 1): True, (1, 0, 1): Fraction(1)}, "N[0][1][1] = True"),
    ({(1, 1, 1): 1.0}, "N[1][1][1] = 1.0"),
])
def test_ring_construction_names_the_first_bad_coefficient(bad, message):
    # the first entry in index order that is not a nonnegative int: a
    # bool or a Fraction is not an int, even where its value is 1, and
    # the entry is named by its repr, so a Fraction reads as one
    data = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, **bad}
    with pytest.raises(ValueError) as err:
        FusionRing(dual=(0, 1), unit=(0,), table=ring_table(2, data))
    assert str(err.value) == (
        f"coefficient {message} is not a nonnegative integer")


# ---------------------------------------------------------------------------
# the integer table against loops over the Fraction coefficients

ORACLE_RINGS = CORPUS_RINGS + ("toy",)


def _oracle_base(name: str) -> FusionRing:
    return toy_ring() if name == "toy" else load(name)


def _assert_reports_match_index_loops(ring: FusionRing) -> None:
    report = verify_axioms(ring)
    assert (report.entries, report.checked) == fusion_axiom_entries(ring)
    report = verify_frobenius_pairing(ring)
    assert (report.entries, report.checked) == frobenius_pairing_entries(ring)


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_reports_match_index_loops_with_each_coefficient_raised(name):
    base = _oracle_base(name)
    _assert_reports_match_index_loops(base)
    n = base.rank
    failing = 0
    for a, b, c in itertools.product(range(n), repeat=3):
        raised = {(a, b, c): base.table[a][b][c] + 1}
        ring = FusionRing(dual=base.dual, unit=base.unit,
                          table=ring_table(base, raised))
        _assert_reports_match_index_loops(ring)
        failing += not verify_axioms(ring).ok
    assert failing > 0


def test_reports_match_index_loops_on_broken_dual_and_unit():
    z3 = cyclic_ring(3)
    not_involution = FusionRing(dual=(1, 2, 0), unit=(0,), table=z3.table)
    two_units = FusionRing(dual=z3.dual, unit=(0, 1), table=z3.table)
    for ring, kind in ((not_involution, "involution"),
                       (two_units, "unit law")):
        _assert_reports_match_index_loops(ring)
        assert any(e.startswith(kind) for e in verify_axioms(ring).entries)
    # reciprocity is skipped without an involution: 3 + 27 + 81 + 3
    assert verify_axioms(not_involution).checked == 114
    assert verify_axioms(two_units).checked == 141


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_multiply_matches_fraction_contraction(name):
    ring = _oracle_base(name)
    rng = random.Random(13)
    for _ in range(40):
        x = tuple(rng.randrange(4) for _ in range(ring.rank))
        y = tuple(rng.randrange(4) for _ in range(ring.rank))
        weights = [[xi * yj for yj in y] for xi in x]
        assert multiply(ring, x, y) == naive_contract((ring.table, 1),
                                                      weights)


@pytest.mark.parametrize("rank, max_coeff, count, digest", [
    (2, 0, 1,
     "3848875ac5b17268e7ac77a88619684eae44c86ceb3863242acba0ab5d38a9da"),
    (2, 1, 2,
     "bf004601f7a52ff3d445bd055004c0a8fe90fe2dd578ab7d1cfc11ac7ae40838"),
    (2, 2, 3,
     "d758a6ee444f6a72f31804070f7d4cddad0a736e8fe0c8d95d0bbf8371476073"),
    (2, 3, 4,
     "39702f59d56d9a35326dc3094486e29ab6242f39ccd274f104426690921d0266"),
    (3, 1, 5,
     "73bcb195eee39aa4c2eb5639f2c04cbfcfd495f91c62bf768de6e618727dd005"),
    (3, 2, 10,
     "2656120187aa1facea1045e0623961b0ced9542488e3e580c93d1431654a8936"),
    (3, 3, 18,
     "e7844e057b806eb41055c019d9fd8824d5e725025faed9e4a1691fc465ebd451"),
    (4, 1, 12,
     "bfa4a2140ba1d14384d466728767c5ac4cabae237b43bed67b206205d88d187f"),
    # the rings x^2 = 1 + n x for n = 0..4
    (2, 4, 5,
     "c8972c571f632ab0011b33256dad3249797b6bac601c14c204604baf6eb6f62f"),
    # made once outside the suite, where the old exhaustive loop and
    # enumerate_by_exhaustion agreed; they take 15 s and 69 s on (4, 2),
    # 4 and 23 minutes on (4, 3)
    (4, 2, 63,
     "9aeaf79784bf853b91f0d6d67efdf825fc9f03937c035326cf067ec1544652f9"),
    (4, 3, 132,
     "e998b18c87c90eb3a1b1e7bb3f9c01d68a69810da22d50abafeff5891dded49f"),
])
def test_enumerate_output_is_pinned(rank, max_coeff, count, digest):
    rings = enumerate_fusion_rings(rank, max_coeff)
    text = "".join(serialize("fusion", r) for r in rings)
    assert len(rings) == count
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# ---------------------------------------------------------------------------
# the builders, which write tables, against the dict-literal
# constructions they replaced


def test_named_rings_match_their_tensor_constructions():
    assert ring_data(trivial_ring()) == reference_trivial()
    assert ring_data(fibonacci_ring()) == reference_fibonacci()
    for n in range(1, 13):
        assert ring_data(cyclic_ring(n)) == reference_cyclic(n)


def _corpus_products():
    rings = [load(name) for name in CORPUS_RINGS]
    return [(left, right, direct_product(left, right))
            for left, right in itertools.product(rings, repeat=2)]


def test_direct_products_match_their_tensor_construction():
    for left, right, product in _corpus_products():
        assert ring_data(product) == reference_direct_product(left, right)
        assert verify_axioms(product).ok
    names = ("a", "b", "c", "d")
    fib, z2 = fibonacci_ring(), cyclic_ring(2)
    assert ring_data(direct_product(fib, z2, names=names)) == (
        reference_direct_product(fib, z2, names))


def test_restrictions_to_blocks_match_their_tensor_construction():
    rings = [load("fib_x_z2.fusion")]
    rings += [product for _, _, product in _corpus_products()]
    restricted = 0
    for ring in rings:
        for block in block_decomposition(ring):
            # in order, and relabelled backwards
            for labels in (block, block[::-1]):
                assert ring_data(restrict_to_labels(ring, labels)) == (
                    reference_restriction(ring, labels))
                restricted += 1
    # one block per unit component
    assert restricted == 2 * sum(len(ring.unit) for ring in rings)
