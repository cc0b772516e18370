"""Coloured-surface dimensions, gluing consistency, twists, reports."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import weakref

import pytest

from conftest import CORPUS_RINGS, load, ring_table, toy_ring
from oracles import (brute_force_dim, gluing_by_branching, gluing_entries,
                     handle_steps, list_expansion_dim, step_fold,
                     step_fold_dim)
from verlinde.exact import power_apply
from verlinde.fusion import (FusionRing, cyclic_ring, direct_product,
                             fibonacci_ring, product_vector, verify_axioms)
from verlinde.surfaces import (ColouredSurface, Twist, TwistData,
                               TwistFormatError, _eval_by_gluing,
                               _handle_squares,
                               check_nontriviality, dim_V, dim_V_disjoint,
                               modular_report, render_report_machine,
                               render_report_text, validate_twists,
                               verify_gluing_consistency)

S = ColouredSurface


def test_disk_values():
    for name in CORPUS_RINGS:
        ring = load(name)
        for b in ring.unit:
            assert dim_V(ring, S(0, (b,))) == 1
        for a in range(ring.rank):
            if a not in ring.unit:
                assert dim_V(ring, S(0, (a,))) == 0


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_closed_torus_dimension_is_rank(name):
    ring = load(name)
    assert dim_V(ring, S(1)) == ring.rank


def test_torus_law_holds_for_every_enumerated_ring():
    from verlinde.fusion import enumerate_fusion_rings

    for rank in (1, 2, 3, 4):
        for ring in enumerate_fusion_rings(rank, 1):
            assert dim_V(ring, S(1)) == rank


def test_z2_closed_surfaces_double_per_genus():
    z2 = load("z2.fusion")
    for g in range(5):
        assert dim_V(z2, S(g)) == 2 ** g


def test_pair_of_pants_gives_fusion_coefficients():
    for name in ("fib.fusion", "s3rep.fusion", "z3.fusion"):
        ring = load(name)
        for a in range(ring.rank):
            for b in range(ring.rank):
                for c in range(ring.rank):
                    expected = ring.n(a, b, ring.dual[c])
                    assert dim_V(ring, S(0, (a, b, c))) == expected


def test_fibonacci_small_genus_values():
    fib = load("fib.fusion")
    assert [dim_V(fib, S(g)) for g in range(5)] == [1, 2, 5, 15, 50]


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_dim_matches_brute_force_oracle(name):
    ring = load(name)
    labels = range(ring.rank)
    for genus in range(3):
        for m in range(4):
            for colours in itertools.combinations_with_replacement(labels, m):
                expected = brute_force_dim(ring, genus, colours)
                assert dim_V(ring, S(genus, colours)) == expected


def test_dim_matches_literal_list_expansion_on_small_cases():
    for name in ("trivial.fusion", "z2.fusion", "fib.fusion"):
        ring = load(name)
        for genus in range(3):
            for colours in itertools.combinations_with_replacement(
                    range(ring.rank), 2):
                expected = list_expansion_dim(ring, genus, colours)
                assert dim_V(ring, S(genus, colours)) == expected


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_boundary_permutation_invariance(name):
    ring = load(name)
    colours = tuple(range(ring.rank))[:3]
    reference = dim_V(ring, S(1, colours))
    for perm in itertools.permutations(colours):
        assert dim_V(ring, S(1, perm)) == reference


def test_boundary_order_is_kept_on_a_non_commutative_ring():
    ring = toy_ring()
    assert not verify_axioms(ring).ok
    assert dim_V(ring, S(0, (1, 2, 1))) == 1
    for perm in set(itertools.permutations((1, 2, 1))):
        assert dim_V(ring, S(0, perm)) == brute_force_dim(ring, 0, perm)


def test_surface_evaluation_keeps_no_reference_to_the_ring():
    # names no other test uses, so no equal ring was evaluated before
    ring = direct_product(fibonacci_ring(), cyclic_ring(2),
                          names=("w1", "wtau", "w0", "wg"))
    ref = weakref.ref(ring)
    assert dim_V(ring, S(2, (1, 1))) == brute_force_dim(ring, 2, (1, 1))
    assert verify_gluing_consistency(ring, S(1, (1, 3, 1, 3))).ok
    modular_report(ring, surfaces={"pants": S(0, (1, 1, 1))})
    del ring
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("colour", [2, -1])
def test_out_of_range_colours_are_rejected(colour):
    fib = fibonacci_ring()
    for check in (dim_V, verify_gluing_consistency):
        with pytest.raises(ValueError, match=f"label {colour} out of range"):
            check(fib, S(1, (1, colour)))


def test_vacuum_insertion_is_neutral_for_irreducible_unit():
    for name in ("z2.fusion", "z3.fusion", "fib.fusion", "s3rep.fusion"):
        ring = load(name)
        (b,) = ring.unit
        for genus in range(3):
            for colour in range(ring.rank):
                base = S(genus, (colour,))
                padded = S(genus, (colour, b))
                assert dim_V(ring, base) == dim_V(ring, padded)


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_dual_surface_symmetry(name):
    ring = load(name)
    for genus in range(3):
        for colours in itertools.combinations_with_replacement(
                range(ring.rank), 2):
            dualled = tuple(ring.dual[c] for c in colours)
            assert dim_V(ring, S(genus, colours)) == dim_V(
                ring, S(genus, dualled))


def test_gluing_consistency_on_corpus():
    for name in CORPUS_RINGS:
        ring = load(name)
        for surface in (S(2), S(1, (0, 0)), S(0, tuple(range(ring.rank))[:3])):
            report = verify_gluing_consistency(ring, surface, trials=6,
                                               seed=5)
            assert report.ok, report.render()


def test_gluing_consistency_counts_its_comparisons():
    # trials reorderings, trials splits, trials genus reductions when
    # the genus is positive, and one capping per boundary colour
    fib = load("fib.fusion")
    checked = {name: verify_gluing_consistency(fib, surface).checked
               for name, surface in load("fib.surfaces").items()}
    assert checked == {"cylinder_tau": 18, "disk_tau": 17, "disk_unit": 17,
                       "genus2": 24, "genus3": 24, "pants_tau": 19,
                       "sphere": 16, "torus": 24}
    assert verify_gluing_consistency(fib, S(1, (1,)), trials=3).checked == 10


def test_gluing_consistency_refuses_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        verify_gluing_consistency(load("fib.fusion"), S(1, (1,)), trials=-3)


def test_gluing_consistency_detects_broken_frobenius_symmetry():
    z3 = cyclic_ring(3)
    broken = FusionRing(dual=(0, 1, 2), unit=(0,), table=z3.table)
    report = verify_gluing_consistency(broken, S(0, (1, 1)), trials=4, seed=1)
    assert not report.ok
    assert any("capping" in e for e in report.entries)


def _random_ring(rng, max_rank=4) -> FusionRing:
    """Rank 2-`max_rank`, unit law on label 0, random entries elsewhere.

    The dual is a random involution fixing 0.  Most such rings fail
    associativity, which is what the gluing check exists to catch.
    """
    n = rng.randint(2, max_rank)
    labels = list(range(1, n))
    rng.shuffle(labels)
    dual = list(range(n))
    while len(labels) >= 2 and rng.random() < 0.5:
        a, b = labels.pop(), labels.pop()
        dual[a], dual[b] = b, a
    data = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if a == 0 or b == 0:
                    v = int(c == a + b)
                else:
                    v = rng.choice((0, 0, 1, 1, 2))
                if v:
                    data[a, b, c] = v
    return FusionRing(dual=tuple(dual), unit=(0,), table=ring_table(n, data))


def _random_cases(seed, count, genera, max_rank=4, max_colours=3):
    """(ring, surface, seed) triples with 0-`max_colours` colours on
    random rings."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = _random_ring(rng, max_rank)
        genus = rng.choice(genera)
        colours = tuple(rng.randrange(ring.rank)
                        for _ in range(rng.randint(0, max_colours)))
        yield ring, S(genus, colours), rng.randrange(1 << 30)


def _corpus_sums():
    """The direct sum of every pair of corpus rings: ranks 2-8, with two
    unit components."""
    return [direct_product(load(a), load(b))
            for a, b in itertools.combinations_with_replacement(
                CORPUS_RINGS, 2)]


def test_dim_matches_step_fold_oracle_on_random_rings():
    for ring, surface, _ in _random_cases(31, 300, range(41)):
        assert dim_V(ring, surface) == step_fold_dim(
            ring, surface.genus, surface.boundary), (ring, surface)


def test_folds_sharing_handle_powers_match_step_fold_in_any_order():
    # one list of squares of R_h serves every number of a call, whatever
    # the genus; entry c of the fold is its dot product with R_h^g * e_c
    genera = (5, 0, 2, 9, 3, 16, 1, 16)
    for ring, surface, _ in _random_cases(37, 100, (0,)):
        squares = _handle_squares(ring, 1)
        x = product_vector(ring, surface.boundary)
        for genus in genera:
            fold = tuple(
                sum(a * b for a, b in zip(x, power_apply(
                    squares, genus, ring.basis_vector(c))))
                for c in range(ring.rank))
            assert fold == step_fold(ring, genus, surface.boundary), (
                ring, genus)
        assert len(squares) == 5  # R_h, R_h^2, ..., R_h^16


def test_genus_reduction_matches_branching_oracle_on_random_rings():
    # same value and the same draws, so the split trials that follow
    # read the same random state
    for ring, surface, seed in _random_cases(32, 300, (1, 2, 3)):
        ours, theirs = random.Random(seed), random.Random(seed)
        got = _eval_by_gluing(ring, surface.genus, surface.boundary, ours)
        assert got == gluing_by_branching(ring, surface.genus,
                                          surface.boundary, theirs)
        assert ours.getstate() == theirs.getstate()


class _Scripted:
    """Stands in for the `rng` of a genus reduction: fixed positions."""

    def __init__(self, positions):
        self.positions = iter(positions)

    def randrange(self, stop):
        pos = next(self.positions)
        assert 0 <= pos < stop
        return pos


def test_genus_reduction_of_nested_pairs_matches_branching_oracle():
    # random draws rarely nest this deep: handle 2 inside handle 1, and
    # inside handle 2 handles 3 and 4 side by side, with handle 5 in 4
    positions = (0, 1, 2, 4, 5)
    for ring, surface, _ in _random_cases(35, 100, (5,), max_rank=3):
        got = _eval_by_gluing(ring, 5, surface.boundary,
                              _Scripted(positions))
        assert got == gluing_by_branching(ring, 5, surface.boundary,
                                          _Scripted(positions))


def test_gluing_reports_match_oracle_on_random_rings():
    failing = 0
    for ring, surface, seed in _random_cases(33, 300, (0, 1, 2, 3)):
        entries = verify_gluing_consistency(ring, surface, trials=3,
                                            seed=seed).entries
        assert entries == gluing_entries(ring, surface.genus,
                                         surface.boundary, 3, seed)
        failing += surface.genus >= 2 and bool(entries)
    assert failing > 50


def test_gluing_reports_match_oracle_on_the_workload_shapes():
    # up to rank 6 and 4 colours on random rings, and on direct sums of
    # corpus rings, as the benchmark's dim-verify sweeps ask
    cases = list(_random_cases(19, 80, (0, 1, 2, 3), max_rank=6,
                               max_colours=4))
    rng = random.Random(19)
    for ring in _corpus_sums():
        colours = tuple(rng.randrange(ring.rank)
                        for _ in range(rng.randint(0, 4)))
        cases.append((ring, S(rng.randint(0, 3), colours),
                      rng.randrange(1 << 30)))
    failing = 0
    for ring, surface, seed in cases:
        report = verify_gluing_consistency(ring, surface, trials=3,
                                           seed=seed)
        assert report.entries == gluing_entries(
            ring, surface.genus, surface.boundary, 3, seed), (ring, surface)
        assert report.checked == (
            (3 if surface.genus else 2) * 3 + len(surface.boundary))
        failing += bool(report.entries)
    assert failing > 40


def test_unit_functional_gives_the_unit_multiplicity_of_handle_steps():
    rng = random.Random(23)
    rings = [ring for ring, _, _ in _random_cases(23, 20, (0,), max_rank=6)]
    for ring in rings + _corpus_sums()[::4]:
        squares = _handle_squares(ring, 1)
        for genus in (0, 40, *rng.sample(range(1, 40), 6)):
            x = [rng.randint(-3, 3) for _ in range(ring.rank)]
            t = power_apply(squares, genus, ring.unit_vector())
            assert sum(a * b for a, b in zip(x, t)) == sum(
                handle_steps(ring, genus, x)[b] for b in ring.unit), (
                ring, genus, x)


def test_gluing_reports_up_to_genus_one_are_pinned():
    # one draw per handle is the old per-branch schedule at genus <= 1,
    # so these 300 reports (119 of them failing) hash as they always have
    digest, failing = hashlib.sha256(), 0
    for ring, surface, seed in _random_cases(12, 300, (0, 1)):
        entries = verify_gluing_consistency(ring, surface, trials=3,
                                            seed=seed).entries
        failing += bool(entries)
        digest.update(("\n".join(entries) + "\n\n").encode())
    assert failing == 119
    assert digest.hexdigest() == (
        "9b9855e6732f062815f63596d76e27b71d0335da4b51b034d5e2e91764243d6c")


def test_fibonacci_closed_surfaces_follow_their_recurrence():
    # R_h = [[2, 1], [1, 3]] has characteristic polynomial x^2 - 5x + 5
    fib = fibonacci_ring()
    want = [1, 2, 5]
    while len(want) <= 10_000:
        want.append(5 * want[-1] - 5 * want[-2])
    for genus in (*range(40), 511, 512, 1000, 4097, 9999, 10_000):
        assert dim_V(fib, S(genus)) == want[genus], genus


def test_s3_representation_ring_closed_surfaces():
    s3 = load("s3rep.fusion")
    assert dim_V(s3, S(0)) == 1
    for genus in (*range(1, 40), 257, 3000):
        assert dim_V(s3, S(genus)) == (
            6 ** (genus - 1) + 3 ** (genus - 1) + 2 ** (genus - 1)), genus


def test_cyclic_ring_closed_surfaces_are_powers_of_the_order():
    for n in range(1, 13):
        ring = cyclic_ring(n)
        for genus in (0, 1, 2, 3, 7, 64, 777):
            assert dim_V(ring, S(genus)) == n ** genus, (n, genus)


def test_gluing_consistency_at_genus_six_on_z12():
    report = verify_gluing_consistency(cyclic_ring(12), S(6, (1, 2, 3, 4)))
    assert report.ok, report.render()
    assert report.checked == 3 * 8 + 4


def test_disjoint_union_of_two_tori():
    z2 = load("z2.fusion")
    assert dim_V_disjoint(z2, [S(1), S(1)]) == 4
    assert dim_V_disjoint(z2, [S(1), S(1)]) == dim_V(z2, S(1)) * dim_V(
        z2, S(1))


def test_nontriviality_flags():
    assert check_nontriviality(load("fib.fusion"))
    assert check_nontriviality(load("z3.fusion"))
    assert check_nontriviality(load("fib_x_z2.fusion"))
    # irreducible unit whose dual is a different label: sphere space is 0
    z2 = cyclic_ring(2)
    weird = FusionRing(
        dual=(1, 0), unit=(0,),
        table=z2.table)
    assert not check_nontriviality(weird)


def test_sphere_dim_equals_unit_component_count_on_corpus():
    for name in CORPUS_RINGS:
        ring = load(name)
        assert dim_V(ring, S(0)) == len(ring.unit)


# ---------------------------------------------------------------------------
# twists


def test_twist_canonicalisation():
    assert Twist.root_of_unity(4, 0) == Twist.one()
    assert Twist.root_of_unity(4, 2).rational == -1
    assert Twist.root_of_unity(6, 2) == Twist.root_of_unity(3, 1)
    assert Twist.root_of_unity(5, 7) == Twist.root_of_unity(5, 2)


def test_twist_rejects_zero_and_bad_order():
    with pytest.raises(TwistFormatError):
        Twist.from_rational(0)
    with pytest.raises(TwistFormatError):
        Twist.root_of_unity(0, 1)


def test_validate_twists_all_ones_pass():
    for name in CORPUS_RINGS:
        ring = load(name)
        twists = TwistData.from_mapping(ring.rank, {})
        assert validate_twists(ring, twists).ok


def test_validate_twists_counts_its_comparisons():
    fib = load("fib.fusion")
    twists = TwistData.from_mapping(2, load("fib.twist"))
    # the length, one unit component, two labels
    assert validate_twists(fib, twists).checked == 4
    report = validate_twists(load("z3.fusion"), twists)
    assert not report.ok
    assert report.checked == 1


def test_validate_twists_fibonacci_arbitrary_tau_twist():
    fib = load("fib.fusion")
    twists = TwistData.from_mapping(2, {1: Twist.root_of_unity(5, 2)})
    assert validate_twists(fib, twists).ok


def test_validate_twists_unit_must_be_one():
    fib = load("fib.fusion")
    twists = TwistData.from_mapping(2, {0: Twist.root_of_unity(3, 1)})
    report = validate_twists(fib, twists)
    assert any("unit component 0" in e for e in report.entries)


def test_validate_twists_duals_must_agree():
    z3 = load("z3.fusion")
    ok = TwistData.from_mapping(3, {1: Twist.root_of_unity(3, 1),
                                    2: Twist.root_of_unity(3, 1)})
    assert validate_twists(z3, ok).ok
    bad = TwistData.from_mapping(3, {1: Twist.root_of_unity(3, 1),
                                     2: Twist.root_of_unity(3, 2)})
    report = validate_twists(z3, bad)
    assert not report.ok
    assert any("dual" in e for e in report.entries)


# ---------------------------------------------------------------------------
# modular report


def test_modular_report_fibonacci():
    rep = modular_report(load("fib.fusion"),
                         surfaces={"torus": S(1), "genus2": S(2)})
    assert rep.functor_count == 1
    assert rep.torus_dim == 2
    assert {e.name: e.total for e in rep.surfaces} == {
        "torus": 2, "genus2": 5}


def test_modular_report_product_ring_counts_two_functors():
    rep = modular_report(load("fib_x_z2.fusion"),
                         surfaces={"torus": S(1)})
    assert rep.r == 2
    assert rep.functor_count == 2
    assert rep.torus_dim == 4
    (entry,) = rep.surfaces
    assert entry.per_block == (2, 2)
    assert entry.total == sum(entry.per_block)


def test_modular_report_trivial_ring_all_dims_one():
    rep = modular_report(load("trivial.fusion"),
                         surfaces={f"g{g}": S(g) for g in range(4)})
    assert rep.functor_count == 1
    assert all(e.total == 1 for e in rep.surfaces)


def test_modular_report_mixed_block_boundary_is_zero():
    ring = load("fib_x_z2.fusion")
    rep = modular_report(ring, surfaces={"mixed": S(0, (1, 3))})
    (entry,) = rep.surfaces
    assert entry.total == 0
    assert entry.per_block == (0, 0)


def test_report_renderers_are_deterministic():
    ring = load("fib_x_z2.fusion")
    rep = modular_report(ring, surfaces={"torus": S(1)})
    assert render_report_text(rep) == render_report_text(rep)
    machine = render_report_machine(rep)
    assert "functors = 2" in machine
    assert machine == render_report_machine(rep)
