"""The oracles against values known by hand.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import gen
import oracle


def test_fibonacci_closed_surfaces():
    want = [1, 2, 5, 15, 50, 175, 625]
    assert [oracle.fibonacci_dim(g, ()) for g in range(7)] == want
    fib = gen.fibonacci()
    assert [oracle.convolution_dim(fib, g, ()) for g in range(7)] == want


def test_fibonacci_boundaries():
    # disk with tau: 0; cylinder tau|tau: 1; pants tau,tau,tau: 1
    assert oracle.fibonacci_dim(0, (1,)) == 0
    assert oracle.fibonacci_dim(0, (1, 1)) == 1
    assert oracle.fibonacci_dim(0, (1, 1, 1)) == 1
    fib = gen.fibonacci()
    for g in range(4):
        for m in range(5):
            for colours in itertools.product((0, 1), repeat=m):
                assert (oracle.fibonacci_dim(g, colours)
                        == oracle.convolution_dim(fib, g, colours))


def test_fibonacci_high_genus_is_an_integer():
    value = oracle.fibonacci_dim(2000, (1, 1))
    assert isinstance(value, int) and value > 0


def test_cyclic_closed_form():
    for n in (1, 2, 5, 7):
        ring = gen.cyclic(n).shuffled(random.Random(n))
        oracle.check_blocks(ring)
        for g in range(3):
            assert oracle.dim(ring, g, ()) == n ** g
            for colours in itertools.product(range(n), repeat=2):
                assert (oracle.dim(ring, g, colours)
                        == oracle.convolution_dim(ring, g, colours))


def test_direct_sum_adds_blocks():
    ring = gen.direct_sum(gen.fibonacci(), gen.cyclic(3)).shuffled(
        random.Random(3))
    oracle.check_blocks(ring)
    for g in range(3):
        assert oracle.dim(ring, g, ()) == oracle.fibonacci_dim(g, ()) + 3 ** g
        for colours in itertools.product(range(ring.rank), repeat=2):
            assert (oracle.dim(ring, g, colours)
                    == oracle.convolution_dim(ring, g, colours))


def test_check_blocks_rejects_a_wrong_claim():
    ring = gen.cyclic(4)
    wrong = gen.Ring(ring.names, ring.dual, ring.unit, ring.N,
                     (gen.Block("cyclic", (0, 2, 1, 3)),))
    with pytest.raises(ValueError):
        oracle.check_blocks(wrong)


def test_toy_ring_depends_on_boundary_order():
    toy = gen.toy_ring()
    assert oracle.convolution_dim(toy, 0, (1, 2, 1)) == 1
    assert oracle.convolution_dim(toy, 0, (1, 1, 2)) == 0
    assert not oracle.axioms_hold(toy.rank, toy.dual, toy.unit, toy.N)


def test_rank_two_enumeration():
    for c in range(4):
        assert len(oracle.enumerate_rings(2, c)) == c + 1


def test_rank_three_enumeration_contains_known_rings():
    z3 = gen.cyclic(3)
    s3 = {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1,
          (1, 1, 0): 1, (1, 2, 2): 1, (2, 0, 2): 1, (2, 1, 2): 1,
          (2, 2, 0): 1, (2, 2, 1): 1, (2, 2, 2): 1}
    ising = {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1,
             (1, 1, 0): 1, (1, 1, 2): 1, (1, 2, 1): 1, (2, 0, 2): 1,
             (2, 1, 1): 1, (2, 2, 0): 1}
    found = oracle.enumerate_rings(3, 1)
    for dual, N in ((z3.dual, z3.N), ((0, 1, 2), s3), ((0, 1, 2), ising)):
        assert oracle.axioms_hold(3, dual, (0,), N)
        assert oracle.canonical_form(3, dual, N) in found
    assert found <= oracle.enumerate_rings(3, 2)


def test_genus_invariant_closed_forms():
    assert [oracle.genus_invariant(gen.cyclic_group(3), g)
            for g in range(4)] == [1, 3, 9, 27]
    assert [oracle.genus_invariant(gen.s3_group(), g)
            for g in range(3)] == [1, 6, 36]
    assert [oracle.genus_invariant(gen.matrix_alg(2), g)
            for g in range(4)] == [2, 4, 8, 16]
    assert [oracle.genus_invariant(gen.product_alg((1, 2, 3)), g)
            for g in range(3)] == [6, 3, Fraction(11, 6)]
    assert [oracle.genus_invariant(gen.dual_numbers(), g)
            for g in range(4)] == [0, 2, 0, 0]
    assert [oracle.genus_invariant(gen.fusion_alg(gen.fibonacci()), g)
            for g in range(4)] == [1, 2, 5, 15]


def test_words_have_the_stated_genus():
    # genus = (number of pairs of pants - number of discs + 2) / 2
    def genus(layers):
        pants = sum(g in ("mult", "comult") for layer in layers
                    for g in layer)
        discs = sum(g in ("unit", "counit") for layer in layers
                    for g in layer)
        return (pants - discs + 2) // 2
    for k in range(1, 7):
        assert genus(gen.canonical_word(k)) == k
        assert genus(gen.wide_word(k + 1)) == k
        assert all(genus(w) == k for w in gen.alternate_words(k))


def test_matrix_builders():
    rng = random.Random(5)
    for d in (3, 6, 10):
        assert oracle.rank(gen.invertible(d, rng)) == d
        for r in (1, d // 2, d - 1):
            assert oracle.rank(gen.of_rank(d, r, rng)) == r
    assert oracle.is_identity(gen.matmul([[2, 1], [1, 1]],
                                         [[1, -1], [-1, 2]]))


def test_karoubi_objects_of_m2():
    grid = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
    m2 = gen.matrix_alg(2)
    idems = oracle.grid_idempotents(m2, grid)
    assert len(idems) == 17
    for e in idems:
        for f in idems:
            assert (oracle.corner_dim(m2, e, f)
                    == oracle.matrix_rank_2x2(e) * oracle.matrix_rank_2x2(f))
    assert len(oracle.grid_idempotents(gen.product_alg((1,) * 3), grid)) == 8
    assert len(oracle.grid_idempotents(gen.cyclic_group(2), grid)) == 3


@pytest.mark.parametrize("alg", [gen.matrix_alg(2), gen.matrix_alg(3),
                                 gen.cyclic_group(3), gen.s3_group(),
                                 gen.product_alg((1, 1, 1))])
def test_separability_elements_multiply_to_one(alg):
    e = gen.separability_element(alg)
    mu = [Fraction(0)] * alg.dim
    for i, j in itertools.product(range(alg.dim), repeat=2):
        for k in range(alg.dim):
            mu[k] += e[i][j] * alg.mult.get((i, j, k), 0)
    assert tuple(mu) == alg.unit
