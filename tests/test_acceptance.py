"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
Every equality is exact; the only tolerances are the two runtime
budgets, asserted with a wall clock.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from conftest import CORPUS_ALGEBRAS, CORPUS_RINGS, load
from oracles import (S3_CHARACTER_TABLE, S3_CLASS_SIZES, brute_force_dim,
                     fusion_from_characters, s3_cayley_table)
from verlinde import formats
from verlinde.categories import (field_category, karoubi_completion,
                                 karoubi_object_name, mat_completion,
                                 matrix_algebra_category, tensor_product,
                                 validate_category)
from verlinde.exact import Matrix
from verlinde.fusion import (block_decomposition, dual_vector,
                             enumerate_fusion_rings, inner_product, multiply,
                             verify_axioms)
from verlinde.surfaces import (ColouredSurface, dim_V, modular_report,
                               verify_gluing_consistency)
from verlinde.tqft import (canonical_genus_word, cyclic_table,
                           dual_numbers_algebra, evaluate_word,
                           genus_invariant, group_algebra,
                           group_separability_idempotent, matrix_algebra,
                           matrix_separability_idempotent, pairing_matrix,
                           product_field_algebra,
                           product_field_separability_idempotent,
                           random_invertible, trace_form_semisimple,
                           transport_basis, verify_separability_idempotent)


def _passed(n: int, label: str) -> None:
    print(f"[acceptance] criterion {n} ({label}): PASS")


def test_criterion_01_axiom_suite():
    start = time.perf_counter()
    for name in CORPUS_RINGS:
        report = verify_axioms(load(name))
        assert report.ok, f"{name}: {report.render()}"
    oracle = fusion_from_characters(S3_CLASS_SIZES, S3_CHARACTER_TABLE,
                                    ("triv", "sign", "std"))
    assert load("s3rep.fusion") == oracle
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"axiom suite took {elapsed:.2f}s"
    _passed(1, "axiom suite")


def test_criterion_02_torus_law():
    for name in CORPUS_RINGS:
        ring = load(name)
        assert dim_V(ring, ColouredSurface(1)) == ring.rank, name
    _passed(2, "torus law")


def test_criterion_03_gluing_consistency():
    start = time.perf_counter()
    for name in CORPUS_RINGS:
        ring = load(name)
        labels = range(ring.rank)
        for genus in range(4):
            for m in range(5):
                for colours in itertools.combinations_with_replacement(
                        labels, m):
                    surface = ColouredSurface(genus, colours)
                    expected = brute_force_dim(ring, genus, colours)
                    assert dim_V(ring, surface) == expected, (name, genus,
                                                              colours)
                    report = verify_gluing_consistency(ring, surface,
                                                       trials=2, seed=9)
                    assert report.ok, (name, genus, colours, report.render())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gluing sweep took {elapsed:.2f}s"
    _passed(3, f"gluing consistency, {elapsed:.2f}s")


def test_criterion_04_block_structure():
    ring = load("fib_x_z2.fusion")
    blocks = block_decomposition(ring)
    assert len(blocks) == 2
    owner = {a: i for i, block in enumerate(blocks) for a in block}
    for a in range(ring.rank):
        assert owner[ring.dual[a]] == owner[a]
        for b in range(ring.rank):
            product = multiply(ring, ring.basis_vector(a),
                               ring.basis_vector(b))
            if owner[a] != owner[b]:
                assert product == (0,) * ring.rank
            else:
                assert all(product[c] == 0 for c in range(ring.rank)
                           if owner[c] != owner[a])
    rep = modular_report(ring)
    assert rep.functor_count == 2
    _passed(4, "block structure")


def test_criterion_05_tqft_invariance():
    rng = random.Random(20020)
    for name in CORPUS_ALGEBRAS:
        algebra = load(name)
        assert algebra.dim <= 6
        reference = [genus_invariant(algebra, g) for g in range(5)]
        assert reference[1] == algebra.dim, name
        for g in range(5):
            assert evaluate_word(algebra, canonical_genus_word(g)) == \
                reference[g], (name, g)
        for _ in range(20):
            moved = transport_basis(algebra,
                                    random_invertible(algebra.dim, rng))
            for g in range(5):
                assert genus_invariant(moved, g) == reference[g], (name, g)
    _passed(5, "tqft invariance, 20 basis changes, genus <= 4")


def test_criterion_06_frobenius_tensor_identities():
    from test_tqft import _frobenius_sides

    for name in CORPUS_ALGEBRAS:
        algebra = load(name)
        g = pairing_matrix(algebra)
        ginv = g.inverse()
        assert g @ ginv == Matrix.identity(algebra.dim), name
        assert ginv @ g == Matrix.identity(algebra.dim), name
        for (i, j), lhs, mid, rhs in _frobenius_sides(algebra):
            assert lhs == mid == rhs, (name, i, j)
    _passed(6, "frobenius and snake tensor identities")


def test_criterion_07_completion_suite():
    # triple composition law against base composition, on random triples
    base = matrix_algebra_category(2)
    completed = karoubi_completion(base)
    assert validate_category(completed).ok
    rng = random.Random(7)
    names = list(completed.objects)
    checked = 0
    for _ in range(200):
        a, b, c = (rng.choice(names) for _ in range(3))
        fs, gs = completed.hom(a, b), completed.hom(b, c)
        if not fs or not gs:
            continue
        f = completed.morphism(
            a, b, {n: Fraction(rng.randint(-2, 2)) for n in fs})
        g = completed.morphism(
            b, c, {n: Fraction(rng.randint(-2, 2)) for n in gs})

        def back(m):
            out = None
            for bn, cf in m.coeffs.items():
                term = completed.base_morphism_of(bn).scaled(cf)
                out = term if out is None else out + term
            return out

        composite = completed.compose(g, f)
        if composite.is_zero():
            continue
        assert back(composite) == base.compose(back(g), back(f))
        checked += 1
    assert checked >= 50
    for name in completed.objects:
        ident = completed.identity(name)
        for other in completed.objects:
            for basis in completed.hom(other, name):
                m = completed.basis_morphism(basis)
                assert completed.compose(ident, m) == m

    # diag(1, 0) splits into an object with one-dimensional endomorphisms
    split = karoubi_object_name("x", (1, 0, 0, 0))
    assert split in completed.objects
    assert completed.hom_dim(split, split) == 1

    # all completed categories validate
    assert validate_category(karoubi_completion(field_category())).ok
    assert validate_category(mat_completion(field_category(), 2)).ok
    assert validate_category(mat_completion(field_category(), 3)).ok
    assert validate_category(
        karoubi_completion(product_field_algebra(2).to_category())).ok

    # tensor unit law: k (x) A has A's structure constants
    a = matrix_algebra_category(2)
    product = tensor_product(field_category(), a)
    stripped = {(g[len("(u|"):-1], f[len("(u|"):-1]):
                 {h[len("(u|"):-1]: v for h, v in combo.items()}
                 for (g, f), combo in product.table_items()}
    assert stripped == {pair: combo for pair, combo in a.table_items()}
    _passed(7, "completion suite")


def test_criterion_08_separability_and_semisimplicity():
    z2, z3 = cyclic_table(2), cyclic_table(3)
    checks = [
        (group_algebra(z2), group_separability_idempotent(z2)),
        (matrix_algebra(2), matrix_separability_idempotent(2)),
        (product_field_algebra(2), product_field_separability_idempotent(2)),
    ]
    for algebra, idem in checks:
        report = verify_separability_idempotent(algebra, idem)
        assert report.ok, report.render()

    semisimple = [group_algebra(z2), group_algebra(z3),
                  group_algebra(s3_cayley_table()), matrix_algebra(2),
                  product_field_algebra(2), product_field_algebra(4)]
    for algebra in semisimple:
        flag, gram = trace_form_semisimple(algebra)
        assert flag and gram.rank() == algebra.dim
    flag, gram = trace_form_semisimple(dual_numbers_algebra())
    assert not flag and gram.rank() == 1
    _passed(8, "separability and semisimplicity")


def test_criterion_09_enumeration_oracle():
    rings_a = enumerate_fusion_rings(2, 1)
    rings_b = enumerate_fusion_rings(2, 1)
    assert rings_a == rings_b
    text = "\n".join(formats.serialize("fusion", r) for r in rings_a)
    import pathlib
    recorded = (pathlib.Path(__file__).parent / "data"
                / "enumerate_rank2_maxcoeff1.txt").read_text("utf-8")
    assert text == recorded
    assert rings_a[0].table == load("z2.fusion").table
    assert rings_a[1].table == load("fib.fusion").table
    _passed(9, "enumeration oracle")


def test_criterion_10_involution_and_pairing():
    for name in CORPUS_RINGS:
        ring = load(name)
        pairing = Matrix(
            [[inner_product(ring, ring.basis_vector(a), ring.basis_vector(b))
              for b in range(ring.rank)] for a in range(ring.rank)])
        # permutation matrix: one 1 per row and column
        for i in range(ring.rank):
            assert sorted(pairing.row(i)) == [0] * (ring.rank - 1) + [1]
        assert pairing.rank() == ring.rank
        rng = random.Random(100)
        for _ in range(100):
            x = tuple(rng.randrange(4) for _ in range(ring.rank))
            y = tuple(rng.randrange(4) for _ in range(ring.rank))
            z = tuple(rng.randrange(4) for _ in range(ring.rank))
            assert dual_vector(ring, dual_vector(ring, x)) == x
            assert inner_product(ring, x, y) == inner_product(ring, y, x)
            assert (inner_product(ring, x, multiply(ring, y, z))
                    == inner_product(ring, multiply(ring, x, y), z))
    _passed(10, "involution and pairing")
