"""Frobenius algebra validation, word evaluation, surface invariants."""

from __future__ import annotations

import gc
import hashlib
import importlib
import random
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (CORPUS_ALGEBRAS, CORPUS_RINGS, load, mult_form,
                      ring_table)
from oracles import (algebra_data, fraction_constants,
                     fraction_random_invertible, fraction_word,
                     frobenius_axiom_entries, genus_invariants,
                     invariance_entries, reference_dual_numbers_algebra,
                     reference_field_algebra, reference_group_algebra,
                     reference_matrix_algebra,
                     reference_product_field_algebra, s3_cayley_table,
                     transport_by_products)
from verlinde import exact, formats, tqft
from verlinde.exact import DimensionMismatchError, Matrix
from verlinde.fusion import FusionRing, cyclic_ring, enumerate_fusion_rings
from verlinde.report import Report
from verlinde.surfaces import ColouredSurface, dim_V
from verlinde.tqft import (GENERATORS, Algebra, CobordismWord,
                           DegeneratePairingError, FrobeniusAlgebra,
                           WordTensor, WordTypeError, alternate_genus_words,
                           canonical_genus_word, comultiplication_tensor,
                           cyclic_table, dual_numbers_algebra, evaluate_word,
                           field_algebra, frobenius_from_fusion,
                           genus_invariant,
                           group_algebra, group_separability_idempotent,
                           handle_element, invariance_suite, matrix_algebra,
                           matrix_separability_idempotent, pairing_matrix,
                           product_field_algebra, random_genus_word,
                           random_invertible, trace_form_semisimple,
                           transport_basis, validate_frobenius,
                           verify_separability_idempotent)

COMMUTATIVE_ALGEBRAS = ("ground.algebra", "ksquared.algebra",
                        "dual_numbers.algebra", "z2group.algebra",
                        "z3group.algebra", "fib.algebra")


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_corpus_algebras_validate(name):
    assert validate_frobenius(load(name)).ok


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_validate_frobenius_builds_no_tensor_view_on_valid_algebras(
        name, monkeypatch):
    # a Fraction, of the structure constants, of a matrix view or of a
    # product of elements, is built only to write the entry of a failure
    algebra = load(name)

    def no_fraction(*args, **kwargs):
        raise AssertionError("Fraction built")

    def no_product(*args):
        raise AssertionError("multiply_elements called")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    monkeypatch.setattr(tqft, "multiply_elements", no_product)
    report = validate_frobenius(algebra)
    monkeypatch.undo()
    assert report.ok and report.checked == 2 * algebra.dim ** 3 + (
        2 * algebra.dim + 1)


def test_multiply_elements_checks_the_length_of_x():
    fib = load("fib.algebra")
    for x in ((1, 0, 0), (1,)):
        with pytest.raises(DimensionMismatchError,
                           match=f"^element vectors of length {len(x)} and 2 "
                                 "for an algebra of dimension 2$"):
            tqft.multiply_elements(fib, x, (1, 0))


def test_multiply_elements_checks_the_length_of_y():
    fib = load("fib.algebra")
    for y in ((1, 0, 0), ()):
        with pytest.raises(DimensionMismatchError,
                           match=f"^element vectors of length 2 and {len(y)} "
                                 "for an algebra of dimension 2$"):
            tqft.multiply_elements(fib, (1, 0), y)


def test_frobenius_algebra_is_an_algebra_plus_counit():
    assert issubclass(FrobeniusAlgebra, Algebra)
    mult = ((((1,),),), 1)
    with pytest.raises(ValueError):
        FrobeniusAlgebra(("1",), mult, (1,), (1, 0))
    with pytest.raises(ValueError):
        FrobeniusAlgebra(("1", "x"), mult, (1, 0), (1, 0))


def test_validate_frobenius_counts_checked_equations():
    # 2n^3 associativity and invariance, 2n unit laws, one rank check
    assert validate_frobenius(load("mat2.algebra")).checked == 137


def _frobenius(algebra: Algebra, counit) -> FrobeniusAlgebra:
    return FrobeniusAlgebra(algebra.names, algebra.mult, algebra.unit, counit)


def _raised(a: FrobeniusAlgebra):
    """One copy of `a` per nonzero structure constant, raised by 1."""
    data = {ijk: v for ijk, v in fraction_constants(a.mult).items() if v}
    for idx in data:
        raised = dict(data)
        raised[idx] += 1
        yield FrobeniusAlgebra(a.names, mult_form(a.dim, raised), a.unit,
                               a.counit)


def _stock_frobenius_algebras():
    m3 = matrix_algebra(3)
    yield _frobenius(m3, [int(name[1] == name[2]) for name in m3.names])
    yield _frobenius(group_algebra(cyclic_table(4)), (1, 0, 0, 0))
    yield _frobenius(group_algebra(s3_cayley_table()), (1, 0, 0, 0, 0, 0))
    yield _frobenius(dual_numbers_algebra(), (0, 1))


def _frobenius_families():
    bases = [load(name) for name in CORPUS_ALGEBRAS]
    bases.extend(_stock_frobenius_algebras())
    for a in bases:
        yield a
        yield from _raised(a)
    k2 = load("ksquared.algebra")
    yield FrobeniusAlgebra(k2.names, k2.mult, (1, 0), k2.counit)
    yield FrobeniusAlgebra(k2.names, k2.mult, k2.unit, (1, 0))


def test_validate_frobenius_matches_the_fraction_oracle():
    for a in _frobenius_families():
        report = validate_frobenius(a)
        entries, checked = frobenius_axiom_entries(a)
        assert report.entries == entries
        assert report.checked == checked


def _report_lines(report):
    return [*report.entries, f"checked {report.checked}"]


def _pinned_texts():
    """Lines of the validation reports, invariance suites and derived
    data of the algebras of `_frobenius_families`, in turn."""
    validate, suite, derived = [], [], []
    for a in _frobenius_families():
        validate += _report_lines(validate_frobenius(a))
        derived.append(repr(pairing_matrix(a)))
        try:
            suite += _report_lines(invariance_suite(a, trials=3, max_genus=3))
            derived.append(repr(handle_element(a)))
        except DegeneratePairingError as err:
            suite.append(f"degenerate: {err}")
            derived.append(f"degenerate: {err}")
    return {"validate": validate, "suite": suite, "derived": derived}


# (sha256 of the lines joined by newlines, number of lines); the validate
# and derived lines were recorded before the pairing and its inverse were
# computed on integer forms, the suite's lines from
# `oracles.invariance_entries` over the words `_suite_presentations` draws,
# with the trace test (its pairs counted, swap words left out past a
# failure) on every algebra, those of dimension 9 included
REPORT_PINS = {
    "validate": (
        "e1ca2607a00a5befbbb34787eeb3bcbf7daedf9ea6788196480eaea181b1517b",
        1600),
    "suite": (
        "36962bba72570b3eadfb4379241326d4543c528c3a25bceb0cd6f91944a58509",
        954),
    "derived": (
        "7df868f89a00f888538368bd31019fc9c1dbc1a9723922f87752293aad105021",
        254),
}


def test_reports_and_derived_data_are_pinned():
    for kind, lines in _pinned_texts().items():
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert (digest, len(lines)) == REPORT_PINS[kind], kind


def test_ground_field_with_unit_counit_one_is_valid():
    a = FrobeniusAlgebra(("1",), ((((1,),),), 1), (1,), (1,))
    assert validate_frobenius(a).ok
    assert genus_invariant(a, 0) == 1


def test_ksquared_pairing_is_identity():
    assert pairing_matrix(load("ksquared.algebra")) == Matrix.identity(2)


def test_dual_numbers_pairing_is_antidiagonal():
    a = load("dual_numbers.algebra")
    assert pairing_matrix(a) == Matrix([[0, 1], [1, 0]])
    assert validate_frobenius(a).ok


def test_dual_numbers_with_wrong_counit_is_degenerate():
    bad = FrobeniusAlgebra(
        ("1", "x"),
        mult_form(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
        (1, 0), (1, 0))
    report = validate_frobenius(bad)
    assert any("degenerate" in e and "rank 1" in e for e in report.entries)


def test_sphere_word_gives_counit_of_unit():
    for name in CORPUS_ALGEBRAS:
        a = load(name)
        word = CobordismWord((("unit",), ("counit",)))
        expected = sum(u * c for u, c in zip(a.unit, a.counit))
        assert evaluate_word(a, word) == expected
        assert genus_invariant(a, 0) == expected


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_torus_words_and_handle_formula_agree(name):
    a = load(name)
    torus = evaluate_word(a, canonical_genus_word(1))
    assert torus == genus_invariant(a, 1) == a.dim
    cupcap = evaluate_word(a, CobordismWord((("cup",), ("cap",))))
    assert cupcap == torus


@pytest.mark.parametrize("name", COMMUTATIVE_ALGEBRAS)
def test_swapped_torus_word_agrees_on_commutative_algebras(name):
    a = load(name)
    swapped = CobordismWord(
        (("unit",), ("comult",), ("swap",), ("mult",), ("counit",)))
    assert evaluate_word(a, swapped) == genus_invariant(a, 1)


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_words_match_handle_formula_up_to_genus_four(name):
    a = load(name)
    for g in range(5):
        value = genus_invariant(a, g)
        assert evaluate_word(a, canonical_genus_word(g)) == value


def test_known_invariant_values():
    assert genus_invariant(load("ksquared.algebra"), 2) == 2
    assert genus_invariant(load("z2group.algebra"), 2) == 4
    assert genus_invariant(load("z3group.algebra"), 2) == 9
    assert genus_invariant(load("mat2.algebra"), 2) == 8
    assert genus_invariant(load("fib.algebra"), 2) == 5
    assert genus_invariant(load("dual_numbers.algebra"), 2) == 0


def test_genus_invariant_golden_table():
    with open("tests/data/genus_invariants.txt", encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()
                and not line.startswith("#")]
    for name, genus, value in rows:
        a = load(name)
        assert genus_invariant(a, int(genus)) == Fraction(value), (
            f"{name} at genus {genus}")


# ---------------------------------------------------------------------------
# tensor identities


def _frobenius_sides(a: FrobeniusAlgebra):
    n = a.dim
    d = fraction_constants(comultiplication_tensor(a))
    c = fraction_constants(a.mult)
    for i in range(n):
        for j in range(n):
            lhs = {}
            mid = {}
            rhs = {}
            for m in range(n):
                for k in range(n):
                    v1 = sum(c[i, p, m] * d[j, p, k] for p in range(n))
                    v2 = sum(c[i, j, q] * d[q, m, k] for q in range(n))
                    v3 = sum(d[i, m, q] * c[q, j, k] for q in range(n))
                    if v1:
                        lhs[(m, k)] = v1
                    if v2:
                        mid[(m, k)] = v2
                    if v3:
                        rhs[(m, k)] = v3
            yield (i, j), lhs, mid, rhs


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_frobenius_identity_as_tensors(name):
    a = load(name)
    for (i, j), lhs, mid, rhs in _frobenius_sides(a):
        assert lhs == mid == rhs, f"frobenius identity fails at ({i},{j})"


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_snake_identities(name):
    a = load(name)
    g = pairing_matrix(a)
    ginv = g.inverse()
    assert g @ ginv == Matrix.identity(a.dim)
    assert ginv @ g == Matrix.identity(a.dim)
    zigzag = evaluate_word(a, CobordismWord((("cup",), ("cap",))))
    assert zigzag == a.dim


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_counit_laws_of_derived_comultiplication(name):
    a = load(name)
    n = a.dim
    d = fraction_constants(comultiplication_tensor(a))
    for i in range(n):
        left = tuple(sum(d[i, p, k] * a.counit[p] for p in range(n))
                     for k in range(n))
        right = tuple(sum(d[i, p, k] * a.counit[k] for k in range(n))
                      for p in range(n))
        basis = tuple(Fraction(int(t == i)) for t in range(n))
        assert left == basis
        assert right == basis


# ---------------------------------------------------------------------------
# invariance


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_invariance_suite_passes(name):
    report = invariance_suite(load(name), trials=6, seed=2, max_genus=3)
    assert report.ok, report.render()


def _suite_presentations(trials, seed, max_genus):
    """(name, genus, word) of every word `invariance_suite` evaluates, in
    its order, the random ones drawn as it draws them."""
    out = []
    for g in range(max_genus + 1):
        out.append(("canonical word", g, canonical_genus_word(g)))
        out += [(f"alternate word {k}", g, word)
                for k, word in enumerate(alternate_genus_words(g))]
    rng = random.Random(seed)
    for t in range(trials):
        g = rng.randint(0, max_genus)
        out.append((f"random word {t}", g, random_genus_word(g, rng)))
    return out


def test_invariance_suite_counts_its_comparisons():
    # the 6 pairs of the trace test, then per genus the canonical word and
    # the alternates (two at genus 0, three at genus 1, four from genus
    # 2), then one per trial
    report = invariance_suite(load("mat2.algebra"), trials=6, seed=2,
                              max_genus=3)
    assert report.checked == 6 + 3 + 4 + 5 + 5 + 6
    assert report.checked == 6 + len(_suite_presentations(6, 2, 3))


def test_invariance_suite_matches_the_fraction_oracle():
    # the algebras of dimension 9 cost the oracle seconds each; the pinned
    # suite lines cover them
    presentations = _suite_presentations(3, 0, 3)
    for a in _frobenius_families():
        if a.dim > 4:
            continue
        expected = invariance_entries(a, presentations)
        if expected is None:
            with pytest.raises(DegeneratePairingError):
                invariance_suite(a, trials=3, max_genus=3)
            continue
        report = invariance_suite(a, trials=3, max_genus=3)
        assert (report.entries, report.checked) == expected


def test_invariance_suite_rejects_every_invalid_family():
    rejected = degenerate = 0
    for a in _frobenius_families():
        valid = validate_frobenius(a).ok
        try:
            report = invariance_suite(a, trials=3, max_genus=3)
        except DegeneratePairingError:
            assert not valid
            degenerate += 1
            continue
        assert report.ok == valid, report.render()
        rejected += not valid
    assert (rejected, degenerate) == (112, 1)


@pytest.mark.parametrize("kwargs", [{"trials": -2}, {"max_genus": -1}])
def test_invariance_suite_refuses_counts_that_check_nothing(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        invariance_suite(load("mat2.algebra"), **kwargs)


def test_invariance_suite_runs_its_words_without_trials():
    report = invariance_suite(load("mat2.algebra"), trials=0, max_genus=2)
    assert report.ok and report.checked == 6 + 3 + 4 + 5


def _surface_of(word):
    """(components, Euler characteristic) of the surface a word presents:
    union-find over its generators, joined along the strands (an id or
    swap passes its strands on untouched), and one per unit and counit,
    minus one per mult and comult."""
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    euler = {"unit": 1, "counit": 1, "mult": -1, "comult": -1}
    strands, chi = [], 0
    for layer in word.layers:
        pos, after = 0, []
        for gen in layer:
            n_in, n_out = GENERATORS[gen]
            legs = strands[pos:pos + n_in]
            pos += n_in
            chi += euler.get(gen, 0)
            if gen in ("id", "swap"):
                after += legs[::-1]
                continue
            node = len(parent)
            parent[node] = node
            for leg in legs:
                parent[find(leg)] = node
            after += [node] * n_out
        strands = after
    return len({find(x) for x in parent}), chi


def _drawn_words(seed, count=40, max_genus=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = rng.randint(0, max_genus)
        out.append((g, random_genus_word(g, rng)))
    return out


def test_random_words_are_connected_closed_surfaces_of_their_genus():
    for seed in range(10):
        for g, word in _drawn_words(seed):
            assert word.is_closed()
            assert max(len(layer) for layer in word.layers) <= 3
            components, chi = _surface_of(word)
            assert (components, chi) == (1, 2 - 2 * g), word.layers


def test_random_words_match_the_fraction_word_oracle():
    words = _drawn_words(41)
    for name in CORPUS_ALGEBRAS:
        a = load(name)
        reference = genus_invariants(a, 3)
        for g, word in words:
            expected = fraction_word(a, word).get((), Fraction(0))
            assert evaluate_word(a, word) == expected == reference[g], (
                name, word.layers)


def test_random_words_without_a_swap_hold_for_a_non_symmetric_counit():
    # eps = tr(diag(1, 2) x) on M_2 is a valid counit with eps(ab) !=
    # eps(ba); only the swapped handle notices
    m2 = matrix_algebra(2)
    a = _frobenius(m2, [{"e00": 1, "e11": 2}.get(name, 0)
                        for name in m2.names])
    assert validate_frobenius(a).ok
    reference = genus_invariants(a, 3)
    for g, word in _drawn_words(42):
        if not any("swap" in layer for layer in word.layers):
            assert evaluate_word(a, word) == reference[g], word.layers
    swapped = alternate_genus_words(2)[1]
    assert evaluate_word(a, swapped) != reference[2]


def _non_trace_mat2():
    """M_2 with the valid counit eps = tr(diag(1, 2) x), not a trace."""
    m2 = matrix_algebra(2)
    return _frobenius(m2, [{"e00": 1, "e11": 2}.get(name, 0)
                           for name in m2.names])


def test_a_counit_that_is_not_a_trace_is_one_named_entry():
    # eps(e01 e10) = eps(e00) = 1 but eps(e10 e01) = eps(e11) = 2; the
    # swapped-handle words are drawn but neither evaluated nor counted
    a = _non_trace_mat2()
    assert validate_frobenius(a).ok
    presentations = _suite_presentations(20, 0, 3)
    planar = [p for p in presentations
              if all("swap" not in layer for layer in p[2].layers)]
    assert len(planar) < len(presentations)
    report = invariance_suite(a)
    assert report.entries == [
        "counit is not a trace: eps(e_1 e_2) != eps(e_2 e_1)"]
    assert report.checked == 6 + len(planar)
    assert (report.entries, report.checked) == invariance_entries(
        a, presentations)


def test_a_non_trace_counit_still_fails_its_planar_words():
    # raising a structure constant of the non-trace M_2 breaks
    # associativity; the planar words must still notice
    for broken in _raised(_non_trace_mat2()):
        assert not validate_frobenius(broken).ok
        report = invariance_suite(broken, trials=3, max_genus=3)
        expected = invariance_entries(broken, _suite_presentations(3, 0, 3))
        assert (report.entries, report.checked) == expected
        assert any(not e.startswith("counit is not a trace")
                   for e in report.entries), report.entries


# closed words with layers of two or more generators other than `id`
MULTI_GENERATOR_WORDS = (
    (("unit",), ("comult",), ("comult", "unit", "id"), ("mult", "mult"),
     ("mult",), ("counit",)),
    (("cup",), ("comult", "unit", "id"), ("mult", "mult"), ("cap",)),
    (("unit", "unit"), ("mult",), ("counit",)),
    (("cup", "cup"), ("id", "mult", "id"), ("mult", "id"), ("cap",)),
    (("cup", "unit"), ("swap", "id"), ("id", "mult"), ("cap",)),
    (("unit", "cup"), ("mult", "counit"), ("counit",)),
    (("cup", "unit"), ("counit", "id", "comult"), ("mult", "id"), ("cap",)),
    (("unit", "cup"), ("comult", "id", "counit"), ("mult", "id"),
     ("mult",), ("counit",)),
)


def _shared_pass_words():
    """Closed words for the prefix-shared pass: drawn ones, the genus
    words, the multi-generator ones, their id-padded closed forms, and
    a few repeats, so several words end at one trie node."""
    words = [word for _, word in _drawn_words(43)]
    for g in range(4):
        words += [canonical_genus_word(g), *alternate_genus_words(g)]
    words += [CobordismWord(layers) for layers in MULTI_GENERATOR_WORDS]
    padded = [CobordismWord(layers) for word in words
              for layers in _id_padded(word.layers)]
    words += [word for word in padded if word.is_closed()]
    return words + words[:5]


def test_the_prefix_shared_pass_matches_the_fraction_word_oracle():
    words = _shared_pass_words()
    algebras = [load(name) for name in CORPUS_ALGEBRAS]
    algebras += _stock_frobenius_algebras()
    algebras.append(_non_trace_mat2())
    for name in ("ksquared.algebra", "fib.algebra", "mat2.algebra"):
        algebras += _raised(load(name))
    for a in algebras:
        try:
            a._pairing_inverse
        except DegeneratePairingError:
            with pytest.raises(DegeneratePairingError):
                tqft._evaluate_words(a, words)
            continue
        expected = [fraction_word(a, word).get((), Fraction(0))
                    for word in words]
        assert tqft._evaluate_words(a, words) == expected, a.names
        assert tqft._evaluate_words(a, words[:1]) == expected[:1]


def test_validation_and_suite_eliminate_the_pairing_once(monkeypatch):
    # one [g | den * I] inverse, whose rank names a degenerate pairing
    valid = load("fib.algebra")
    bad = FrobeniusAlgebra(
        ("1", "x"),
        mult_form(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
        (1, 0), (1, 0))
    calls = []
    eliminate = exact._eliminate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(exact, "_eliminate", counted)
    assert validate_frobenius(valid).ok
    assert invariance_suite(valid, trials=5, max_genus=2).ok
    assert calls == [2 * valid.dim]
    assert validate_frobenius(bad).entries == [
        "pairing eps(e_i e_j) is degenerate: rank 1 of 2"]
    assert calls == [2 * valid.dim, 2 * bad.dim]


def test_random_words_repeat_for_a_seed():
    assert _drawn_words(7) == _drawn_words(7)
    assert _drawn_words(7) != _drawn_words(8)
    with pytest.raises(ValueError, match="negative genus"):
        random_genus_word(-1, random.Random(0))


def test_transport_preserves_validation_and_invariants():
    a = load("z3group.algebra")
    rng = random.Random(9)
    p = random_invertible(a.dim, rng)
    moved = transport_basis(a, p)
    assert validate_frobenius(moved).ok
    for g in range(4):
        assert genus_invariant(moved, g) == genus_invariant(a, g)


def test_transport_basis_matches_the_product_oracle(monkeypatch):
    # the conjugation runs on integer forms: no product of elements
    monkeypatch.setattr(tqft, "multiply_elements", None)
    rng = random.Random(70)
    algebras = [load(name) for name in CORPUS_ALGEBRAS]
    for a in algebras + list(_stock_frobenius_algebras()):
        for _ in range(5):
            p = random_invertible(a.dim, rng)
            moved = transport_basis(a, p)
            mult, unit, counit = transport_by_products(a, p)
            assert fraction_constants(moved.mult) == {
                (i, j, k): x for i, plane in enumerate(mult)
                for j, fibre in enumerate(plane) for k, x in enumerate(fibre)}
            assert moved.unit == tuple(unit)
            assert moved.counit == tuple(counit)


def test_random_invertible_matches_the_fraction_construction():
    for dim in range(7):
        for seed in range(20):
            rng, twin = random.Random(seed), random.Random(seed)
            p = random_invertible(dim, rng)
            assert p == Matrix(fraction_random_invertible(dim, twin),
                               cols=dim)
            assert rng.getstate() == twin.getstate()


def test_perturbed_multiplication_breaks_invariance():
    a = load("ksquared.algebra")
    data = dict(fraction_constants(a.mult))
    data[(0, 0, 0)] = Fraction(2)
    broken = FrobeniusAlgebra(a.names, mult_form(a.dim, data), a.unit,
                              a.counit)
    report = invariance_suite(broken, trials=4, seed=3, max_genus=2)
    assert not report.ok


# ---------------------------------------------------------------------------
# word typing


def test_word_arity_errors_name_the_layer():
    with pytest.raises(WordTypeError, match="layer 1"):
        CobordismWord((("unit",), ("mult",), ("counit",))).signature()
    with pytest.raises(WordTypeError, match="unknown generator"):
        CobordismWord((("spin",),))


def test_open_word_returns_tensor():
    a = load("ksquared.algebra")
    result = evaluate_word(a, CobordismWord((("unit",), ("comult",))))
    assert isinstance(result, WordTensor)
    assert result.outputs == 2
    total = {}
    d = fraction_constants(comultiplication_tensor(a))
    for i, u in enumerate(a.unit):
        if not u:
            continue
        for p in range(a.dim):
            for k in range(a.dim):
                if d[i, p, k]:
                    total[(p, k)] = total.get((p, k), 0) + u * d[i, p, k]
    assert result.as_dict() == total


def test_word_with_inputs_evaluates_to_multilinear_map():
    a = load("ksquared.algebra")
    result = evaluate_word(a, CobordismWord((("mult",),)))
    assert result.inputs == 2 and result.outputs == 1
    expected = {ijk: v for ijk, v in fraction_constants(a.mult).items() if v}
    assert result.as_dict() == expected
    identity = evaluate_word(a, CobordismWord((("id",),)))
    assert identity.as_dict() == {(i, i): Fraction(1) for i in range(a.dim)}


ORACLE_WORDS = (
    (("mult",),), (("comult",),), (("swap",), ("mult",)),
    (("unit",), ("comult",)), (("cup",), ("mult",)), (("cap",),),
    (("id", "cup"), ("cap", "id")), (("cup", "id"), ("id", "mult")),
    (("comult",), ("id", "comult"), ("mult", "id"), ("mult",)),
    (("comult", "unit"), ("swap", "id"), ("id", "mult"), ("cap",)),
    # a generator that changes the strand count before one at offset > 0
    (("mult", "comult"),), (("cap", "id", "comult"),),
    (("comult", "counit", "mult"),), (("counit", "swap"),),
)


def test_words_match_the_fraction_state_oracle():
    algebras = [load(name) for name in CORPUS_ALGEBRAS]
    words = [CobordismWord(layers) for layers in ORACLE_WORDS]
    for g in range(3):
        words += [canonical_genus_word(g), *alternate_genus_words(g)]
    # basis changes give rational structure constants and counits
    rng = random.Random(71)
    moved = [transport_basis(a, random_invertible(a.dim, rng))
             for a in algebras]
    for a in algebras + list(_stock_frobenius_algebras()) + moved:
        for word in words:
            expected = fraction_word(a, word)
            got = evaluate_word(a, word)
            if word.is_closed():
                assert got == expected.get((), 0)
                assert type(got) is Fraction
            else:
                assert got.as_dict() == expected
                assert all(type(v) is Fraction for _, v in got.entries)


def _id_padded(layers):
    """The word with a layer of `id`s after every layer that leaves
    strands, and with one more strand passed through on the left, and
    on the right, of every layer."""
    between = []
    for layer in layers:
        between.append(layer)
        width = sum(GENERATORS[g][1] for g in layer)
        if width:
            between.append(("id",) * width)
    return (tuple(between), tuple(("id",) + layer for layer in layers),
            tuple(layer + ("id",) for layer in layers))


def test_id_padded_words_match_the_fraction_state_oracle():
    # an `id` copies its index without a table look-up
    words = [CobordismWord(layers) for layers in ORACLE_WORDS]
    for g in range(3):
        words += [canonical_genus_word(g), *alternate_genus_words(g)]
    for name in CORPUS_ALGEBRAS:
        a = load(name)
        for word in words:
            for layers in _id_padded(word.layers):
                padded = CobordismWord(layers)
                expected = fraction_word(a, padded)
                got = evaluate_word(a, padded)
                if padded.is_closed():
                    assert got == expected.get((), 0), (name, layers)
                else:
                    assert got.as_dict() == expected, (name, layers)
        assert "id" not in a._word_tables


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS)
def test_snake_identities_as_words(name):
    a = load(name)
    left_snake = CobordismWord((("id", "cup"), ("cap", "id")))
    right_snake = CobordismWord((("cup", "id"), ("id", "cap")))
    identity = {(i, i): Fraction(1) for i in range(a.dim)}
    assert evaluate_word(a, left_snake).as_dict() == identity
    assert evaluate_word(a, right_snake).as_dict() == identity


# ---------------------------------------------------------------------------
# the stock algebras, which write integer planes, against the dict-literal
# constructions they replaced


def test_stock_algebras_match_their_dict_constructions():
    cases = [(field_algebra(), reference_field_algebra()),
             (dual_numbers_algebra(), reference_dual_numbers_algebra())]
    for n in range(5):
        cases.append((product_field_algebra(n),
                      reference_product_field_algebra(n)))
    for n in range(1, 4):
        cases.append((matrix_algebra(n), reference_matrix_algebra(n)))
    # Z/n, Z/3 with its identity last, and S3 under given names
    tables = [cyclic_table(n) for n in range(1, 6)]
    tables.append([[(i + j + 1) % 3 for j in range(3)] for i in range(3)])
    for table in tables:
        cases.append((group_algebra(table), reference_group_algebra(table)))
    names = tuple("abcdef")
    cases.append((group_algebra(s3_cayley_table(), names),
                  reference_group_algebra(s3_cayley_table(), names)))
    for algebra, reference in cases:
        assert algebra_data(algebra) == reference
        # the integer form is stored reduced; these tables are all 0 and 1
        planes, den = algebra.mult
        assert den == 1 and {x for plane in planes for fibre in plane
                             for x in fibre} <= {0, 1}


# ---------------------------------------------------------------------------
# from fusion rings


def test_frobenius_from_fusion_z2_is_the_group_algebra():
    built = frobenius_from_fusion(load("z2.fusion"))
    group = load("z2group.algebra")
    assert built.mult == group.mult
    assert built.unit == group.unit
    assert built.counit == group.counit


def test_frobenius_from_fusion_fib_pairing_is_dual_permutation():
    fib = load("fib.fusion")
    built = frobenius_from_fusion(fib)
    g = pairing_matrix(built)
    expected = Matrix([[int(fib.dual[a] == b) for b in range(2)]
                       for a in range(2)])
    assert g == expected


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_frobenius_from_fusion_torus_equals_rank(name):
    ring = load(name)
    built = frobenius_from_fusion(ring)
    assert validate_frobenius(built).ok
    assert genus_invariant(built, 1) == ring.rank


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_algebra_invariants_agree_with_surface_dimensions(name):
    ring = load(name)
    built = frobenius_from_fusion(ring)
    for g in range(4):
        assert genus_invariant(built, g) == dim_V(ring, ColouredSurface(g))


@pytest.mark.parametrize("rank, max_coeff", [(3, 2), (4, 1)])
def test_algebra_invariants_agree_with_surface_dimensions_at_high_genus(
        rank, max_coeff):
    # two independent paths: one handle step per genus on the algebra,
    # and repeated squaring of R_h on the ring
    rings = enumerate_fusion_rings(rank, max_coeff)
    assert rings
    for ring in rings:
        values = tqft._genus_invariants(frobenius_from_fusion(ring), 1000)
        for g in (0, 1, 2, 3, 10, 100, 1000):
            assert values[g] == dim_V(ring, ColouredSurface(g)), (ring, g)


def test_degenerate_fusion_pairing_raises():
    # tau * tau = 0 kills the pairing
    broken = FusionRing(dual=(0, 1), unit=(0,),
                        table=ring_table(cyclic_ring(2), {(1, 1, 0): 0}))
    with pytest.raises(DegeneratePairingError):
        frobenius_from_fusion(broken)


def test_genus_invariants_match_the_fraction_product_loop():
    # each algebra and five basis changes of it, whose structure tensors
    # are integer planes over nontrivial denominators
    rng = random.Random(31)
    bases = [load(name) for name in CORPUS_ALGEBRAS]
    bases.extend(_stock_frobenius_algebras())
    for a in bases:
        for moved in [a] + [transport_basis(a, random_invertible(a.dim, rng))
                            for _ in range(5)]:
            expected = genus_invariants(moved, 30)
            assert [genus_invariant(moved, g) for g in range(31)] == expected


def _perfbench_modules(monkeypatch):
    """perfbench's generator and oracle, whose genus invariants are
    closed forms in the algebra's kind."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    return (importlib.import_module("gen"),
            importlib.import_module("oracle"))


@pytest.mark.parametrize("order", [range(7), range(6, -1, -1),
                                   (3, 0, 6, 1, 4, 2, 5, 3)])
def test_genus_invariants_in_any_order_match_the_closed_forms(
        order, monkeypatch):
    # the squares each call leaves on the algebra must serve later calls
    # of any genus, higher or lower
    gen, closed = _perfbench_modules(monkeypatch)
    specs = [gen.cyclic_group(3), gen.s3_group(), gen.matrix_alg(2),
             gen.product_alg((Fraction(1, 2), Fraction(3), Fraction(-2))),
             gen.dual_numbers(), gen.fusion_alg(gen.fibonacci())]
    for spec in specs:
        a = formats.parse("algebra", spec.text()).payload
        table = tqft._genus_invariants(a, 6)
        for g in order:
            assert genus_invariant(a, g) == table[g] == (
                closed.genus_invariant(spec, g)), (spec.closed, g)


def test_a_high_genus_invariant_leaves_no_squares_behind():
    # the squares of the handle action that genus 300000 needs take about
    # 510 KiB; none may outlive the call
    a = load("fib.algebra")
    assert genus_invariant(a, 1) == 2  # the record's own data, built first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        genus_invariant(a, 300000)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 16 * 1024


def test_genus_invariants_keep_the_product_order_off_associativity():
    # three of the five raised copies are not associative, so there
    # w (w w) and (w w) w can differ; genus_invariant must multiply on
    # the right, as the oracle does
    for a in _raised(load("fib.algebra")):
        assert [genus_invariant(a, g) for g in range(8)] == (
            genus_invariants(a, 7))


def test_squared_and_stepped_invariants_match_the_fraction_loop_to_200():
    # genus_invariant squares the handle action, _genus_invariants steps
    # it; both against one Fraction product per genus, on every corpus
    # and stock algebra and a basis change of each (denominators), the
    # non-trace M_2, and non-associative raised copies of fib and of it
    rng = random.Random(53)
    algebras = [load(name) for name in CORPUS_ALGEBRAS]
    algebras.extend(_stock_frobenius_algebras())
    algebras.extend([transport_basis(a, random_invertible(a.dim, rng))
                     for a in algebras])
    algebras.append(_non_trace_mat2())
    algebras.extend(list(_raised(load("fib.algebra")))[:2])
    algebras.extend(list(_raised(_non_trace_mat2()))[:2])
    genera = sorted({*range(9), 200, *rng.sample(range(9, 200), 8)})
    for a in algebras:
        expected = genus_invariants(a, 200)
        assert tqft._genus_invariants(a, 200) == expected, a
        got = [genus_invariant(a, g) for g in genera]
        assert got == [expected[g] for g in genera], a


def test_closed_words_on_a_degenerate_algebra_build_only_their_tables():
    bad = FrobeniusAlgebra(
        ("1", "x"),
        mult_form(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
        (1, 0), (1, 0))
    sphere = CobordismWord((("unit",), ("counit",)))
    pairing_trace = CobordismWord((("cup",), ("cap",)))
    for _ in range(2):
        assert evaluate_word(bad, sphere) == 1
        with pytest.raises(DegeneratePairingError, match="rank 1 of 2"):
            evaluate_word(bad, pairing_trace)
    assert genus_invariant(bad, 0) == 1


def test_degenerate_words_raise_in_either_layer_order():
    # k^3 with counit (1, -1, 0): the pairing has rank 2 and eps(1) = 0,
    # so the sphere's state vanishes before the later layers
    k3 = product_field_algebra(3)
    bad = FrobeniusAlgebra(k3.names, k3.mult, k3.unit, (1, -1, 0))
    assert evaluate_word(bad, CobordismWord((("unit",), ("counit",)))) == 0
    for layers in ((("unit",), ("counit",), ("cup",), ("cap",)),
                   (("cup",), ("cap",), ("unit",), ("counit",)),
                   (("unit",), ("counit",), ("unit",), ("comult",),
                    ("mult",), ("counit",))):
        with pytest.raises(DegeneratePairingError, match="rank 2 of 3"):
            evaluate_word(bad, CobordismWord(layers))
    assert evaluate_word(
        bad, CobordismWord((("unit",), ("counit",), ("unit",), ("id",),
                            ("counit",)))) == 0


def test_handle_element_values():
    z2 = load("z2group.algebra")
    assert handle_element(z2) == (Fraction(2), Fraction(0))
    fib = load("fib.algebra")
    assert handle_element(fib) == (Fraction(2), Fraction(1))


def test_derived_data_is_computed_once_per_algebra():
    a, b = load("fib.algebra"), load("fib.algebra")
    assert pairing_matrix(a) is pairing_matrix(a)
    assert comultiplication_tensor(a) is comultiplication_tensor(a)
    assert handle_element(a) is handle_element(a)
    # the cached values take no part in equality or hashing
    assert a == b and hash(a) == hash(b)


def test_degenerate_pairing_is_reported_on_every_request():
    bad = FrobeniusAlgebra(
        ("1", "x"),
        mult_form(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
        (1, 0), (1, 0))
    for _ in range(2):
        with pytest.raises(DegeneratePairingError, match="rank 1 of 2"):
            handle_element(bad)


def test_invariance_suite_refuses_a_degenerate_pairing_without_words():
    # no word of genus 0 needs cup, cap or comult, so only the pairing's
    # own check can see that its rank is 1 of 2
    bad = FrobeniusAlgebra(
        ("1", "x"),
        mult_form(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
        (1, 0), (1, 0))
    for trials in (0, 3):
        with pytest.raises(DegeneratePairingError, match="rank 1 of 2"):
            invariance_suite(bad, trials=trials, max_genus=0)
    assert invariance_entries(bad, [("canonical word", 0,
                                     canonical_genus_word(0))]) is None


def test_algebra_is_freed_after_an_invariance_suite():
    # a counit no other test uses, so no equal algebra was seen before
    mat2 = load("mat2.algebra")
    algebra = FrobeniusAlgebra(mat2.names, mat2.mult, mat2.unit,
                               tuple(Fraction(7, 3) * c for c in mat2.counit))
    del mat2
    ref = weakref.ref(algebra)
    assert invariance_suite(algebra, trials=2, max_genus=2).ok
    del algebra
    gc.collect()
    assert ref() is None


def _renamed(a: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """`a` under other basis names: the same structure."""
    return FrobeniusAlgebra(tuple(f"r{i}" for i in range(a.dim)), a.mult,
                            a.unit, a.counit)


def _counted_eliminations(monkeypatch) -> list:
    calls = []
    eliminate = exact._eliminate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(exact, "_eliminate", counted)
    return calls


def test_algebras_that_differ_only_in_names_share_one_record(monkeypatch):
    calls = _counted_eliminations(monkeypatch)
    a = load("fib.algebra")
    b = _renamed(a)
    assert invariance_suite(a, trials=5, max_genus=2).ok
    assert calls == [2 * a.dim]
    assert invariance_suite(b, trials=5, max_genus=2).ok
    assert validate_frobenius(b).ok
    assert calls == [2 * a.dim]
    assert b._derived is a._derived
    assert b._word_tables is a._word_tables
    assert tqft._derived_record.cache_info().currsize == 1


def test_algebras_of_another_unit_counit_or_mult_share_nothing(monkeypatch):
    calls = _counted_eliminations(monkeypatch)
    a = load("fib.algebra")
    planes, den = a.mult
    other_unit = FrobeniusAlgebra(a.names, a.mult, (2, 0), a.counit)
    scaled_counit = FrobeniusAlgebra(
        a.names, a.mult, a.unit, tuple(Fraction(7, 3) * c for c in a.counit))
    # the same numerators over another denominator
    halved = FrobeniusAlgebra(a.names, (planes, 2 * den), a.unit, a.counit)
    sphere = CobordismWord((("unit",), ("counit",)))
    assert evaluate_word(a, sphere) == 1
    assert genus_invariant(a, 2) == 5
    for b in (other_unit, scaled_counit, halved):
        assert evaluate_word(b, sphere) == fraction_word(b, sphere)[()]
        assert genus_invariant(b, 2) == genus_invariants(b, 2)[2]
        assert b._derived is not a._derived
    assert evaluate_word(other_unit, sphere) == 2
    assert pairing_matrix(scaled_counit) == pairing_matrix(a).scale(
        Fraction(7, 3))
    assert pairing_matrix(halved) == pairing_matrix(a).scale(Fraction(1, 2))
    # other_unit has a's pairing, but its own record eliminates it again
    assert calls == [2 * a.dim] * 4
    assert tqft._derived_record.cache_info().currsize == 4


def _ksquared_with_counit(c) -> FrobeniusAlgebra:
    k2 = load("ksquared.algebra")
    return FrobeniusAlgebra(k2.names, k2.mult, k2.unit, (1, c))


def test_the_table_holds_its_bound_and_drops_the_least_recent_record():
    bound = tqft.DERIVED_RECORDS
    first = [_ksquared_with_counit(c)._derived for c in range(1, bound + 1)]
    assert tqft._derived_record.cache_info().currsize == bound
    # a second algebra of structure 1 makes it the most recently used
    assert _ksquared_with_counit(1)._derived is first[0]
    _ksquared_with_counit(bound + 1)._derived
    assert tqft._derived_record.cache_info().currsize == bound
    # so 1 and 3 were kept, and 2 was dropped and gets a new record
    assert _ksquared_with_counit(1)._derived is first[0]
    assert _ksquared_with_counit(3)._derived is first[2]
    assert _ksquared_with_counit(2)._derived is not first[1]
    assert tqft._derived_record.cache_info().currsize == bound


def test_an_evicted_record_is_freed():
    a = _ksquared_with_counit(1)
    assert genus_invariant(a, 3) == 2
    ref = weakref.ref(a._derived)
    del a
    for c in range(2, tqft.DERIVED_RECORDS + 2):
        _ksquared_with_counit(c)._derived
    gc.collect()
    assert ref() is None


def test_a_degenerate_pairing_raises_for_every_equal_algebra(monkeypatch):
    calls = _counted_eliminations(monkeypatch)
    bad = FrobeniusAlgebra(
        ("1", "x"),
        mult_form(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
        (1, 0), (1, 0))
    for b in (bad, _renamed(bad), _renamed(bad)):
        for _ in range(2):
            with pytest.raises(DegeneratePairingError, match="rank 1 of 2"):
                handle_element(b)
            with pytest.raises(DegeneratePairingError, match="rank 1 of 2"):
                invariance_suite(b, trials=2, max_genus=1)
            assert validate_frobenius(b).entries == [
                "pairing eps(e_i e_j) is degenerate: rank 1 of 2"]
    # the failed inverse is never kept: every request eliminates again
    assert calls == [2 * bad.dim] * 18


def test_parsing_and_algebra_calls_make_no_lookup(monkeypatch):
    def no_lookup(*args):
        raise AssertionError("derived data looked up")

    monkeypatch.setattr(tqft, "_derived_record", no_lookup)
    for name in CORPUS_ALGEBRAS:
        a = load(name)
        text = formats.serialize("algebra", a)
        assert formats.parse("algebra", text).payload == a
        assert trace_form_semisimple(a)[0] == (name != "dual_numbers.algebra")
    for n in (1, 2):
        algebra = matrix_algebra(n)
        assert trace_form_semisimple(algebra)[0]
        assert verify_separability_idempotent(
            algebra, matrix_separability_idempotent(n)).ok
    table = cyclic_table(3)
    assert verify_separability_idempotent(
        group_algebra(table), group_separability_idempotent(table)).ok


def _outcome(call, *args):
    try:
        result = call(*args)
    except DegeneratePairingError as err:
        return "raises", str(err)
    if isinstance(result, Report):
        return result.entries, result.checked
    return result


def _public_results(a: FrobeniusAlgebra, cold: bool) -> list:
    """Every public result on a fresh copy of `a` per call; with `cold`
    the table of derived data is emptied before each call."""
    calls = [(validate_frobenius,)]
    calls += [(invariance_suite, 3, seed, 2) for seed in (0, 1, 2)]
    calls += [(genus_invariant, g) for g in range(9)]
    calls += [(evaluate_word, CobordismWord(layers))
              for layers in ORACLE_WORDS]
    results = []
    for call, *args in calls:
        if cold:
            tqft._derived_record.cache_clear()
        copy = FrobeniusAlgebra(a.names, a.mult, a.unit, a.counit)
        results.append(_outcome(call, copy, *args))
    return results


def test_every_result_is_equal_on_a_cold_and_a_warm_table():
    algebras = [load(name) for name in CORPUS_ALGEBRAS]
    rng = random.Random(72)
    moved = [transport_basis(a, random_invertible(a.dim, rng))
             for a in algebras]
    algebras += list(_stock_frobenius_algebras()) + moved
    for name in ("ksquared.algebra", "fib.algebra", "mat2.algebra"):
        algebras += _raised(load(name))
    k2, m2 = load("ksquared.algebra"), load("mat2.algebra")
    planes, den = m2.mult
    algebras += [FrobeniusAlgebra(k2.names, k2.mult, (1, 0), k2.counit),
                 FrobeniusAlgebra(k2.names, k2.mult, k2.unit, (1, 0)),
                 FrobeniusAlgebra(m2.names, (planes, 3 * den), m2.unit,
                                  m2.counit)]
    cold = [_public_results(a, cold=True) for a in algebras]
    tqft._derived_record.cache_clear()
    for a, expected in zip(algebras, cold):
        _public_results(_renamed(a), cold=False)
        assert _public_results(a, cold=False) == expected, a


def test_invariance_under_direct_sum_at_genus_one():
    # genus-one invariant is the dimension, which adds under direct sum
    a = load("ksquared.algebra")
    b = load("z2group.algebra")
    n, m = a.dim, b.dim
    data = {}
    for (i, j, k), v in fraction_constants(a.mult).items():
        data[(i, j, k)] = v
    for (i, j, k), v in fraction_constants(b.mult).items():
        data[(i + n, j + n, k + n)] = v
    together = FrobeniusAlgebra(
        tuple(f"a{i}" for i in range(n)) + tuple(f"b{i}" for i in range(m)),
        mult_form(n + m, data),
        a.unit + b.unit, a.counit + b.counit)
    assert validate_frobenius(together).ok
    assert genus_invariant(together, 1) == n + m
    for g in range(4):
        assert genus_invariant(together, g) == (
            genus_invariant(a, g) + genus_invariant(b, g))
