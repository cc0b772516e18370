"""Presented categories, completions, semisimplicity, separability."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import load
from verlinde import categories, tqft
from oracles import (associativity_failures, s3_cayley_table,
                     separability_entries, trace_form_gram)
from verlinde.categories import (CategoryFormatError, DEFAULT_GRID,
                                 KaroubiCategory, PresentedCategory,
                                 field_category, karoubi_completion,
                                 karoubi_idempotents, karoubi_object_name,
                                 mat_completion, matrix_algebra_category,
                                 one_object_category, tensor_product,
                                 validate_category)
from verlinde.tqft import (Algebra, cyclic_table, dual_numbers_algebra,
                           field_algebra, group_algebra,
                           group_separability_idempotent, matrix_algebra,
                           matrix_separability_idempotent,
                           product_field_algebra,
                           product_field_separability_idempotent,
                           trace_form_semisimple,
                           verify_separability_idempotent)
from verlinde.exact import Matrix


def test_field_category_is_valid():
    assert validate_category(field_category()).ok


def test_matrix_algebra_category_is_valid():
    assert validate_category(matrix_algebra_category(2)).ok


def test_broken_associativity_names_the_triple():
    cat = PresentedCategory(
        objects=("x",),
        hom={("x", "x"): ("u", "a", "b")},
        compose={
            ("u", "u"): {"u": 1},
            ("u", "a"): {"a": 1}, ("a", "u"): {"a": 1},
            ("u", "b"): {"b": 1}, ("b", "u"): {"b": 1},
            ("a", "b"): {"u": 1},
            # b.a = 0, a.a = 0, b.b = 0 -> (a b) a = a but a (b a) = 0
        },
        identities={"x": {"u": 1}})
    report = validate_category(cat)
    assert not report.ok
    assert any("(a,b,a)" in e for e in report.entries)


def _with_table(cat: PresentedCategory, table) -> PresentedCategory:
    return PresentedCategory(
        objects=cat.objects, hom=dict(cat.hom_pairs()), compose=table,
        identities={p: cat.identity_coeffs(p) for p in cat.objects})


def _perturbed(cat: PresentedCategory, change):
    """One copy of `cat` per structure constant c, with c -> change(c)."""
    base = {gf: dict(combo) for gf, combo in sorted(cat.table_items())}
    for gf, combo in base.items():
        for h in combo:
            table = {key: dict(c) for key, c in base.items()}
            table[gf][h] = change(table[gf][h])
            yield _with_table(cat, table)


def _rescaled(cat: PresentedCategory, scale) -> PresentedCategory:
    """The same category on the basis b' = scale[b] * b."""
    table = {(g, f): {h: scale[g] * scale[f] * c / scale[h]
                      for h, c in combo.items()}
             for (g, f), combo in cat.table_items()}
    return PresentedCategory(
        objects=cat.objects, hom=dict(cat.hom_pairs()), compose=table,
        identities={p: {b: c / scale[b]
                        for b, c in cat.identity_coeffs(p).items()}
                    for p in cat.objects})


def _named_triples(report) -> list[str]:
    # basis names contain no spaces, so the first "): " closes the triple
    return sorted(e[:e.index("): ") + 1] for e in report.entries
                  if e.startswith("associativity on "))


def _composable_triples(cat: PresentedCategory) -> int:
    types = [pq for pq, basis in cat.hom_pairs() for _ in basis]
    return sum(1 for h in types for g in types for f in types
               if f[1] == g[0] and g[1] == h[0])


# M_2 with denominators 2 and 3: e01'.e10' = e00'/2, e10'.e01' = e11'/3
_M2_SCALE = {"e00": Fraction(2), "e01": Fraction(1), "e10": Fraction(1),
             "e11": Fraction(3)}

PERTURBED = {
    "m2-doubled": lambda: _perturbed(matrix_algebra_category(2),
                                     lambda c: 2 * c),
    "m2-thirds-plus-sixth": lambda: _perturbed(
        _rescaled(matrix_algebra_category(2), _M2_SCALE),
        lambda c: c + Fraction(1, 6)),
    "karoubi-k2": lambda: _perturbed(
        karoubi_completion(product_field_algebra(2).to_category()),
        lambda c: c + 1),
    "mat-field-2": lambda: _perturbed(mat_completion(field_category(), 2),
                                      lambda c: -c),
    "tensor-m2-k2": lambda: _perturbed(
        tensor_product(matrix_algebra_category(2),
                       product_field_algebra(2).to_category()),
        lambda c: c + Fraction(1, 2)),
}


@pytest.mark.parametrize("name", sorted(PERTURBED))
def test_validate_names_exactly_the_oracle_triples(name):
    for cat in PERTURBED[name]():
        report = validate_category(cat)
        expected = associativity_failures(cat)
        assert expected
        assert _named_triples(report) == sorted(
            f"associativity on ({h},{g},{f})" for h, g, f in expected)
        assert report.checked == (2 * sum(len(b) for _, b in cat.hom_pairs())
                                  + _composable_triples(cat))


def test_rescaled_m2_with_thirds_is_valid():
    cat = _rescaled(matrix_algebra_category(2), _M2_SCALE)
    denominators = {c.denominator for _, combo in cat.table_items()
                    for c in combo.values()}
    assert denominators == {1, 2, 3}
    assert validate_category(cat).ok
    assert not associativity_failures(cat)


def test_doubled_m2_constant_report_text_is_pinned():
    base = matrix_algebra_category(2)
    table = {gf: dict(combo) for gf, combo in base.table_items()}
    table[("e00", "e00")]["e00"] = Fraction(2)
    report = validate_category(_with_table(base, table))
    assert report.entries == [
        "identity law: id_x . e00 = {'e00': Fraction(2, 1)} != e00",
        "identity law: e00 . id_x = {'e00': Fraction(2, 1)} != e00",
        "associativity on (e00,e00,e01): "
        "{'e01': Fraction(2, 1)} != {'e01': Fraction(1, 1)}",
        "associativity on (e00,e01,e10): "
        "{'e00': Fraction(1, 1)} != {'e00': Fraction(2, 1)}",
        "associativity on (e01,e10,e00): "
        "{'e00': Fraction(2, 1)} != {'e00': Fraction(1, 1)}",
        "associativity on (e10,e00,e00): "
        "{'e10': Fraction(1, 1)} != {'e10': Fraction(2, 1)}",
    ]


def test_karoubi_mat2_counts_checked_equations():
    completed = karoubi_completion(matrix_algebra_category(2))
    assert len(completed._basis) == 289
    # Light's test: 33 generators, the 10,693 composable triples through
    # them (of 104,329) and 33 * (2 * 289 - 33 + 1) certificate lookups
    assert validate_category(completed).checked == (
        2 * 289 + 10_693 + 18_018)


def test_identity_law_failure_reported():
    cat = PresentedCategory(
        objects=("x",),
        hom={("x", "x"): ("u",)},
        compose={("u", "u"): {"u": Fraction(1, 2)}},
        identities={"x": {"u": 1}})
    report = validate_category(cat)
    assert any("identity law" in e for e in report.entries)


def test_structural_errors_are_load_errors():
    with pytest.raises(CategoryFormatError):
        PresentedCategory(objects=("x",), hom={("x", "y"): ("f",)},
                          compose={}, identities={})
    with pytest.raises(CategoryFormatError):
        PresentedCategory(objects=("x",), hom={("x", "x"): ("f", "f")},
                          compose={}, identities={"x": {"f": 1}})
    with pytest.raises(CategoryFormatError):
        PresentedCategory(objects=("x",), hom={("x", "x"): ("f",)},
                          compose={("f", "g"): {"f": 1}},
                          identities={"x": {"f": 1}})


# ---------------------------------------------------------------------------
# Mat completion


def test_mat_completion_of_field_bound_two():
    completed = mat_completion(field_category(), bound=2)
    assert "[]" in completed.objects
    assert completed.hom_dim("[x,x]", "[x,x]") == 4
    assert validate_category(completed).ok
    # the endomorphisms of [x,x] are the 2x2 matrix algebra
    endo = Algebra.from_category(
        PresentedCategory(
            objects=("[x,x]",),
            hom={("[x,x]", "[x,x]"): completed.hom("[x,x]", "[x,x]")},
            compose={(g, f): completed.compose_basis(g, f)
                     for g in completed.hom("[x,x]", "[x,x]")
                     for f in completed.hom("[x,x]", "[x,x]")
                     if completed.compose_basis(g, f)},
            identities={"[x,x]": completed.identity_coeffs("[x,x]")}))
    reference = matrix_algebra(2)
    assert endo.mult == reference.mult
    assert endo.unit == reference.unit


def test_mat_completion_bound_one_is_base_plus_zero():
    base = matrix_algebra_category(2)
    completed = mat_completion(base, bound=1)
    assert completed.objects == ("[]", "[x]")
    assert completed.hom_dim("[x]", "[x]") == 4
    assert completed.hom_dim("[]", "[]") == 0
    assert validate_category(completed).ok


def test_mat_completion_hom_dims_are_additive():
    base = PresentedCategory(
        objects=("x", "y"),
        hom={("x", "x"): ("u",), ("y", "y"): ("v",), ("x", "y"): ("f",)},
        compose={("u", "u"): {"u": 1}, ("v", "v"): {"v": 1},
                 ("f", "u"): {"f": 1}, ("v", "f"): {"f": 1}},
        identities={"x": {"u": 1}, "y": {"v": 1}})
    assert validate_category(base).ok
    completed = mat_completion(base, bound=2)
    assert validate_category(completed).ok
    for p in base.objects:
        for q in base.objects:
            for r in base.objects:
                two = f"[{p},{q}]"
                one = f"[{r}]"
                expected = base.hom_dim(p, r) + base.hom_dim(q, r)
                assert completed.hom_dim(two, one) == expected


def test_mat_completion_rejects_bad_bound():
    with pytest.raises(ValueError):
        mat_completion(field_category(), bound=0)


# ---------------------------------------------------------------------------
# Karoubi completion


def test_karoubi_of_field_has_zero_and_one():
    completed = karoubi_completion(field_category())
    assert completed.objects == ("x(0)", "x(1)")
    assert completed.hom_dim("x(1)", "x(1)") == 1
    assert completed.hom_dim("x(0)", "x(0)") == 0
    assert validate_category(completed).ok


def test_karoubi_splits_rank_one_projector_in_mat2():
    cat = matrix_algebra_category(2)
    completed = karoubi_completion(cat)
    name = karoubi_object_name("x", (1, 0, 0, 0))
    assert name in completed.objects
    assert completed.hom_dim(name, name) == 1
    assert validate_category(completed).ok


def test_karoubi_splits_diag_in_mat_completion_of_field():
    # the additive completion of k at bound 2 contains [x,x] whose
    # endomorphisms are 2x2 matrices; splitting diag(1,0) there gives an
    # object with endomorphism algebra k
    completed = karoubi_completion(mat_completion(field_category(), 2))
    basis = completed.base.hom("[x,x]", "[x,x]")
    assert len(basis) == 4
    coeffs = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    name = completed.object_of(("[x,x]", coeffs))
    assert completed.hom_dim(name, name) == 1


def test_karoubi_retract_splits_every_enumerated_idempotent():
    cat = matrix_algebra_category(2)
    completed = karoubi_completion(cat)
    basis = cat.hom("x", "x")
    ident = tuple(cat.identity_coeffs("x").get(b, Fraction(0))
                  for b in basis)
    for coeffs in karoubi_idempotents(cat, "x"):
        u = cat.morphism("x", "x", dict(zip(basis, coeffs)))
        if u.is_zero():
            continue
        into = completed.embed(("x", ident), ("x", coeffs), u)
        onto = completed.embed(("x", coeffs), ("x", ident), u)
        split_name = completed.object_of(("x", coeffs))
        assert completed.compose(into, onto) == completed.identity(split_name)
        assert completed.compose(onto, into) == completed.embed(
            ("x", ident), ("x", ident), u)


def test_karoubi_triple_law_matches_base_composition():
    cat = matrix_algebra_category(2)
    completed = karoubi_completion(cat)
    rng = random.Random(17)
    names = list(completed.objects)
    for _ in range(60):
        a, b, c = (rng.choice(names) for _ in range(3))
        fs = completed.hom(a, b)
        gs = completed.hom(b, c)
        if not fs or not gs:
            continue
        f = completed.morphism(a, b, {n: Fraction(rng.randint(-2, 2))
                                      for n in fs})
        g = completed.morphism(b, c, {n: Fraction(rng.randint(-2, 2))
                                      for n in gs})
        base_f = _as_base(completed, f)
        base_g = _as_base(completed, g)
        composite = completed.compose(g, f)
        assert _as_base(completed, composite) == cat.compose(base_g, base_f)


def _as_base(completed: KaroubiCategory, m):
    out = None
    for name, coeff in m.coeffs.items():
        term = completed.base_morphism_of(name).scaled(coeff)
        out = term if out is None else out + term
    if out is None:
        src = dict(completed.pairs)  # not informative; fall back to zero
        return completed.base.zero("x", "x")
    return out


def test_embed_inverts_base_morphism_of_on_every_basis_element():
    completed = karoubi_completion(matrix_algebra_category(2))
    pair_of = dict(zip(completed.objects, completed.pairs))
    for (src, dst), basis in completed.hom_pairs():
        for name in basis:
            base = completed.base_morphism_of(name)
            assert completed.embed(pair_of[src], pair_of[dst], base) == (
                completed.basis_morphism(name))


def test_karoubi_object_of_unknown_pair_is_a_named_error():
    completed = karoubi_completion(matrix_algebra_category(2))
    with pytest.raises(CategoryFormatError,
                       match=r"x\(2,0,0,0\) is not an object"):
        completed.object_of(("x", (2, 0, 0, 0)))
    with pytest.raises(CategoryFormatError, match="is not an object"):
        completed.object_of(("y", (1, 0, 0, 0)))


def test_karoubi_embeds_zero_across_an_empty_base_hom():
    # hom([], [x]) is empty in the base, so the carved hom is empty too
    completed = karoubi_completion(mat_completion(field_category(), 1))
    src, dst = ("[]", ()), ("[x]", (1,))
    got = completed.embed(src, dst, completed.base.zero("[]", "[x]"))
    assert got == completed.zero(completed.object_of(src),
                                 completed.object_of(dst))


def test_karoubi_rejects_non_idempotent_with_residual():
    cat = field_category()
    with pytest.raises(CategoryFormatError, match="not idempotent"):
        karoubi_completion(cat, idempotents=[("x", (Fraction(1, 2),))])


def test_karoubi_rejects_unknown_objects_and_wrong_coefficient_counts():
    cat = field_category()
    with pytest.raises(CategoryFormatError,
                       match="unknown base object 'nope'"):
        karoubi_completion(cat, idempotents=[("nope", (1,)),
                                             ("x", (1, 0, 5))])
    with pytest.raises(CategoryFormatError,
                       match=r"3 coefficients but dim End\(x\) = 1"):
        karoubi_completion(cat, idempotents=[("x", (1, 0, 5))])


def test_karoubi_search_refuses_before_trying_any_candidate(monkeypatch):
    # End([x,x]) of the bound-2 Mat completion of M_2 has dim 16: 4^16
    big = mat_completion(matrix_algebra_category(2), 2)

    def tripped(equations, scale, x):
        raise AssertionError(f"candidate {x} tried")

    # every grid candidate goes through `_solves`, and no idempotent is
    # built before the refusal either
    monkeypatch.setattr(categories, "_solves", tripped)
    monkeypatch.setattr(categories, "_idempotent", _tripped)
    too_large = categories.SearchTooLargeError
    assert issubclass(too_large, ValueError)
    with pytest.raises(too_large, match=r"\[x,x\] would try 4\^16 = "
                       r"4294967296 candidates"):
        karoubi_completion(big)
    with pytest.raises(too_large, match=r"\[x,x\]"):
        karoubi_idempotents(big, "[x,x]")


def test_karoubi_search_limit_is_inclusive(monkeypatch):
    # End([x]) has dim 4, so the default grid tries 4^4 = 256 candidates
    big = mat_completion(matrix_algebra_category(2), 2)
    monkeypatch.setattr(categories, "MAX_KAROUBI_CANDIDATES", 256)
    assert len(karoubi_idempotents(big, "[x]")) == len(
        karoubi_idempotents(matrix_algebra_category(2), "x"))
    monkeypatch.setattr(categories, "MAX_KAROUBI_CANDIDATES", 255)
    with pytest.raises(categories.SearchTooLargeError,
                       match=r"\[x\] would try 4\^4 = 256"):
        karoubi_idempotents(big, "[x]")


def _tripped(*args):
    raise AssertionError(f"builder called with {args}")


def test_mat_completion_refuses_before_enumerating_any_object(monkeypatch):
    base = mat_completion(field_category(), 1)  # objects [] and [x]
    monkeypatch.setattr(categories.itertools, "product", _tripped)
    monkeypatch.setattr(categories, "mat_object_name", _tripped)
    too_large = categories.SearchTooLargeError
    # 1 + 2 + ... + 2^7 sequences of length <= 7 over two objects
    with pytest.raises(too_large, match=r"bound 7 would have 255 objects, "
                       r"more than 128"):
        mat_completion(base, 7)
    # a bound past the limit is refused without summing up to it
    with pytest.raises(too_large, match=r"bound 1000000000 would have at "
                       r"least 129 objects"):
        mat_completion(field_category(), 10 ** 9)


def test_mat_completion_object_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(categories, "MAX_COMPLETION_OBJECTS", 3)
    assert len(mat_completion(field_category(), 2).objects) == 3
    monkeypatch.setattr(categories, "MAX_COMPLETION_OBJECTS", 2)
    with pytest.raises(categories.SearchTooLargeError,
                       match=r"bound 2 would have 3 objects, more than 2"):
        mat_completion(field_category(), 2)


def test_karoubi_completion_refuses_before_carving_any_corner(monkeypatch):
    # the default grid finds 289 idempotents in M_2 (x) k^2
    cat = tensor_product(matrix_algebra_category(2),
                         product_field_algebra(2).to_category())
    monkeypatch.setattr(categories, "_Corner", _tripped)
    with pytest.raises(categories.SearchTooLargeError,
                       match=r"Karoubi completion would have 289 objects, "
                       r"more than 128"):
        karoubi_completion(cat)


def test_karoubi_object_limit_counts_supplied_idempotents(monkeypatch):
    cat = matrix_algebra_category(2)
    supplied = [("x", (1, 0, 0, 1)), ("x", (1, 0, 0, 0))]
    monkeypatch.setattr(categories, "MAX_COMPLETION_OBJECTS", 2)
    assert len(karoubi_completion(cat, idempotents=supplied).objects) == 2
    monkeypatch.setattr(categories, "MAX_COMPLETION_OBJECTS", 1)
    monkeypatch.setattr(categories, "_Corner", _tripped)
    with pytest.raises(categories.SearchTooLargeError,
                       match=r"would have 2 objects, more than 1"):
        karoubi_completion(cat, idempotents=supplied)


def test_karoubi_explicit_idempotent_list():
    cat = matrix_algebra_category(2)
    completed = karoubi_completion(
        cat, idempotents=[("x", (1, 0, 0, 1)), ("x", (1, 0, 0, 0))])
    assert len(completed.objects) == 2
    assert validate_category(completed).ok


def _simple_objects(cat) -> list[str]:
    """The objects whose End is k: one basis element, so End is a field
    and the object is indecomposable."""
    return [p for p in cat.objects if cat.hom_dim(p, p) == 1]


def _is_unit_multiple(cat, p, x) -> bool:
    """Whether x is c id_p for some c != 0."""
    ident = cat.identity_coeffs(p)
    c = x.get(next(iter(ident)), 0) / next(iter(ident.values()))
    return c != 0 and x == {b: c * v for b, v in ident.items()}


def _isomorphic(cat, p, q) -> bool:
    """An exact certificate either way for simple objects p and q:
    hom(p, q) = 0 rules an isomorphism out, and basis elements f, g of
    one-dimensional hom(p, q) and hom(q, p) with g f = c id_p and
    f g = c' id_q, c, c' != 0, make f one."""
    if not cat.hom(p, q):
        return False
    (f,), (g,) = cat.hom(p, q), cat.hom(q, p)
    assert _is_unit_multiple(cat, p, cat.compose_basis(g, f))
    assert _is_unit_multiple(cat, q, cat.compose_basis(f, g))
    return True


def test_double_karoubi_preserves_indecomposables_and_hom_dims():
    def summary(cat):
        reps = []
        for p in _simple_objects(cat):
            if not any(_isomorphic(cat, r, p) for r in reps):
                reps.append(p)
        return len(reps), sorted(cat.hom_dim(a, b) for a in reps for b in reps)

    for base, classes in (
            (field_category(), (1, [1])),
            (product_field_algebra(2).to_category(), (2, [0, 0, 1, 1]))):
        once = karoubi_completion(base)
        assert validate_category(once).ok
        twice = karoubi_completion(once)
        assert validate_category(twice).ok
        assert summary(once) == summary(twice) == classes


def test_mat2_karoubi_rank_one_objects_are_one_class():
    completed = karoubi_completion(matrix_algebra_category(2))
    assert len(completed.objects) == 17
    simple = _simple_objects(completed)
    assert len(simple) == 15  # the grid's rank-one idempotents
    for p, q in itertools.combinations(simple, 2):
        assert _isomorphic(completed, p, q)
    # the other two are the zero object and the identity's, End = M_2
    assert sorted(completed.hom_dim(p, p) for p in completed.objects
                  if p not in simple) == [0, 4]


# ---------------------------------------------------------------------------
# tensor product


def test_tensor_with_field_is_isomorphic_to_base():
    base = matrix_algebra_category(2)
    product = tensor_product(field_category(), base)
    # strip the field factor from every name and compare tables
    strip_obj = {f"(x,{p})": p for p in base.objects}
    assert [strip_obj[o] for o in product.objects] == list(base.objects)
    for (g, f), combo in product.table_items():
        g_base = g[len("(u|"):-1]
        f_base = f[len("(u|"):-1]
        stripped = {h[len("(u|"):-1]: c for h, c in combo.items()}
        assert stripped == base.compose_basis(g_base, f_base)
    for ((p1, q1), basis) in product.hom_pairs():
        assert len(basis) == base.hom_dim(strip_obj[p1], strip_obj[q1])


def test_tensor_hom_dimensions_multiply():
    a = matrix_algebra_category(2)
    b = product_field_algebra(2).to_category()
    product = tensor_product(a, b)
    assert validate_category(product).ok
    assert product.hom_dim("(x,x)", "(x,x)") == 8


def test_tensor_product_is_associative_up_to_flattening():
    a = field_category("p", "u")
    b = product_field_algebra(2).to_category("q")
    c = matrix_algebra_category(2, "r")
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))

    def left_key(name):
        # ((f|g)|h) -> (f,g,h)
        inner, h = name[1:-1].rsplit("|", 1)
        f, g = inner[1:-1].split("|", 1)
        return (f, g, h)

    def right_key(name):
        f, inner = name[1:-1].split("|", 1)
        g, h = inner[1:-1].split("|", 1)
        return (f, g, h)

    left_table = {(left_key(g), left_key(f)):
                  {left_key(h): v for h, v in combo.items()}
                  for (g, f), combo in left.table_items()}
    right_table = {(right_key(g), right_key(f)):
                   {right_key(h): v for h, v in combo.items()}
                   for (g, f), combo in right.table_items()}
    assert left_table == right_table


def test_tensor_product_is_symmetric_up_to_swap():
    a = product_field_algebra(2).to_category("p")
    b = matrix_algebra_category(2, "q")
    ab = tensor_product(a, b)
    ba = tensor_product(b, a)

    def swap_key(name):
        f, g = name[1:-1].split("|", 1)
        return (g, f)

    ab_table = {(swap_key(g), swap_key(f)):
                {swap_key(h): v for h, v in combo.items()}
                for (g, f), combo in ab.table_items()}
    ba_table = {((g, f)): combo for (g, f), combo in ba.table_items()}
    ba_keyed = {((g[1:-1].split("|", 1)[0], g[1:-1].split("|", 1)[1]),
                 (f[1:-1].split("|", 1)[0], f[1:-1].split("|", 1)[1])):
                {tuple(h[1:-1].split("|", 1)): v for h, v in combo.items()}
                for (g, f), combo in ba_table.items()}
    ab_keyed = {(tuple(g), tuple(f)): {tuple(h): v for h, v in combo.items()}
                for (g, f), combo in ab_table.items()}
    assert ab_keyed == ba_keyed


# ---------------------------------------------------------------------------
# semisimplicity


def test_trace_form_z2_group_algebra():
    semisimple, gram = trace_form_semisimple(
        group_algebra(cyclic_table(2)))
    assert semisimple
    assert gram == Matrix([[2, 0], [0, 2]])


def test_trace_form_dual_numbers_not_semisimple():
    semisimple, gram = trace_form_semisimple(dual_numbers_algebra())
    assert not semisimple
    assert gram == Matrix([[2, 0], [0, 0]])
    assert gram.rank() == 1


def test_trace_form_componentwise_field_is_identity():
    for n in (2, 3, 4):
        semisimple, gram = trace_form_semisimple(product_field_algebra(n))
        assert semisimple
        assert gram == Matrix.identity(n)


def test_trace_form_matrix_and_group_algebras_semisimple():
    assert trace_form_semisimple(matrix_algebra(2))[0]
    assert trace_form_semisimple(group_algebra(cyclic_table(3)))[0]
    assert trace_form_semisimple(group_algebra(s3_cayley_table()))[0]


def test_trace_form_field():
    assert trace_form_semisimple(field_algebra())[0]


# ---------------------------------------------------------------------------
# separability


def test_group_algebra_separability_idempotent():
    for n in (2, 3):
        table = cyclic_table(n)
        report = verify_separability_idempotent(
            group_algebra(table), group_separability_idempotent(table))
        assert report.ok, report.render()
    s3 = s3_cayley_table()
    report = verify_separability_idempotent(
        group_algebra(s3), group_separability_idempotent(s3))
    assert report.ok, report.render()


@pytest.mark.parametrize("table", [[[1, 1], [1, 1]], [[0, 1], [0, 1]]])
def test_a_table_without_a_two_sided_identity_is_refused(table):
    with pytest.raises(ValueError, match="no two-sided identity"):
        group_algebra(table)
    with pytest.raises(ValueError, match="no two-sided identity"):
        group_separability_idempotent(table)


def test_separability_needs_the_identity_once_in_every_row():
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]  # g1 and g2 share an inverse
    with pytest.raises(ValueError, match="row 1 .* identity 2 times"):
        group_separability_idempotent(table)


def test_matrix_algebra_separability_idempotent():
    report = verify_separability_idempotent(
        matrix_algebra(2), matrix_separability_idempotent(2))
    assert report.ok, report.render()
    report3 = verify_separability_idempotent(
        matrix_algebra(3), matrix_separability_idempotent(3))
    assert report3.ok, report3.render()


def test_separability_counts_checked_equations():
    # n components of the multiplication map, n^3 commutation components
    report = verify_separability_idempotent(
        load("mat2.algebra"), matrix_separability_idempotent(2))
    assert report.ok
    assert report.checked == 68
    mismatch = verify_separability_idempotent(
        matrix_algebra(2), Matrix.identity(2))
    assert not mismatch.ok
    assert mismatch.checked == 0


def test_componentwise_field_separability_idempotent():
    for n in (2, 3):
        report = verify_separability_idempotent(
            product_field_algebra(n),
            product_field_separability_idempotent(n))
        assert report.ok, report.render()


def test_unnormalised_matrix_element_fails_separability():
    bad = matrix_separability_idempotent(2).scale(2)
    report = verify_separability_idempotent(matrix_algebra(2), bad)
    assert not report.ok
    assert any("multiplication map" in e for e in report.entries)


def test_commutation_failure_is_reported():
    # 1 (x) 1 on Z/2 maps to 1 under multiplication but g.e != e.g
    e = Matrix([[1, 0], [0, 0]])
    report = verify_separability_idempotent(
        group_algebra(cyclic_table(2)), e)
    assert not report.ok
    assert all("commute" in entry for entry in report.entries)


def _separable_cases() -> dict:
    """The stock algebras with their separability elements, plus failing
    elements: unnormalised, one entry perturbed, wrongly shaped."""
    cases = {f"m{n}": (matrix_algebra(n), matrix_separability_idempotent(n))
             for n in (2, 3)}
    for n in range(2, 9):
        table = cyclic_table(n)
        cases[f"z{n}"] = (group_algebra(table),
                          group_separability_idempotent(table))
        cases[f"k{n}"] = (product_field_algebra(n),
                          product_field_separability_idempotent(n))
    s3 = s3_cayley_table()
    cases["s3"] = (group_algebra(s3), group_separability_idempotent(s3))
    m2 = matrix_separability_idempotent(2)
    cases["m2-unnormalised"] = (matrix_algebra(2), m2.scale(2))
    rows = [list(row) for row in m2.entries]
    rows[1][2] += Fraction(1, 3)
    cases["m2-one-entry"] = (matrix_algebra(2), Matrix(rows))
    cases["m2-wrong-shape"] = (matrix_algebra(2), Matrix.identity(2))
    cases["dual-numbers"] = (dual_numbers_algebra(), Matrix.identity(2))
    return cases


SEPARABLE_CASES = _separable_cases()


@pytest.mark.parametrize("name", sorted(SEPARABLE_CASES))
def test_algebra_checks_equal_the_index_loops(name):
    algebra, e = SEPARABLE_CASES[name]
    report = verify_separability_idempotent(algebra, e)
    assert (report.entries, report.checked) == separability_entries(
        algebra, e)
    assert trace_form_semisimple(algebra)[1] == Matrix(
        trace_form_gram(algebra))


def test_one_entry_perturbation_fails_both_checks():
    report = verify_separability_idempotent(
        *SEPARABLE_CASES["m2-one-entry"])
    assert report.entries[0].startswith("multiplication map sends e to")
    assert [e[:e.index(":")] for e in report.entries[1:]] == [
        "e does not commute with basis element 1",
        "e does not commute with basis element 2"]
    assert report.checked == 68


# ---------------------------------------------------------------------------
# algebra plumbing


def test_the_stock_algebras_are_tqft_names_alone():
    # categories keeps the three algebra names the benchmark reads there
    for name in ("field_algebra", "product_field_algebra", "group_algebra",
                 "cyclic_table", "matrix_algebra", "dual_numbers_algebra",
                 "group_separability_idempotent",
                 "matrix_separability_idempotent",
                 "product_field_separability_idempotent"):
        assert name not in categories.__all__
        assert not hasattr(categories, name)
        assert hasattr(tqft, name)
    for name in ("Algebra", "trace_form_semisimple",
                 "verify_separability_idempotent"):
        assert name in categories.__all__
        assert getattr(categories, name) is getattr(tqft, name)


def test_algebra_category_roundtrip():
    alg = group_algebra(cyclic_table(3))
    assert Algebra.from_category(alg.to_category()) == alg


def test_one_object_category_matches_builder():
    alg = field_algebra()
    cat = one_object_category("x", ("u",), alg.mult, alg.unit)
    assert validate_category(cat).ok
    assert cat == field_category()


def test_corpus_categories_are_valid():
    for name in ("onepoint.category", "mat2.category"):
        assert validate_category(load(name)).ok


def test_default_grid_has_expected_members():
    assert Fraction(1, 2) in DEFAULT_GRID
    assert Fraction(-1) in DEFAULT_GRID
