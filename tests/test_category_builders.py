"""The integer builders of `categories` and the category parser against
the public dict constructor, the structural error texts on every
construction path, and a witness that no builder goes through a
`Fraction` table."""

from __future__ import annotations

import itertools

import pytest

from conftest import CORPUS_ALGEBRAS, CORPUS_CATEGORIES, load
from oracles import s3_cayley_table
from test_categories import _M2_SCALE, _rescaled, _with_table
from test_karoubi_table import BASES
from verlinde import categories, corpus
from verlinde.categories import (CategoryFormatError, PresentedCategory,
                                 field_category, karoubi_completion,
                                 mat_completion, matrix_algebra_category,
                                 one_object_category, tensor_product)
from verlinde.tqft import (cyclic_table, dual_numbers_algebra, field_algebra,
                           group_algebra, matrix_algebra,
                           product_field_algebra)
from verlinde.formats import SemanticError, parse, serialize

# bases with one object and with several, with and without denominators
STOCK = {
    "field": field_category,
    "k2": lambda: product_field_algebra(2).to_category(),
    "z3": lambda: group_algebra(cyclic_table(3)).to_category(),
    "dual": lambda: dual_numbers_algebra().to_category(),
    "m2": lambda: matrix_algebra_category(2),
    "m2-thirds": lambda: _rescaled(matrix_algebra_category(2), _M2_SCALE),
    "mat-field-1": lambda: mat_completion(field_category(), 1),
    "karoubi-k2": lambda: karoubi_completion(
        product_field_algebra(2).to_category()),
}

ALGEBRAS = {
    "field": field_algebra,
    "k3": lambda: product_field_algebra(3),
    "z4": lambda: group_algebra(cyclic_table(4)),
    "s3": lambda: group_algebra(s3_cayley_table()),
    "m2": lambda: matrix_algebra(2),
    "dual": dual_numbers_algebra,
}


def _assert_equals_the_dict_constructor(cat: PresentedCategory) -> None:
    """`cat` passes every structural check of the integer path, which
    the builders skip, and equals the dict constructor fed with its own
    `Fraction` views, row order and term order included (`serialize`
    prints both)."""
    rows = [{f: dict(terms) for f, terms in row.items()} for row in cat._rows]
    assert PresentedCategory._from_rows(
        cat.objects, dict(cat.hom_pairs()), rows, cat._den,
        [cat._identity[p] for p in cat.objects]) == cat
    named = _with_table(cat, dict(cat.table_items()))
    assert named == cat
    assert serialize("category", named) == serialize("category", cat)


@pytest.mark.parametrize("name", sorted(BASES))
def test_karoubi_builds_the_dict_constructor_table(name):
    make, idempotents = BASES[name]
    _assert_equals_the_dict_constructor(
        karoubi_completion(make(), idempotents=idempotents))


@pytest.mark.parametrize("name", sorted(STOCK))
@pytest.mark.parametrize("bound", (1, 2))
def test_mat_builds_the_dict_constructor_table(name, bound):
    _assert_equals_the_dict_constructor(mat_completion(STOCK[name](), bound))


@pytest.mark.parametrize("left,right",
                         list(itertools.combinations_with_replacement(
                             sorted(STOCK), 2)))
def test_tensor_product_builds_the_dict_constructor_table(left, right):
    a, b = STOCK[left](), STOCK[right]()
    _assert_equals_the_dict_constructor(tensor_product(a, b))
    _assert_equals_the_dict_constructor(tensor_product(b, a))


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + list(CORPUS_ALGEBRAS))
def test_to_category_builds_the_dict_constructor_table(name):
    algebra = ALGEBRAS[name]() if name in ALGEBRAS else load(name)
    cat = algebra.to_category("p")
    _assert_equals_the_dict_constructor(cat)
    assert cat == one_object_category("p", algebra.names, algebra.mult,
                                      algebra.unit)


@pytest.mark.parametrize("name", CORPUS_CATEGORIES)
def test_parse_builds_the_dict_constructor_table(name):
    _assert_equals_the_dict_constructor(load(name))


def test_parse_reduces_the_table_as_the_dict_constructor_does():
    text = ("object x\nhom x x u\nhom x x v\n"
            "compose u u = 2/4*u\ncompose u v = 0/3*u + 3/6*v\n"
            "compose v u = 1/2*v\ncompose v v = 0\nidentity x = 4/2*u\n")
    cat = parse("category", text).payload
    assert (cat._den, cat._identity) == (2, {"x": ({0: 2}, 1)})
    assert cat == PresentedCategory(
        objects=("x",), hom={("x", "x"): ("u", "v")},
        compose={("u", "u"): {"u": "1/2"}, ("u", "v"): {"v": "1/2"},
                 ("v", "u"): {"v": "1/2"}},
        identities={"x": {"u": 2}})


def test_builders_and_parser_make_no_fraction_table(monkeypatch):
    def tripped(coeffs):
        raise AssertionError("a composition table went through Fractions")

    monkeypatch.setattr(categories, "_clean", tripped)
    m2 = matrix_algebra_category(2)
    built = [m2, field_category(), karoubi_completion(m2),
             karoubi_completion(mat_completion(field_category(), 2)),
             mat_completion(m2, 2), tensor_product(m2, m2),
             product_field_algebra(3).to_category()]
    for name in CORPUS_CATEGORIES:
        text = corpus.corpus_path(name).read_text(encoding="utf-8")
        built.append(parse("category", text).payload)
    assert all(categories.validate_category(cat).ok for cat in built)


def test_completions_and_tensor_products_skip_the_structural_checks(
        monkeypatch):
    m2, k2 = (matrix_algebra_category(2),
              product_field_algebra(2).to_category())
    monkeypatch.setattr(PresentedCategory, "_check_table", _tripped)
    built = [karoubi_completion(m2), mat_completion(k2, 2),
             tensor_product(m2, k2)]
    monkeypatch.undo()
    for cat in built:
        _assert_equals_the_dict_constructor(cat)
    # the parser, the dict constructor and one_object_category, whose
    # unit is the caller's, still check
    text = corpus.corpus_path("mat2.category").read_text(encoding="utf-8")
    monkeypatch.setattr(PresentedCategory, "_check_table", _tripped)
    for make in (lambda: parse("category", text),
                 lambda: _with_table(m2, dict(m2.table_items())),
                 field_category):
        with pytest.raises(AssertionError, match="structural checks"):
            make()


def _tripped(self, rows, identities):
    raise AssertionError("structural checks run")


# u: x -> x, f: x -> y, v: y -> y, numbered 0, 1, 2
TWO_OBJECTS = {"objects": ("x", "y"),
               "hom": {("x", "x"): ("u",), ("x", "y"): ("f",),
                       ("y", "y"): ("v",)}}
VALID_TABLE = {("u", "u"): {"u": 1}, ("f", "u"): {"f": 1},
               ("v", "f"): {"f": 1}, ("v", "v"): {"v": 1}}
VALID_IDENTITIES = {"x": {"u": 1}, "y": {"v": 1}}

# (compose entries added, identities replaced, error text)
STRUCTURAL_ERRORS = {
    "not composable": ({("u", "f"): {"u": 1}}, {},
                       "compose(u,f): not composable (f: x->y, u: x->x)"),
    "term outside": ({("f", "u"): {"v": 1}}, {},
                     "compose(f,u): result term v does not lie in hom(x,y)"),
    "unknown term": ({("f", "u"): {"w": 1}}, {},
                     "compose(f,u): result term w does not lie in hom(x,y)"),
    "identity term": ({}, {"x": {"f": 1}},
                      "identity of x: term f not in hom(x,x)"),
    "unknown identity term": ({}, {"x": {"w": 1}},
                              "identity of x: term w not in hom(x,x)"),
    "missing identity": ({}, {"y": {}},
                         "identity of y missing although hom(y,y) is "
                         "nonzero"),
}


def _text(compose, identities) -> str:
    lines = ["object x", "object y", "hom x x u", "hom x y f", "hom y y v"]
    lines += [f"compose {g} {f} = " + " + ".join(
        f"{c}*{h}" for h, c in combo.items()) for (g, f), combo in
        compose.items()]
    lines += [f"identity {p} = " + (" + ".join(
        f"{c}*{b}" for b, c in combo.items()) or "0")
        for p, combo in identities.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(STRUCTURAL_ERRORS))
def test_structural_errors_keep_their_texts_on_every_path(name):
    added, replaced, message = STRUCTURAL_ERRORS[name]
    compose = {**VALID_TABLE, **added}
    identities = {**VALID_IDENTITIES, **replaced}
    with pytest.raises(CategoryFormatError) as info:
        PresentedCategory(compose=compose, identities=identities,
                          **TWO_OBJECTS)
    assert str(info.value) == message
    with pytest.raises(SemanticError) as info:
        parse("category", _text(compose, identities))
    assert info.value.reason == message


def test_the_integer_path_checks_types_on_basis_numbers():
    rows = [{0: {0: 1}}, {0: {1: 1}}, {1: {1: 1}, 2: {2: 1}}]
    identities = [({0: 1}, 1), ({2: 1}, 1)]
    valid = PresentedCategory._from_rows(rows=rows, den=1,
                                         identities=identities, **TWO_OBJECTS)
    assert valid == PresentedCategory(compose=VALID_TABLE,
                                      identities=VALID_IDENTITIES,
                                      **TWO_OBJECTS)
    for rows, identities, name in (
            ([{1: {0: 1}}, {}, {}], [({0: 1}, 1), ({2: 1}, 1)],
             "not composable"),
            ([{}, {0: {2: 1}}, {}], [({0: 1}, 1), ({2: 1}, 1)],
             "term outside"),
            ([{}, {}, {}], [({1: 1}, 1), ({2: 1}, 1)], "identity term"),
            ([{}, {}, {}], [({0: 1}, 1), ({}, 1)], "missing identity")):
        with pytest.raises(CategoryFormatError) as info:
            PresentedCategory._from_rows(rows=rows, den=1,
                                         identities=identities, **TWO_OBJECTS)
        assert str(info.value) == STRUCTURAL_ERRORS[name][2]
