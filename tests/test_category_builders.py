"""The integer builders of `categories` and the category parser against
the public dict constructor, the structural error texts on every
construction path, and a witness that no builder goes through a
`Fraction` table."""

from __future__ import annotations

import itertools
import re
import time

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
from verlinde.report import MAX_HEADER_DIGITS

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


def _text(compose, identities, objects=TWO_OBJECTS["objects"],
          hom=TWO_OBJECTS["hom"]) -> str:
    lines = [f"object {p}" for p in objects]
    lines += [f"hom {p} {q} {b}" for (p, q), basis in hom.items()
              for b in basis]
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


@pytest.mark.parametrize("length", [MAX_HEADER_DIGITS, MAX_HEADER_DIGITS + 1,
                                    4000])
@pytest.mark.parametrize("name", sorted(STRUCTURAL_ERRORS))
def test_structural_errors_name_a_long_name_by_its_length(name, length):
    # every name x, y, u, f, v, w becomes that letter `length` times; up
    # to MAX_HEADER_DIGITS characters it is printed as it is, unquoted
    def long(combo):
        return {k * length: c for k, c in combo.items()}

    def shown(match):
        if length <= MAX_HEADER_DIGITS:
            return match.group() * length
        return f"a token of {length} characters"

    added, replaced, message = STRUCTURAL_ERRORS[name]
    compose = {(g * length, f * length): long(combo)
               for (g, f), combo in {**VALID_TABLE, **added}.items()}
    identities = {p * length: long(combo) for p, combo
                  in {**VALID_IDENTITIES, **replaced}.items()}
    objects = tuple(p * length for p in TWO_OBJECTS["objects"])
    hom = {(p * length, q * length): tuple(b * length for b in basis)
           for (p, q), basis in TWO_OBJECTS["hom"].items()}
    expected = re.sub(r"\b[fuvwxy]\b", shown, message)
    start = time.perf_counter()
    with pytest.raises(CategoryFormatError) as info:
        PresentedCategory(objects, hom, compose, identities)
    assert str(info.value) == expected
    with pytest.raises(SemanticError) as info:
        parse("category", _text(compose, identities, objects, hom))
    assert time.perf_counter() - start < 0.1
    assert info.value.reason == expected


@pytest.mark.parametrize("kind", ["object", "basis"])
def test_a_bad_name_is_quoted_or_counted(kind):
    for name, shown in (("a b", "'a b'"), ("", "''"),
                        ("a " + "b" * 4000, "a token of 4002 characters")):
        objects = (name,) if kind == "object" else ("x",)
        hom = {} if kind == "object" else {("x", "x"): (name,)}
        with pytest.raises(CategoryFormatError) as info:
            PresentedCategory(objects, hom, {}, {})
        assert str(info.value) == f"bad {kind} name {shown}"


# a term or object that is not a string is printed with str(), and a
# long name by its length
@pytest.mark.parametrize("hom, compose, identities, message", [
    ({("x", "x"): ("u",)}, {("u", "u"): {5: 1}}, {"x": {"u": 1}},
     "compose(u,u): result term 5 does not lie in hom(x,x)"),
    ({("x", "x"): ("u",)}, {}, {"x": {7: 1}},
     "identity of x: term 7 not in hom(x,x)"),
    ({("x", 3): ("u",)}, {}, {}, "hom(x,3): unknown object"),
    ({("x", "y" * 4000): ("u",)}, {}, {},
     "hom(x,a token of 4000 characters): unknown object"),
    ({("x", "x"): ("u", "u" * 101, "u" * 101)}, {}, {},
     "duplicate basis name a token of 101 characters"),
    ({("x", "x"): ("u",)}, {("u", "v" * 4000): {"u": 1}}, {"x": {"u": 1}},
     "compose(u,a token of 4000 characters): unknown basis element"),
], ids=["int-term", "int-identity-term", "int-object", "long-object",
        "long-duplicate", "long-unknown"])
def test_constructor_errors_print_any_name_and_count_a_long_one(
        hom, compose, identities, message):
    with pytest.raises(CategoryFormatError) as info:
        PresentedCategory(("x",), hom, compose, identities)
    assert str(info.value) == message
