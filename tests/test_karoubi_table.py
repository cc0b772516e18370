"""Karoubi completions pinned byte for byte and checked against the oracle."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import oracles
from test_categories import _M2_SCALE, _perturbed, _rescaled
from verlinde import categories, corpus
from verlinde.categories import (DEFAULT_GRID, CategoryFormatError,
                                 PresentedCategory, field_category,
                                 karoubi_completion, karoubi_idempotents,
                                 mat_completion, matrix_algebra_category,
                                 tensor_product, validate_category)
from verlinde.tqft import cyclic_table, group_algebra, product_field_algebra
from verlinde.cli import main
from verlinde.formats import serialize

BASES = {
    "field": (field_category, None),
    "k2": (lambda: product_field_algebra(2).to_category(), None),
    "k3": (lambda: product_field_algebra(3).to_category(), None),
    "z3": (lambda: group_algebra(cyclic_table(3)).to_category(), None),
    "m2": (lambda: matrix_algebra_category(2), None),
    "m2-thirds": (lambda: _rescaled(matrix_algebra_category(2), _M2_SCALE),
                  None),
    "mat-field-2": (lambda: mat_completion(field_category(), 2), None),
    "m2-supplied": (lambda: matrix_algebra_category(2),
                    [("x", (1, 0, 0, 1)), ("x", (1, 0, 0, 0))]),
}

# sha256 and length in bytes of serialize("category", karoubi_completion(X))
SERIALIZED_PINS = {
    "field": ("a104e61c5bf4dcd43abedb0c9bfd11e142df2b5cc15588118b749981767b3a1a",
              146),
    "k2": ("857ba89abdb4f25c18ece2dba5f712890b5d65c9082387c41efaaccd730f167d",
           1436),
    "k3": ("26994ec2116947b0be7471144ad2a635bbe22a80132d157bdac5c51632f81050",
           16404),
    "z3": ("aff777933077bc4345cb3428a269b488fbf44d3ff3d62b7d76d82a3680240cf6",
           870),
    "m2": ("36010d09ac2a5906d9c6e0eb0aa5a75cf3255be0352eabd0b8eda6e5672370c8",
           464974),
    "m2-thirds": (
        "b36163673f071ec0172ab655cb2fac7c234cb181562d620ec3cadaa4d8740b15",
        38300),
    "mat-field-2": (
        "377f4d114f34f4e4f1a9a67e4c756291f8cd131d1cf96f706843de75dc319f78",
        677680),
    "m2-supplied": (
        "89a3614973e0407324f764632ff52b2ca892d80c5a51ac02d9fa0cb44c7453e7",
        2878),
}

# stdout of `verlinde complete --mode karoubi mat2.category`
CLI_PIN = ("36010d09ac2a5906d9c6e0eb0aa5a75cf3255be0352eabd0b8eda6e5672370c8",
           464974)


def _pin(text: str) -> tuple[str, int]:
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


def _complete(name):
    make, idempotents = BASES[name]
    return make(), idempotents


@pytest.mark.parametrize("name", sorted(BASES))
def test_karoubi_serialization_is_pinned(name):
    base, idempotents = _complete(name)
    completed = karoubi_completion(base, idempotents=idempotents)
    assert _pin(serialize("category", completed)) == SERIALIZED_PINS[name]


def test_karoubi_cli_output_is_pinned(capsys, monkeypatch):
    monkeypatch.chdir(corpus.corpus_dir())
    code = main(["complete", "--mode", "karoubi", "mat2.category"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert _pin(captured.out) == CLI_PIN


def _assert_matches_oracle(base, idempotents=None, completed=None):
    if completed is None:
        completed = karoubi_completion(base, idempotents=idempotents)
    objects, hom, table, identities = oracles.karoubi_table(
        base, DEFAULT_GRID, idempotents)
    assert completed.objects == objects
    assert dict(completed.hom_pairs()) == hom
    assert list(completed.table_items()) == table
    assert {p: completed.identity_coeffs(p)
            for p in completed.objects} == identities


@pytest.mark.parametrize("name", sorted(BASES))
def test_karoubi_table_equals_the_oracle(name):
    _assert_matches_oracle(*_complete(name))


def _refused_or_matches(cat) -> str:
    """Completes cat, which must be refused exactly when the brute-force
    oracle finds a non-associative triple, naming the triple of
    validate_category's first associativity entry, and must otherwise
    equal the oracle's table; returns "refused" or "matched"."""
    failures = oracles.associativity_failures(cat)
    try:
        completed = karoubi_completion(cat)
    except CategoryFormatError as err:
        first = next(e for e in validate_category(cat).entries
                     if e.startswith("associativity on "))
        triple = first[len("associativity on "):first.index("): ") + 1]
        assert str(err) == f"the base is not associative on {triple}"
        assert failures
        return "refused"
    assert not failures
    _assert_matches_oracle(cat, completed=completed)
    return "matched"


def test_every_unit_perturbation_of_m2_is_refused():
    perturbed = list(_perturbed(matrix_algebra_category(2), lambda c: c + 1))
    assert len(perturbed) == 8
    assert [_refused_or_matches(cat) for cat in perturbed] == ["refused"] * 8


def test_unit_perturbations_of_k2_match_the_oracle():
    # e_i e_i = 2 e_i breaks the identity law but not associativity, so
    # the base is completed, and must still equal the oracle's table
    perturbed = list(_perturbed(product_field_algebra(2).to_category(),
                                lambda c: c + 1))
    assert len(perturbed) == 2
    assert [_refused_or_matches(cat) for cat in perturbed] == (
        ["matched"] * 2)


def _z2():
    return group_algebra(cyclic_table(2)).to_category()


# associative bases beyond BASES: products, a two-object Mat completion
# and a rescaled basis, with denominators in the table and the identity
CERTIFIED = {
    "k2-z2": lambda: tensor_product(product_field_algebra(2).to_category(),
                                    _z2()),
    "z3-k2": lambda: tensor_product(group_algebra(cyclic_table(3))
                                    .to_category(),
                                    product_field_algebra(2).to_category()),
    "mat-z2-1": lambda: mat_completion(_z2(), 1),
    "k3-rescaled": lambda: _rescaled(product_field_algebra(3).to_category(),
                                     {"e0": Fraction(2), "e1": Fraction(-1),
                                      "e2": Fraction(1, 3)}),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certified_bases_are_read_at_the_pivots_and_equal_the_oracle(name):
    base = CERTIFIED[name]()
    assert validate_category(base).ok
    completed = karoubi_completion(base)
    assert len(completed.objects) > 2
    _assert_matches_oracle(base, completed=completed)


def test_failure_texts_are_pinned():
    halving = PresentedCategory(
        objects=("x",), hom={("x", "x"): ("u",)},
        compose={("u", "u"): {"u": Fraction(1, 2)}},
        identities={"x": {"u": 1}})
    assert validate_category(halving).entries == [
        "identity law: id_x . u = {'u': Fraction(1, 2)} != u",
        "identity law: u . id_x = {'u': Fraction(1, 2)} != u"]
    m2 = matrix_algebra_category(2)
    with pytest.raises(CategoryFormatError) as info:
        karoubi_completion(m2, idempotents=[
            ("x", (1, Fraction(1, 2), -1, 0))])
    assert str(info.value) == (
        "supplied element on x is not idempotent; e.e - e = "
        "{'e00': Fraction(-1, 2), 'e11': Fraction(-1, 2)}")
    completed = karoubi_completion(m2)
    with pytest.raises(CategoryFormatError,
                       match=r"^morphism does not satisfy the triple "
                             r"constraint e'\.f = f = f\.e$"):
        completed.embed(("x", (1, 0, 0, 0)), ("x", (0, 0, 0, 1)),
                        m2.morphism("x", "x", {"e00": 1}))


def test_idempotent_search_names_an_unknown_object():
    # an empty End of a known object still has the one empty idempotent
    assert karoubi_idempotents(mat_completion(field_category(), 1),
                               "[]") == [()]
    with pytest.raises(CategoryFormatError,
                       match="unknown base object 'nope'"):
        karoubi_idempotents(field_category(), "nope")


# repeated, negative and mixed-denominator values, in no order
SEARCH_GRIDS = (
    DEFAULT_GRID,
    (1, 0, "1/3", Fraction(-2, 5), 1, Fraction(1, 3), 0),
    (2, Fraction(1, 2), -1, Fraction(-2, 5), 0, 1, Fraction(1, 3), -1),
)


def _random_one_object(rng: random.Random, dim: int) -> PresentedCategory:
    """One object with a random table on u0..u(dim-1): composites of one
    to dim terms with denominators, associative only by chance.  u0 is
    idempotent and, half of the time on each side, a unit, so that
    sums with it solve e.e = e now and then."""
    names = tuple(f"u{i}" for i in range(dim))
    values = (-1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
    compose = {}
    for g, f in itertools.product(names, repeat=2):
        if rng.random() < 0.7:
            compose[g, f] = {h: rng.choice(values) for h in rng.sample(
                names, rng.randint(1, dim))}
    if rng.random() < 0.5:
        compose.update({("u0", b): {b: 1} for b in names})
    if rng.random() < 0.5:
        compose.update({(b, "u0"): {b: 1} for b in names})
    compose["u0", "u0"] = {"u0": 1}
    return PresentedCategory(objects=("x",), hom={("x", "x"): names},
                             compose=compose, identities={"x": {"u0": 1}})


def _assert_search_matches_the_oracle(cat, objects, grids) -> int:
    """The search equals the `Fraction` oracle on the objects and grids;
    returns the number of nonzero idempotents found."""
    nonzero = 0
    for obj, grid in itertools.product(objects, grids):
        found = karoubi_idempotents(cat, obj, grid)
        assert found == oracles.karoubi_idempotents(cat, obj, grid)
        assert all(type(c) is Fraction for combo in found for c in combo)
        nonzero += sum(map(any, found))
    return nonzero


def test_idempotent_search_matches_the_oracle_on_random_tables():
    rng = random.Random(2211)
    nonzero, searches = 0, 0
    for dim in (1, 2, 2, 3, 3, 3):
        for _ in range(4):
            searches += 2 * len(SEARCH_GRIDS)
            cat = _random_one_object(rng, dim)
            nonzero += _assert_search_matches_the_oracle(
                cat, cat.objects, SEARCH_GRIDS)
            # in Mat(cat, 2) the rows of End([x]) also hold composites
            # with morphisms from [x, x], and End([]) is empty
            nonzero += _assert_search_matches_the_oracle(
                mat_completion(cat, 2), ("[]", "[x]"), SEARCH_GRIDS)
    # u0 is a nonzero solution on x and on [x] on every grid; some
    # tables have more solutions to agree on
    assert nonzero > searches


def test_a_base_that_fails_lights_test_is_refused():
    # random tables are associative only by chance: each that is not is
    # refused, also where no composite would leave its corner, and each
    # that is equals the oracle
    rng = random.Random(2211)
    outcomes = [_refused_or_matches(_random_one_object(rng, dim))
                for dim in (2, 2, 3, 3, 3) for _ in range(4)]
    assert set(outcomes) == {"refused", "matched"}


def test_a_non_associative_base_meets_the_earlier_errors_first(
        monkeypatch):
    cat = next(_perturbed(matrix_algebra_category(2), lambda c: c + 1))
    with pytest.raises(CategoryFormatError,
                       match=r"^the base is not associative on \("):
        karoubi_completion(cat)
    with pytest.raises(CategoryFormatError,
                       match=r"^supplied element on x is not idempotent; "
                             r"e\.e - e = \{'e01': Fraction\(-1, 1\)\}$"):
        karoubi_completion(cat, idempotents=[("x", (0, 1, 0, 0))])
    with pytest.raises(CategoryFormatError,
                       match=r"^idempotent x\(0,0,0,0\) is supplied twice$"):
        karoubi_completion(cat, idempotents=[("x", (0, 0, 0, 0))] * 2)
    monkeypatch.setattr(categories, "MAX_COMPLETION_OBJECTS", 0)
    with pytest.raises(categories.SearchTooLargeError,
                       match=r"^Karoubi completion would have 1 objects, "
                             r"more than 0$"):
        karoubi_completion(cat, idempotents=[("x", (0, 0, 0, 0))])
    monkeypatch.setattr(categories, "MAX_KAROUBI_CANDIDATES", 255)
    with pytest.raises(categories.SearchTooLargeError,
                       match=r"^idempotent search on x would try 4\^4 = 256 "
                             r"candidates, more than 255$"):
        karoubi_completion(cat)


@pytest.mark.parametrize("name", sorted(set(BASES) - {"m2-supplied"}))
def test_idempotent_search_matches_the_oracle_on_the_bases(name):
    cat = BASES[name][0]()
    assert _assert_search_matches_the_oracle(cat, cat.objects,
                                             SEARCH_GRIDS) > 0


def test_idempotent_search_edge_cases_match_the_oracle():
    empty = mat_completion(field_category(), 1)
    for grid in SEARCH_GRIDS + ((), (5,)):
        assert karoubi_idempotents(empty, "[]", grid) == [()]
        assert oracles.karoubi_idempotents(empty, "[]", grid) == [()]
    # a grid without values has no candidate on a nonzero End
    assert karoubi_idempotents(empty, "[x]", ()) == []
    assert oracles.karoubi_idempotents(empty, "[x]", ()) == []
    for grid in SEARCH_GRIDS:
        with pytest.raises(CategoryFormatError, match="unknown base object"):
            karoubi_idempotents(empty, "x", grid)
        with pytest.raises(ValueError, match="unknown base object"):
            oracles.karoubi_idempotents(empty, "x", grid)


def test_every_unit_perturbation_of_mat_field_2_is_refused():
    # Mat(k, 2) has three objects, and each of its 27 structure
    # constants, raised by one, breaks associativity on some triple
    perturbed = list(_perturbed(mat_completion(field_category(), 2),
                                lambda c: c + 1))
    assert len(perturbed) == 27
    assert [_refused_or_matches(cat) for cat in perturbed] == (
        ["refused"] * 27)


def test_repeated_grid_values_give_the_completion_without_them():
    m2 = matrix_algebra_category(2)
    assert karoubi_idempotents(m2, "x", (0, 1, 1)) == karoubi_idempotents(
        m2, "x", (1, 0))
    assert len(karoubi_idempotents(m2, "x", (0, 1, 1))) == 8
    repeated = (Fraction(1, 2), 0, 1, "1/2", -1, Fraction(2, 2), 0)
    assert (serialize("category", karoubi_completion(m2, grid=repeated))
            == serialize("category", karoubi_completion(m2)))


def test_search_estimate_counts_distinct_grid_values(monkeypatch):
    m2 = matrix_algebra_category(2)
    # four distinct values: 4^4 = 256 candidates, whatever the repeats
    monkeypatch.setattr(categories, "MAX_KAROUBI_CANDIDATES", 256)
    grid = DEFAULT_GRID + DEFAULT_GRID[::-1]
    assert len(karoubi_idempotents(m2, "x", grid)) == 17
    monkeypatch.setattr(categories, "MAX_KAROUBI_CANDIDATES", 255)
    with pytest.raises(categories.SearchTooLargeError,
                       match=r"^idempotent search on x would try 4\^4 = 256 "
                             r"candidates, more than 255$"):
        karoubi_completion(m2, grid=grid)


def test_a_supplied_idempotent_listed_twice_is_named():
    m2 = matrix_algebra_category(2)
    with pytest.raises(CategoryFormatError,
                       match=r"^idempotent x\(1,0,0,1\) is supplied twice$"):
        karoubi_completion(m2, idempotents=[
            ("x", (1, 0, 0, 1)), ("x", (1, 0, 0, 0)),
            ("x", (1, 0, 0, Fraction(2, 2)))])
