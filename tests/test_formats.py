"""Text formats: canonical round trips and positioned errors."""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (CORPUS_ALGEBRAS, CORPUS_CATEGORIES, CORPUS_RINGS, load)
from verlinde import corpus, formats
from verlinde.exact import Matrix
from verlinde.formats import ParseError, SemanticError, parse, serialize


ALL_CORPUS = (CORPUS_RINGS + CORPUS_ALGEBRAS + CORPUS_CATEGORIES
              + ("fib.surfaces", "fib.twist", "torus.word", "genus2.word",
                 "mat2.idem", "z2group.idem", "ksquared.idem"))


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_parse_serialize_roundtrip_on_payload(name):
    kind = formats.kind_for_path(name)
    payload = load(name)
    text = serialize(kind, payload)
    assert parse(kind, text).payload == payload


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_serialize_parse_is_byte_identity_on_corpus(name):
    kind = formats.kind_for_path(name)
    text = corpus.corpus_path(name).read_text(encoding="utf-8")
    assert serialize(kind, parse(kind, text).payload) == text


def test_completed_categories_roundtrip_through_the_format():
    from verlinde.categories import (field_category, karoubi_completion,
                                     mat_completion, matrix_algebra_category)
    for cat in (mat_completion(field_category(), 2),
                karoubi_completion(matrix_algebra_category(2)),
                karoubi_completion(field_category())):
        text = serialize("category", cat)
        assert parse("category", text).payload == cat


def test_fusion_serialization_lists_the_nonzero_multiplicities_in_order():
    from oracles import multiplicities
    from verlinde.fusion import enumerate_fusion_rings
    rings = [load(name) for name in CORPUS_RINGS]
    rings += enumerate_fusion_rings(3, 2)
    expected = []
    for ring in rings:
        n, N = ring.rank, multiplicities(ring)
        entries = [f"N {a} {b} {c} {N[a, b, c].numerator}"
                   for a, b, c in itertools.product(range(n), repeat=3)
                   if N[a, b, c]]
        head = serialize("fusion", ring).split("\nN ")[0].rstrip("\n")
        expected.append("\n".join([head, *entries]) + "\n")
    assert [serialize("fusion", ring) for ring in rings] == expected
    # multiplicities past 1 are printed too
    assert any(entry.startswith("N ") and entry.endswith(" 2")
               for text in expected for entry in text.splitlines())


def test_karoubi_mat2_serialization_is_pinned():
    from verlinde.categories import (karoubi_completion,
                                     matrix_algebra_category)
    text = serialize("category",
                     karoubi_completion(matrix_algebra_category(2)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "36010d09ac2a5906d9c6e0eb0aa5a75cf3255be0352eabd0b8eda6e5672370c8")


KAROUBI_PINS = {
    "mat-k-2": (lambda c, t: c.karoubi_completion(
        c.mat_completion(c.field_category(), 2)),
        "377f4d114f34f4e4f1a9a67e4c756291f8cd131d1cf96f706843de75dc319f78"),
    "k2": (lambda c, t: c.karoubi_completion(
        t.product_field_algebra(2).to_category()),
        "857ba89abdb4f25c18ece2dba5f712890b5d65c9082387c41efaaccd730f167d"),
    "z3-group": (lambda c, t: c.karoubi_completion(
        t.group_algebra(t.cyclic_table(3)).to_category()),
        "aff777933077bc4345cb3428a269b488fbf44d3ff3d62b7d76d82a3680240cf6"),
    "mat2-listed": (lambda c, t: c.karoubi_completion(
        c.matrix_algebra_category(2),
        idempotents=[("x", (1, 0, 0, 1)), ("x", (1, 0, 0, 0))]),
        "89a3614973e0407324f764632ff52b2ca892d80c5a51ac02d9fa0cb44c7453e7"),
    "double-k2": (lambda c, t: c.karoubi_completion(c.karoubi_completion(
        t.product_field_algebra(2).to_category())),
        "1a36367f8c22a1207659f8d9f72996df9e3789bc6ad2e275a87e3082d8db95ec"),
}


@pytest.mark.parametrize("name", sorted(KAROUBI_PINS))
def test_karoubi_serializations_are_pinned(name):
    from verlinde import categories, tqft
    build, digest = KAROUBI_PINS[name]
    text = serialize("category", build(categories, tqft))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_corpus_generator_reproduces_the_shipped_corpus():
    path = Path(__file__).resolve().parents[1] / "tools" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", path)
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    docs = make_corpus.documents()
    assert sorted(docs) == corpus.list_corpus()
    for name, text in docs.items():
        assert text == corpus.corpus_path(name).read_text(
            encoding="utf-8"), name


def test_comments_and_blank_lines_are_ignored():
    text = corpus.corpus_path("fib.fusion").read_text(encoding="utf-8")
    noisy = "# golden ring\n\n" + text.replace("unit 0", "unit 0  # vacuum")
    assert parse("fusion", noisy).payload == load("fib.fusion")


def test_kind_detection():
    assert formats.kind_for_path("a/b/ring.fusion") == "fusion"
    assert formats.kind_for_path("x.algebra") == "algebra"
    assert formats.kind_for_path("x.surfaces") == "surface-list"
    assert formats.kind_for_path("x.unknown") is None


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        parse("poem", "rank 1")
    with pytest.raises(ValueError):
        serialize("poem", None)


# ---------------------------------------------------------------------------
# fusion format errors


def test_empty_fusion_file_reports_missing_rank():
    with pytest.raises(SemanticError, match="missing rank"):
        parse("fusion", "")


# the size header of each kind is read by one rule: a bad value is
# reported on its own line, before a later duplicate
@pytest.mark.parametrize("kind, name", [("fusion", "rank"),
                                        ("algebra", "dim"),
                                        ("idempotent", "dim")])
@pytest.mark.parametrize("text, error, reason, line", [
    ("# size\n{0} 1\n\n{0} 1\n", SemanticError, "duplicate {0} directive",
     4),
    ("{0} 0\n{0} 2\n", SemanticError, "{0} 0 must be >= 1", 1),
    ("{0} -3\n", SemanticError, "{0} -3 must be >= 1", 1),
    ("\n{0} two\n", ParseError, "expected an integer, got 'two'", 2),
    ("{0} 1 2\n", ParseError,
     "directive '{0}' takes 1 argument(s), got 2", 1),
], ids=["duplicate", "zero", "negative", "non-integer", "arity"])
def test_size_header_errors_name_their_line(kind, name, text, error, reason,
                                            line):
    with pytest.raises(ParseError) as err:
        parse(kind, text.format(name), source="bad")
    assert type(err.value) is error
    assert err.value.reason == reason.format(name)
    assert (err.value.source, err.value.line) == ("bad", line)


# a size header whose dense table would pass MAX_DENSE_CELLS, with every
# other line of its document in order: (kind, text, header line, size)
HUGE = "1" + "0" * 60
HUGE_HEADERS = [
    ("fusion", "# every dual set\nrank 200\nunit 0\n"
     + "".join(f"dual {i} {i}\n" for i in range(200)), 2, "200: size^3"),
    ("algebra", f"dim {HUGE}\nmult 0 0 0 1\n", 1, f"{HUGE}: size^3"),
    ("algebra", "mult 0 0 0 1\ncounit 0 1\ndim 3000\n", 3,
     "3000: size^3"),
    ("idempotent", "dim 3000\ne 0 0 1\n", 1, "3000: size^2"),
]


@pytest.mark.parametrize("kind, text, line, size", HUGE_HEADERS,
                         ids=["rank-200", "dim-1e60", "dim-3000",
                              "idem-dim-3000"])
def test_a_huge_size_header_is_refused_on_its_line(kind, text, line, size):
    start = time.perf_counter()
    with pytest.raises(SemanticError) as err:
        parse(kind, text, source="huge")
    assert time.perf_counter() - start < 0.1
    assert err.value.reason == (
        f"size {size} cells are more than MAX_DENSE_CELLS = "
        f"{formats.MAX_DENSE_CELLS}")
    assert (err.value.source, err.value.line) == ("huge", line)


@pytest.mark.parametrize("kind, text, error, reason, line", [
    ("fusion", f"rank {HUGE}\nunit 0\ndual 0 0\n", SemanticError,
     "dual not specified for label 1", 0),
    ("fusion", "rank 3000\nunit 0\nN 0 0 0 -1\n", SemanticError,
     "negative coefficient -1", 3),
    ("algebra", f"dim {HUGE}\nmult 0 0 0 x\n", ParseError,
     "expected a rational p/q, got 'x'", 2),
    ("algebra", "dim 3000\nmult 0 0 0 1\nmult 0 0 0 2\n", SemanticError,
     "duplicate mult entry for (0,0,0)", 3),
    ("idempotent", "dim 3000\ne 0 0 1\nbasis 0 x\n", ParseError,
     "unknown directive 'basis'", 3),
], ids=["missing-dual", "negative", "bad-value", "duplicate", "directive"])
def test_a_huge_size_header_reports_its_other_errors_first(kind, text, error,
                                                          reason, line):
    with pytest.raises(ParseError) as err:
        parse(kind, text)
    assert (type(err.value), err.value.reason, err.value.line) == (
        error, reason, line)


def test_the_dense_cell_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(formats, "MAX_DENSE_CELLS", 27)
    for name in ("z3.fusion", "z3group.algebra", "mat2.idem"):
        assert serialize(formats.kind_for_path(name), load(name)) == (
            corpus.corpus_path(name).read_text("utf-8"))
    assert parse("idempotent", "dim 5\ne 0 0 1\n").payload.shape == (5, 5)
    for kind, text, size in (
            ("fusion", corpus.corpus_path("fib_x_z2.fusion").read_text(),
             "4: size^3"),
            ("algebra", corpus.corpus_path("mat2.algebra").read_text(),
             "4: size^3"),
            ("idempotent", "dim 6\ne 0 0 1\n", "6: size^2")):
        with pytest.raises(SemanticError) as err:
            parse(kind, text)
        assert err.value.line == 1
        assert err.value.reason.startswith(f"size {size} cells ")


@pytest.fixture
def unlimited_int_digits():
    """Lift the int-to-string digit limit, as `cli.main` does, and put it
    back afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


LONG = "1" + "0" * 99_999  # a size header of 100,000 digits


@pytest.mark.parametrize("kind, text, line, power", [
    ("algebra", f"dim {LONG}\nmult 0 0 0 1\n", 1, 3),
    ("algebra", f"mult 0 0 0 1\ncounit 0 1\ndim {LONG}\n", 3, 3),
    ("idempotent", f"dim {LONG}\ne 0 0 1\n", 1, 2),
], ids=["algebra", "algebra-last", "idempotent"])
def test_a_size_header_of_100000_digits_is_refused_by_its_digit_count(
        unlimited_int_digits, kind, text, line, power):
    start = time.perf_counter()
    with pytest.raises(SemanticError) as err:
        parse(kind, text, source="long")
    assert time.perf_counter() - start < 0.1
    assert err.value.reason == (
        f"size <100000 digits>: size^{power} cells are more than "
        f"MAX_DENSE_CELLS = {formats.MAX_DENSE_CELLS}")
    assert len(str(err.value)) < 200
    assert (err.value.source, err.value.line) == ("long", line)


@pytest.mark.parametrize("kind, text, error, reason, line", [
    ("fusion", f"rank {LONG}\nunit 0\ndual 0 0\n", SemanticError,
     "dual not specified for label 1", 0),
    ("algebra", f"dim {LONG}\nmult 0 0 0 x\n", ParseError,
     "expected a rational p/q, got 'x'", 2),
    ("idempotent", f"dim {LONG}\ne 0 0 1\ne 0 0 2\n", SemanticError,
     "duplicate entry for (0,0)", 3),
    ("algebra", f"dim -{LONG}\n", SemanticError,
     "dim -<100000 digits> must be >= 1", 1),
    ("idempotent", f"dim {LONG}x\n", ParseError,
     "expected an integer, got a token of 100001 characters", 1),
], ids=["missing-dual", "bad-value", "duplicate", "negative", "non-integer"])
def test_a_long_size_header_is_checked_without_reading_it(
        unlimited_int_digits, kind, text, error, reason, line):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(kind, text)
    assert time.perf_counter() - start < 0.1
    assert (type(err.value), err.value.reason, err.value.line) == (
        error, reason, line)


def test_only_the_significant_digits_of_a_long_header_count():
    # leading zeros, a sign and underscores are not digits of the value
    for token in ("0" * 200 + "3", "+" + "0" * 200 + "3", "0_" * 100 + "3"):
        assert parse("idempotent", f"dim {token}\ne 0 0 1\n"
                     ).payload.shape == (3, 3)
    # MAX_HEADER_DIGITS significant digits are read and shown as the
    # value; one more is counted
    at_limit = "1" + "0" * (formats.MAX_HEADER_DIGITS - 1)
    for token, shown in ((at_limit, at_limit),
                         ("0" * 50 + at_limit, at_limit),
                         (at_limit + "0", "<101 digits>"),
                         ("0" * 50 + at_limit + "0", "<101 digits>")):
        with pytest.raises(SemanticError) as err:
            parse("idempotent", f"dim {token}\n")
        assert err.value.reason.startswith(f"size {shown}: size^2 cells ")


LONG_TOKEN_REASON = ("a token of {} characters is longer than "
                     f"MAX_TOKEN_CHARS = {formats.MAX_TOKEN_CHARS}")


@pytest.mark.parametrize("kind, text, line, length", [
    ("fusion", f"rank 2\nN 0 0 {LONG} 1\n", 2, 100_000),
    ("fusion", f"rank 2\nN 0 0 0 {LONG}\n", 2, 100_000),
    ("fusion", f"rank 2\nunit 0\ndual 0 {LONG}\n", 3, 100_000),
    ("fusion", f"rank 2\nlabel {LONG} a\n", 2, 100_000),
    ("fusion", f"rank 2\nunit 0 {LONG}\n", 2, 100_000),
    ("algebra", f"dim 2\nmult {LONG} 0 0 1\n", 2, 100_000),
    ("algebra", f"dim 2\nmult 0 0 0 {LONG}\n", 2, 100_000),
    ("algebra", f"dim 2\nmult 0 0 0 1/{LONG}\n", 2, 100_002),
    ("algebra", f"dim 2\ncounit {LONG} 1\n", 2, 100_000),
    ("algebra", f"dim 2\nbasis 0 {LONG}\n", 2, 100_000),
    ("algebra", f"mult 0 0 0 1\ndim {LONG}\nunit {LONG} 1\n", 3,
     100_000),
    ("idempotent", f"dim 2\ne 0 {LONG} 1\n", 2, 100_000),
    ("category", f"object x\nhom x x u\ncompose u u = {LONG}*u\n", 3,
     100_002),
    ("surface-list", f"surface s: genus {LONG} boundary\n", 1, 100_000),
    ("twist", f"twist {LONG} = 1\n", 1, 100_000),
    ("word", f"unit\n{LONG}\n", 2, 100_000),
], ids=["N-index", "N-value", "dual", "label", "unit", "mult-index",
        "mult-value", "mult-denominator", "counit", "basis-name",
        "after-long-header", "e-index", "compose", "genus", "twist",
        "word"])
def test_a_token_of_100000_characters_is_refused_by_its_length(
        unlimited_int_digits, kind, text, line, length):
    # under cli.main's lifted limit, int() of such an index took 0.27 s
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(kind, text, source="long")
    assert time.perf_counter() - start < 0.1
    assert type(err.value) is ParseError
    assert err.value.reason == LONG_TOKEN_REASON.format(length)
    assert (err.value.source, err.value.line) == ("long", line)


def test_tokens_up_to_max_token_chars_are_read_and_comments_are_cut():
    at_limit = "0" * (formats.MAX_TOKEN_CHARS - 1) + "1"
    algebra = parse("algebra", f"dim 2\nmult 0 {at_limit} 1 {at_limit}\n"
                    f"# {LONG}\nunit 0 1 # {LONG}\n").payload
    assert algebra.mult == ((((0, 0), (0, 1)), ((0, 0), (0, 0))), 1)
    with pytest.raises(ParseError) as err:
        parse("algebra", f"dim 2\nmult 0 0 0 {at_limit}0\n")
    assert err.value.reason == LONG_TOKEN_REASON.format(
        formats.MAX_TOKEN_CHARS + 1)


@pytest.mark.parametrize("kind, text, reason", [
    ("algebra", f"dim 2\nmult 0 0 {'1' * 4000} 1\n",
     "index <4000 digits> out of range 0..1"),
    ("algebra", f"dim 2\nmult 0 0 {'1' * 100} 1\n",
     f"index {'1' * 100} out of range 0..1"),
    ("algebra", f"dim 2\nmult 0 0 {'1' * 101} 1\n",
     "index <101 digits> out of range 0..1"),
    ("algebra", f"dim 2\nmult 0 0 -{'1' * 200} 1\n",
     "index -<200 digits> out of range 0..1"),
    ("algebra", f"dim 2\nmult 0 0 {'x' * 200} 1\n",
     "expected an integer, got a token of 200 characters"),
    ("algebra", f"dim 2\nmult 0 0 0 {'x' * 101}\n",
     "expected a rational p/q, got a token of 101 characters"),
    ("algebra", f"dim 2\nmult 0 0 0 {'x' * 100}\n",
     f"expected a rational p/q, got '{'x' * 100}'"),
    ("fusion", f"rank 1\nN 0 0 0 -{'1' * 4000}\n",
     "negative coefficient -<4000 digits>"),
    ("fusion", f"rank 1\n{'x' * 300} 0\n",
     "unknown directive a token of 300 characters"),
    ("category", f"object x\nhom x x u\ncompose u {'v' * 300} = 1*u\n",
     "unknown basis element a token of 300 characters"),
    ("surface-list", f"surface s: genus -{'1' * 4000} boundary\n",
     "negative genus -<4000 digits>"),
    ("twist", f"twist {'1' * 300} = 1\ntwist {'1' * 300} = 1\n",
     "duplicate twist for label <300 digits>"),
    ("word", f"{'x' * 300}\n", "unknown generator a token of 300 characters"),
], ids=["index-4000", "index-100", "index-101", "negative-index",
        "not-an-integer", "not-a-rational", "rational-100", "negative-N",
        "directive", "basis-element", "genus", "twist-label", "generator"])
def test_no_error_quotes_more_than_max_header_digits_of_a_token(
        unlimited_int_digits, kind, text, reason):
    with pytest.raises(ParseError) as err:
        parse(kind, text)
    assert err.value.reason == reason
    assert len(err.value.reason) < formats.MAX_HEADER_DIGITS + 50


def test_negative_coefficient_rejected_with_line():
    text = "rank 1\ndual 0 0\nunit 0\nN 0 0 0 -1\n"
    with pytest.raises(SemanticError, match="negative coefficient") as err:
        parse("fusion", text, source="bad.fusion")
    assert err.value.line == 4
    assert err.value.source == "bad.fusion"


def test_unknown_directive_rejected():
    with pytest.raises(ParseError, match="unknown directive"):
        parse("fusion", "rank 1\nbraiding 0\n")


def test_duplicate_dual_entry_rejected():
    text = "rank 2\ndual 0 0\ndual 1 1\ndual 1 1\nunit 0\n"
    with pytest.raises(SemanticError, match="duplicate dual entry"):
        parse("fusion", text)


def test_out_of_range_index_rejected():
    with pytest.raises(SemanticError, match="out of range"):
        parse("fusion", "rank 2\ndual 0 0\ndual 1 1\nunit 2\n")


def test_missing_dual_rejected():
    with pytest.raises(SemanticError, match="dual not specified"):
        parse("fusion", "rank 2\ndual 0 0\nunit 0\n")


def test_fusion_arity_error_is_syntax_error():
    with pytest.raises(ParseError, match="takes 4 argument"):
        parse("fusion", "rank 1\ndual 0 0\nunit 0\nN 0 0 0\n")


# ---------------------------------------------------------------------------
# algebra format errors


def test_algebra_missing_dim():
    with pytest.raises(SemanticError, match="missing dim"):
        parse("algebra", "basis 0 e\n")


def test_algebra_bad_fraction_token():
    with pytest.raises(ParseError, match="rational"):
        parse("algebra", "dim 1\nmult 0 0 0 one\n")


# Fraction's string grammar changed in Python 3.11, so every token is
# compared with Fraction(token) on the running interpreter
FRACTION_TOKENS = (
    "0", "7", "-7", "+7", "3/4", "-3/4", "+3/2", "10/20", "-0/5", "00/03",
    "3/-2", "3/+2", "1_0", "1_0/2_0", "1.5", "1e3", "/2", "3/", "3/0",
    "0/0", "-3/00", "3/4/5", "\u0663", "\u0663/4", "\u00b2", "+", "-",
    "+-3", "0x10", "9" * 5000, "1/" + "9" * 5000)


def _token_outcome(read, token):
    try:
        value = read(token)
    except (ValueError, ZeroDivisionError, formats.ParseError):
        return None
    assert type(value) is Fraction
    return value


def _assert_reads_as_fraction(token):
    got = _token_outcome(lambda t: formats._fraction(t, "t", 1), token)
    assert got == _token_outcome(Fraction, token), token


@pytest.mark.parametrize("token", FRACTION_TOKENS)
def test_rational_tokens_read_as_fraction_reads_them(token):
    _assert_reads_as_fraction(token)


def test_short_rational_tokens_read_as_fraction_reads_them():
    for length in range(1, 4):
        for chars in itertools.product("0123+-/_.e\u0663", repeat=length):
            _assert_reads_as_fraction("".join(chars))


# ---------------------------------------------------------------------------
# category format errors


def test_category_unknown_object_in_hom():
    with pytest.raises(SemanticError, match="unknown object"):
        parse("category", "object x\nhom x y f\n")


def test_category_bad_combination_syntax():
    text = "object x\nhom x x u\ncompose u u = u\n"
    with pytest.raises(ParseError, match="coeff\\*name"):
        parse("category", text)


def test_category_zero_combination_allowed():
    text = ("object x\nhom x x u\ncompose u u = 0\nidentity x = 1*u\n")
    # u.u = 0 with identity u is structurally fine; validation would fail
    doc = parse("category", text)
    assert doc.payload.compose_basis("u", "u") == {}


def test_category_identity_for_nonzero_hom_required():
    text = "object x\nhom x x u\ncompose u u = 1*u\n"
    with pytest.raises(SemanticError, match="identity"):
        parse("category", text)


# ---------------------------------------------------------------------------
# surfaces, twists, words, idempotents


def test_surface_header_errors():
    with pytest.raises(ParseError, match="expected: surface"):
        parse("surface-list", "surface torus genus 1 boundary\n")
    with pytest.raises(SemanticError, match="negative genus"):
        parse("surface-list", "surface t: genus -1 boundary\n")


def test_twist_values_and_errors():
    doc = parse("twist", "twist 0 = 1\ntwist 1 = zeta(10,4)\n")
    from verlinde.surfaces import Twist
    assert doc.payload[0] == Twist.one()
    assert doc.payload[1] == Twist.root_of_unity(5, 2)
    with pytest.raises(SemanticError, match="order"):
        parse("twist", "twist 0 = zeta(0,1)\n")
    with pytest.raises(SemanticError, match="nonzero"):
        parse("twist", "twist 0 = 0\n")
    with pytest.raises(SemanticError, match="duplicate twist"):
        parse("twist", "twist 0 = 1\ntwist 0 = 1\n")


def test_word_unknown_generator():
    with pytest.raises(ParseError, match="unknown generator"):
        parse("word", "unit\nbraid\n")


def test_idempotent_requires_dim_and_bounds():
    with pytest.raises(SemanticError, match="missing dim"):
        parse("idempotent", "e 0 0 1\n")
    with pytest.raises(SemanticError, match="out of range"):
        parse("idempotent", "dim 1\ne 0 1 1\n")


def test_parse_error_message_carries_position():
    try:
        parse("fusion", "rank 1\ndual 0 0\nunit 0\nN 0 0 0 -3\n",
              source="ring.fusion")
    except SemanticError as err:
        assert str(err).startswith("ring.fusion:4: ")
    else:
        raise AssertionError("expected SemanticError")


IDEMPOTENT_TEXTS = [
    "dim 3\n",
    "dim 2\ne 0 0 1\ne 1 1 1\n",
    "dim 2\ne 0 1 2/4\ne 1 0 -6/8\ne 1 1 0/5\n",
    "dim 3\ne 0 0 +5/10\ne 2 1 -0\ne 1 2 0.25\ne 2 2 1e3\ne 0 2 7/3\n",
    "dim 2\ne 0 0 4/6\ne 0 1 8/6\ne 1 0 -12/6\ne 1 1 2\n",
    "dim 2\ne 0 0 123456789012345678901234567890/7\ne 1 1 -1/3\n",
]


@pytest.mark.parametrize("text", IDEMPOTENT_TEXTS)
def test_idempotent_parses_to_the_matrix_of_its_fractions(text):
    # the parser builds integer rows over the lcm of the denominators as
    # written; the matrix is the one its entries as Fractions give
    dim = int(text.split()[1])
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for line in text.splitlines()[1:]:
        _, i, j, value = line.split()
        rows[int(i)][int(j)] = Fraction(value)
    got = parse("idempotent", text).payload
    want = Matrix(rows)
    assert got == want
    assert got.shape == want.shape
    assert got.integer_form == want.integer_form
    assert got.entries == want.entries


@pytest.mark.parametrize("text, error, message", [
    ("dim 2\ne 0 0 1\ne 1 1 1\ne 0 0 2\n", SemanticError,
     "m.idem:4: duplicate entry for (0,0)"),
    ("dim 2\ne 0 0 1\ne 1 1 1/0\n", ParseError,
     "m.idem:3: expected a rational p/q, got '1/0'"),
    ("dim 2\ne 0 0 half\n", ParseError,
     "m.idem:2: expected a rational p/q, got 'half'"),
    ("dim 2\ne 0 0 1\ne 0 2 1\n", SemanticError,
     "m.idem:3: index 2 out of range 0..1"),
    ("dim 2\ne 0 0 1 2\n", ParseError, "m.idem:2: "),
])
def test_idempotent_errors_name_their_line(text, error, message):
    with pytest.raises(error) as err:
        parse("idempotent", text, source="m.idem")
    assert str(err.value).startswith(message)


# a duplicate is an error on its second line whatever the first value,
# in either order of an explicit zero and a nonzero value
@pytest.mark.parametrize("kind, head, entry, reason", [
    ("fusion", "rank 1\ndual 0 0\nunit 0\n", "N 0 0 0 {}",
     "duplicate N entry for (0,0,0)"),
    ("algebra", "dim 1\n", "mult 0 0 0 {}",
     "duplicate mult entry for (0,0,0)"),
    ("algebra", "dim 1\n", "unit 0 {}", "duplicate unit entry for 0"),
    ("algebra", "dim 1\n", "counit 0 {}", "duplicate counit entry for 0"),
    ("idempotent", "dim 1\n", "e 0 0 {}", "duplicate entry for (0,0)"),
], ids=["N", "mult", "unit", "counit", "e"])
@pytest.mark.parametrize("values", [("0", "1"), ("1", "0"), ("0", "0")],
                         ids=["zero-first", "zero-second", "zeros"])
def test_duplicates_are_errors_whatever_the_value(kind, head, entry, reason,
                                                  values):
    text = head + "".join(entry.format(v) + "\n" for v in values)
    with pytest.raises(SemanticError) as err:
        parse(kind, text, source="d")
    assert (err.value.reason, err.value.line) == (
        reason, text.count("\n"))


CATEGORY_HEAD = "object p\nobject q\nhom p p a\nhom p q f\nhom q q b\n"


# structural errors are raised once the text is read, each on the line of
# its compose or identity directive, and a missing identity on line 0
@pytest.mark.parametrize("body, error, reason, line", [
    ("compose a a = 1*\nidentity p = 1*a\nidentity q = 1*b\n", ParseError,
     "expected coeff*name term, got '1*'", 6),
    ("compose a a = 1*a\ncompose f a = 1*a\nidentity p = 1*a\n"
     "identity q = 1*b\n", SemanticError,
     "compose(f,a): result term a does not lie in hom(p,q)", 7),
    ("compose a f = 1*f\nidentity p = 1*a\nidentity q = 1*b\n",
     SemanticError, "compose(a,f): not composable (f: p->q, a: p->p)", 6),
    ("compose a a = 1*a\nidentity p = 1*a\nidentity q = 1*f\n"
     "compose b b = 1*b\n", SemanticError,
     "identity of q: term f not in hom(q,q)", 8),
    ("compose a a = 1*a + 1*zz\nidentity p = 1*a\nidentity q = 1*b\n",
     SemanticError, "compose(a,a): result term zz does not lie in hom(p,p)",
     6),
    ("compose a a = 1*a\nidentity p = 1*a\nidentity q = 0\n",
     SemanticError, "identity of q missing although hom(q,q) is nonzero", 0),
    ("compose a a = 1*a\nidentity p = 1*a\n", SemanticError,
     "identity of q missing although hom(q,q) is nonzero", 0),
], ids=["empty-term", "term-outside", "not-composable", "identity-term",
        "unknown-term", "zero-identity", "no-identity"])
def test_category_errors_name_their_own_line(body, error, reason, line):
    text = CATEGORY_HEAD + body + "# end\n\n"
    with pytest.raises(ParseError) as err:
        parse("category", text, source="c")
    assert (type(err.value), err.value.reason, err.value.line) == (
        error, reason, line)


def test_a_structural_error_waits_for_a_later_syntax_error():
    text = (CATEGORY_HEAD + "compose f a = 1*a\nidentity p = 1*a\n"
            "identity q = 1*b\nmorphism a\n")
    with pytest.raises(ParseError) as err:
        parse("category", text)
    assert (type(err.value), err.value.line) == (ParseError, 9)
