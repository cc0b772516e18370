"""The one-pass readers of `formats` against the readers they replaced.

`oracles.parent_parse` keeps the line-by-line readers of the four kinds
read into integer forms now (fusion rings, algebras, categories and
idempotents), each value a `Fraction`.  Every document here is read by
both, and the outcomes must agree: equal payloads with equal integer
forms and names, or errors of one class, reason and line.  Three
differences are allowed, each recognised by `_fixed` from the document
itself and counted:

- "zero duplicate": a duplicate N, mult, unit or counit entry whose
  earlier line sets the value 0 is an error on its own line now, where
  the parent accepted the second value;
- "structural line": a structural category error names the line of its
  `compose` or `identity` directive (line 0 for a missing identity),
  where the parent named the last line of the document;
- "empty term": a term `c*` without a basis name is a syntax error on
  its line now, where the parent reported a structural error.

The documents are the corpus and the `tests/data` inputs, serialized
stock, Mat and Karoubi categories, noisy respellings of all of them
(comments, blank lines, tabs, signs, leading zeros, non-ASCII digits,
decimals, exponents, underscores, values past 2**200 and mixed
denominators), and single-line mutations: each line deleted,
duplicated, swapped with the next and with another line, preceded by a
copy whose value is 0, its composite's factors swapped, and each of its
tokens replaced by an out-of-range index, a non-integer, `1/0`, a term
without a name or a term of another basis element.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import CORPUS_ALGEBRAS, CORPUS_CATEGORIES, CORPUS_RINGS
from oracles import parent_lines, parent_parse
from verlinde import categories, corpus, formats, tqft
from verlinde.exact import Matrix
from verlinde.formats import ParseError
from verlinde.fusion import enumerate_fusion_rings

DATA = Path(__file__).parent / "data"
# the digits 0-9 as Arabic-Indic digits, which int() and Fraction() read
ARABIC_INDIC = str.maketrans("0123456789",
                             "".join(map(chr, range(0x660, 0x66a))))


def _frobenius(algebra, counit):
    return tqft.FrobeniusAlgebra(algebra.names, algebra.mult, algebra.unit,
                                 tuple(counit))


def _stock() -> list[tuple[str, str, str]]:
    """(name, kind, text) of every document the comparisons start from."""
    docs = []
    for names in (CORPUS_RINGS, CORPUS_ALGEBRAS, CORPUS_CATEGORIES,
                  ("mat2.idem", "z2group.idem", "ksquared.idem")):
        for name in names:
            docs.append((name, formats.kind_for_path(name),
                         corpus.corpus_path(name).read_text("utf-8")))
    chunks = (DATA / "enumerate_rank2_maxcoeff1.txt").read_text("utf-8")
    docs += [(f"enumerate-{i}", "fusion", chunk) for i, chunk in
             enumerate(c for c in chunks.split("\n\n") if c.strip())]
    docs.append(("complete_mat_onepoint", "category",
                 (DATA / "cli" / "complete_mat_onepoint.txt")
                 .read_text("utf-8")))
    for i, ring in enumerate(enumerate_fusion_rings(3, 2)[:6]):
        docs.append((f"enumerated-{i}", "fusion",
                     formats.serialize("fusion", ring)))
    m3, z4 = tqft.matrix_algebra(3), tqft.group_algebra(tqft.cyclic_table(4))
    for name, algebra in (
            ("m3", _frobenius(m3, [Fraction(i % 4 == 0) for i in range(9)])),
            ("z4", _frobenius(z4, [Fraction(1, 4), 0, 0, 0])),
            ("k3", _frobenius(tqft.product_field_algebra(3),
                              [Fraction(2, 3), Fraction(-5, 7), 3]))):
        docs.append((name, "algebra", formats.serialize("algebra", algebra)))
    rng = random.Random(30)
    for dim in (1, 3, 6):
        m = Matrix([[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                     for _ in range(dim)] for _ in range(dim)])
        docs.append((f"matrix-{dim}", "idempotent",
                     formats.serialize("idempotent", m)))
    m2, field = (categories.matrix_algebra_category(2),
                 categories.field_category())
    k2 = tqft.product_field_algebra(2).to_category()
    for name, cat in (
            ("field", field), ("m2", m2),
            ("mat-k-2", categories.mat_completion(field, 2)),
            ("mat-k2-2", categories.mat_completion(k2, 2)),
            ("karoubi-k", categories.karoubi_completion(field)),
            ("karoubi-k2", categories.karoubi_completion(k2)),
            ("karoubi-m2", categories.karoubi_completion(m2))):
        docs.append((name, "category", formats.serialize("category", cat)))
    return docs


STOCK = _stock()
SMALL = [doc for doc in STOCK if doc[2].count("\n") <= 400]
LARGE = [doc for doc in STOCK if doc[2].count("\n") > 400]


def _forms(kind, payload) -> tuple:
    """The payload with the integer forms and names that must agree."""
    if kind == "fusion":
        return payload, payload.table, payload.names
    if kind == "algebra":
        return payload, payload.mult, payload.names, \
            payload.unit, payload.counit
    if kind == "category":
        return payload, payload._names, payload._den, payload._rows, \
            payload._identity
    return payload, payload.integer_form, payload.shape


class Failure(NamedTuple):
    kind: type
    reason: str
    line: int


def _outcome(read, kind, text):
    try:
        payload = read(kind, text, "doc")
    except ParseError as err:
        return Failure(type(err), err.reason, err.line)
    return _forms(kind, payload)


def _zero(token) -> bool:
    try:
        return Fraction(token) == 0
    except (ValueError, ZeroDivisionError):
        return False


def _fixed(text, old, new) -> str | None:
    """The fix that explains why `new` differs from `old` on `text`."""
    lines = dict(parent_lines(text))
    if not isinstance(new, Failure):
        return None
    if (new.kind is formats.SemanticError
            and new.reason.split(" entry")[0] in (
                "duplicate N", "duplicate mult", "duplicate unit",
                "duplicate counit")):
        head, *rest = lines[new.line]
        earlier = [tokens for line, tokens in lines.items()
                   if line < new.line and tokens[0] == head
                   and len(tokens) == len(rest) + 1
                   and list(map(int, tokens[1:-1])) == list(
                       map(int, rest[:-1]))]
        # the parent read on past the duplicate
        if (len(earlier) == 1 and _zero(earlier[0][-1])
                and (not isinstance(old, Failure) or old.line == 0
                     or old.line > new.line)):
            return "zero duplicate"
    if (isinstance(old, Failure) and old[:2] == new[:2]
            and old.line == max(lines) and old.line != new.line):
        if new.line == 0:
            return "structural line" if "missing although" in new.reason \
                else None
        tokens = lines[new.line]
        if (tokens[0] == "compose" and new.reason.startswith(
                f"compose({tokens[1]},{tokens[2]})")) or (
                tokens[0] == "identity" and new.reason.startswith(
                    f"identity of {tokens[1]}:")):
            return "structural line"
    if (new.kind is ParseError
            and new.reason.startswith("expected coeff*name term, got '")
            and new.reason.endswith("*'")):
        return "empty term"
    return None


def _parse(kind, text, source):
    return formats.parse(kind, text, source).payload


def _compare(kind, text, seen: Counter) -> None:
    old = _outcome(parent_parse, kind, text)
    new = _outcome(_parse, kind, text)
    if new != old:
        fix = _fixed(text, old, new)
        assert fix, f"{kind} document differs:\n{text}\nold {old}\nnew {new}"
        seen[fix] += 1


# ---------------------------------------------------------------------------
# respelled documents


def _respell(token: str, rng: random.Random, rational: bool) -> str:
    """`token`, or another spelling of its value that int() reads, or
    Fraction() when it is `rational`; now and then another value."""
    p, slash, q = token.partition("/")
    if not (p.lstrip("+-").isdigit() and (not slash or q.isdigit())):
        return token
    if rng.random() < 0.03:
        return rng.choice(["1_0", str(2 ** 201 + int(p))] + rational * [
            "1e2", "0.5", f"-{2 ** 203}/{3 ** 5}", f"{p}/0"])
    spellings = [token]
    if not slash:
        spellings += [token.translate(ARABIC_INDIC),
                      f"0{token}" if token[0] not in "+-" else token,
                      f"+{token}" if token[0] != "-" else token]
    if rational:
        spellings += [f"{p}0/{q or 1}0", str(Fraction(token))]
        if not slash:
            spellings += [f"{token}.0", f"{token}e0"]
    return rng.choice(spellings)


def _noisy(text: str, rng: random.Random) -> str:
    out = []
    for line in text.splitlines():
        head, *rest = line.split() or [""]
        # a size header keeps its value: the parent reads a huge one by
        # looping over every label or basis element
        if rng.random() < 0.5 and head not in ("rank", "dim"):
            valued = head in ("mult", "unit", "counit", "e")
            rest = [_respell(t, rng, valued and i == len(rest) - 1)
                    for i, t in enumerate(rest)]
            if head in ("compose", "identity"):
                rest = [_respell(c, rng, True) + star + name
                        for c, star, name in (t.partition("*")
                                              for t in rest)]
        body = rng.choice([" ", "\t", "  ", " \t "]).join([head, *rest])
        body = rng.choice(["", " ", "\t"]) + body
        if rng.random() < 0.3:
            body += rng.choice(["  # note", "#", "\t# a # b", " #"])
        out.append(body)
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# comment", "\t", "#"]))
    return "\n".join(out) + rng.choice(["", "\n", "\n\n", "\n# end"])


# ---------------------------------------------------------------------------
# single-line mutations


def _mutations(text: str, rng: random.Random, picks=None):
    rows = text.splitlines()
    basis = [row.split()[3] for row in rows if row.startswith("hom ")]
    for i in range(len(rows)) if picks is None else picks:
        yield rows[:i] + rows[i + 1:]
        yield rows[:i + 1] + rows[i:]
        j = rng.randrange(len(rows))
        for k in {min(i + 1, len(rows) - 1), j}:
            swapped = list(rows)
            swapped[i], swapped[k] = swapped[k], swapped[i]
            yield swapped
        tokens = rows[i].split() or [""]
        if len(tokens) > 2 and tokens[0] in ("N", "mult", "unit", "counit"):
            yield rows[:i] + [" ".join(tokens[:-1] + ["0"])] + rows[i:]
        if tokens[0] == "compose":
            tokens[1], tokens[2] = tokens[2], tokens[1]
            yield rows[:i] + [" ".join(tokens)] + rows[i + 1:]
            tokens[1], tokens[2] = tokens[2], tokens[1]
        for t in range(1, len(tokens)):
            coeff, star, name = tokens[t].partition("*")
            bad = ["9", "-1", "x", "1/0"]
            if star:
                bad += [f"{coeff}*", f"1/0*{name}", f"0*{name}", "0*",
                        f"{coeff}*{rng.choice(basis)}"]
            for replacement in bad:
                changed = tokens[:t] + [replacement] + tokens[t + 1:]
                yield rows[:i] + [" ".join(changed)] + rows[i + 1:]


def _join(rows) -> str:
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("name, kind, text", STOCK,
                         ids=[doc[0] for doc in STOCK])
def test_stock_documents_read_as_the_parent_read_them(name, kind, text):
    old = _outcome(parent_parse, kind, text)
    assert not isinstance(old, Failure), old
    assert _outcome(_parse, kind, text) == old


@pytest.mark.parametrize("name, kind, text", STOCK,
                         ids=[doc[0] for doc in STOCK])
def test_respelled_documents_read_as_the_parent_read_them(name, kind, text):
    rng, seen = random.Random(f"noisy/{name}"), Counter()
    for _ in range(12 if len(text) < 20000 else 2):
        _compare(kind, _noisy(text, rng), seen)
    assert set(seen) <= {"zero duplicate", "empty term"}


@pytest.mark.parametrize("name, kind, text", SMALL,
                         ids=[doc[0] for doc in SMALL])
def test_every_single_line_mutation_reads_as_the_parent_read_it(
        name, kind, text):
    rng, seen = random.Random(f"mutations/{name}"), Counter()
    for rows in _mutations(text, rng):
        _compare(kind, _join(rows), seen)
    if kind in ("fusion", "algebra"):
        assert seen["zero duplicate"]
    if kind == "category":
        assert seen["empty term"] and seen["structural line"]


@pytest.mark.parametrize("name, kind, text", LARGE,
                         ids=[doc[0] for doc in LARGE])
def test_mutations_of_a_large_category_read_as_the_parent_read_them(
        name, kind, text):
    rows = text.splitlines()
    identity = next(i for i, row in enumerate(rows)
                    if row.startswith("identity"))
    compose = next(i for i, row in enumerate(rows)
                   if row.startswith("compose"))
    rng, seen = random.Random(f"mutations/{name}"), Counter()
    for mutated in _mutations(text, rng, (compose, identity, len(rows) - 1)):
        _compare(kind, _join(mutated), seen)
    assert seen["structural line"]


def test_the_line_reader_keeps_the_parent_tokens():
    rng = random.Random(3)
    texts = [text for _, _, text in SMALL]
    texts += [_noisy(text, rng) for text in texts]
    texts += ["", "\n\n", "#", "a#b c", " x  y z ", "\ta\r\nb\rc",
              "one\x0ctwo\x1cthree four"]
    for text in texts:
        assert list(formats._lines(text)) == list(parent_lines(text))
