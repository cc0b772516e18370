"""Line-oriented text formats for every object the package computes with.

One format per kind of document: fusion rings, Frobenius algebras,
presented categories, surface lists, twist assignments, cobordism
words, and separability idempotents.  All formats are UTF-8, use `#`
comments, and are diffable; serializers emit a canonical form so that
serialize(parse(file)) is byte-identical on canonical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .categories import CategoryFormatError, PresentedCategory
from .exact import Matrix, Tensor3
from .fusion import FusionRing
from .surfaces import ColouredSurface, Twist, TwistFormatError
from .tqft import GENERATORS, CobordismWord, FrobeniusAlgebra

__all__ = [
    "KINDS",
    "Document",
    "ParseError",
    "SemanticError",
    "parse",
    "serialize",
    "kind_for_path",
]

KINDS = ("fusion", "algebra", "category", "surface-list", "twist",
         "word", "idempotent")

EXTENSIONS = {
    ".fusion": "fusion",
    ".algebra": "algebra",
    ".category": "category",
    ".surfaces": "surface-list",
    ".twist": "twist",
    ".word": "word",
    ".idem": "idempotent",
}


class ParseError(ValueError):
    """Syntax error with source name and line number."""

    def __init__(self, message: str, source: str = "<input>", line: int = 0):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line
        self.reason = message


class SemanticError(ParseError):
    """Well-formed line whose content is inconsistent or out of range."""


@dataclass(frozen=True)
class Document:
    """A parsed file: its kind tag, payload, and source name."""

    kind: str
    payload: object
    source: str = "<input>"


def kind_for_path(path: str) -> str | None:
    for ext, kind in EXTENSIONS.items():
        if str(path).endswith(ext):
            return kind
    return None


# ---------------------------------------------------------------------------
# low-level line handling


def _lines(text: str, source: str):
    """Yield (line_number, tokens) for every non-comment, non-blank line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        yield lineno, body.split()


def _int(token: str, source: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", source, line)


# ASCII p or p/q: read with int() directly; every other token goes to
# Fraction(token), which decides what it accepts
_PLAIN_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _ratio(token: str, source: str, line: int) -> tuple[int, int]:
    """(p, q), q > 0, with p / q the rational `token`; not reduced."""
    try:
        plain = _PLAIN_RATIONAL.fullmatch(token)
        if plain is None:
            x = Fraction(token)
            return x.numerator, x.denominator
        p, q = int(plain[1]), int(plain[2] or 1)
        if q:
            return p, q
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"expected a rational p/q, got {token!r}", source, line)


def _fraction(token: str, source: str, line: int) -> Fraction:
    return Fraction(*_ratio(token, source, line))


def _index(token: str, bound: int, source: str, line: int) -> int:
    value = _int(token, source, line)
    if not 0 <= value < bound:
        raise SemanticError(f"index {value} out of range 0..{bound - 1}",
                            source, line)
    return value


def _arity(tokens, n: int, source: str, line: int) -> None:
    if len(tokens) != n:
        raise ParseError(
            f"directive {tokens[0]!r} takes {n - 1} argument(s), "
            f"got {len(tokens) - 1}", source, line)


def _header(entries, name: str, source: str) -> int:
    """The value of the one `name` directive (`rank` or `dim`) among the
    (line, tokens) `entries`: an integer >= 1, checked as it is read.  A
    duplicate, a wrong arity, a non-integer or a value below 1 raises on
    its line, and a missing directive on line 0."""
    value = None
    for lineno, tokens in entries:
        if tokens[0] == name:
            if value is not None:
                raise SemanticError(f"duplicate {name} directive",
                                    source, lineno)
            _arity(tokens, 2, source, lineno)
            value = _int(tokens[1], source, lineno)
            if value < 1:
                raise SemanticError(f"{name} {value} must be >= 1",
                                    source, lineno)
    if value is None:
        raise SemanticError(f"missing {name}", source, 0)
    return value


# ---------------------------------------------------------------------------
# fusion rings


def _parse_fusion(text: str, source: str) -> FusionRing:
    entries = list(_lines(text, source))
    rank = _header(entries, "rank", source)

    names: dict[int, str] = {}
    dual: dict[int, int] = {}
    unit: tuple[int, ...] | None = None
    coeffs: dict[tuple[int, int, int], int] = {}
    for lineno, tokens in entries:
        head = tokens[0]
        if head == "rank":
            continue
        if head == "label":
            _arity(tokens, 3, source, lineno)
            i = _index(tokens[1], rank, source, lineno)
            if i in names:
                raise SemanticError(f"duplicate label entry for {i}",
                                    source, lineno)
            names[i] = tokens[2]
        elif head == "dual":
            _arity(tokens, 3, source, lineno)
            i = _index(tokens[1], rank, source, lineno)
            j = _index(tokens[2], rank, source, lineno)
            if i in dual or j in dual:
                raise SemanticError(
                    f"duplicate dual entry for {i if i in dual else j}",
                    source, lineno)
            dual[i] = j
            dual[j] = i
        elif head == "unit":
            if unit is not None:
                raise SemanticError("duplicate unit directive", source, lineno)
            if len(tokens) < 2:
                raise ParseError("unit needs at least one label",
                                 source, lineno)
            parts = [_index(t, rank, source, lineno) for t in tokens[1:]]
            if len(set(parts)) != len(parts):
                raise SemanticError("repeated unit component", source, lineno)
            unit = tuple(sorted(parts))
        elif head == "N":
            _arity(tokens, 5, source, lineno)
            a = _index(tokens[1], rank, source, lineno)
            b = _index(tokens[2], rank, source, lineno)
            c = _index(tokens[3], rank, source, lineno)
            m = _int(tokens[4], source, lineno)
            if m < 0:
                raise SemanticError(f"negative coefficient {m}",
                                    source, lineno)
            if (a, b, c) in coeffs:
                raise SemanticError(f"duplicate N entry for ({a},{b},{c})",
                                    source, lineno)
            if m:
                coeffs[(a, b, c)] = m
        else:
            raise ParseError(f"unknown directive {head!r}", source, lineno)

    if unit is None:
        raise SemanticError("missing unit directive", source, 0)
    for i in range(rank):
        if i not in dual:
            raise SemanticError(f"dual not specified for label {i}",
                                source, 0)
    full_names = tuple(names.get(i, str(i)) for i in range(rank))
    if len(set(full_names)) != rank:
        raise SemanticError("label names are not distinct", source, 0)
    return FusionRing(
        dual=tuple(dual[i] for i in range(rank)),
        unit=unit,
        coeffs=Tensor3.from_dict((rank, rank, rank), coeffs),
        names=full_names)


def _serialize_fusion(ring: FusionRing) -> str:
    lines = [f"rank {ring.rank}"]
    for i, name in enumerate(ring.names):
        lines.append(f"label {i} {name}")
    for i in range(ring.rank):
        if i <= ring.dual[i]:
            lines.append(f"dual {i} {ring.dual[i]}")
    lines.append("unit " + " ".join(str(b) for b in ring.unit))
    lines += [f"N {a} {b} {c} {v}" for a, plane in enumerate(ring.table)
              for b, fibre in enumerate(plane)
              for c, v in enumerate(fibre) if v]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Frobenius algebras


def _parse_algebra(text: str, source: str) -> FrobeniusAlgebra:
    entries = list(_lines(text, source))
    dim = _header(entries, "dim", source)

    names: dict[int, str] = {}
    mult: dict[tuple[int, int, int], Fraction] = {}
    unit: dict[int, Fraction] = {}
    counit: dict[int, Fraction] = {}
    for lineno, tokens in entries:
        head = tokens[0]
        if head == "dim":
            continue
        if head == "basis":
            _arity(tokens, 3, source, lineno)
            i = _index(tokens[1], dim, source, lineno)
            if i in names:
                raise SemanticError(f"duplicate basis entry for {i}",
                                    source, lineno)
            names[i] = tokens[2]
        elif head == "mult":
            _arity(tokens, 5, source, lineno)
            i = _index(tokens[1], dim, source, lineno)
            j = _index(tokens[2], dim, source, lineno)
            k = _index(tokens[3], dim, source, lineno)
            v = _fraction(tokens[4], source, lineno)
            if (i, j, k) in mult:
                raise SemanticError(f"duplicate mult entry for ({i},{j},{k})",
                                    source, lineno)
            if v:
                mult[(i, j, k)] = v
        elif head in ("unit", "counit"):
            _arity(tokens, 3, source, lineno)
            i = _index(tokens[1], dim, source, lineno)
            v = _fraction(tokens[2], source, lineno)
            store = unit if head == "unit" else counit
            if i in store:
                raise SemanticError(f"duplicate {head} entry for {i}",
                                    source, lineno)
            if v:
                store[i] = v
        else:
            raise ParseError(f"unknown directive {head!r}", source, lineno)

    return FrobeniusAlgebra(
        names=tuple(names.get(i, f"e{i}") for i in range(dim)),
        mult=Tensor3.from_dict((dim, dim, dim), mult),
        unit=tuple(unit.get(i, Fraction(0)) for i in range(dim)),
        counit=tuple(counit.get(i, Fraction(0)) for i in range(dim)))


def _serialize_algebra(algebra: FrobeniusAlgebra) -> str:
    lines = [f"dim {algebra.dim}"]
    for i, name in enumerate(algebra.names):
        lines.append(f"basis {i} {name}")
    for (i, j, k), v in algebra.mult.nonzero():
        lines.append(f"mult {i} {j} {k} {v}")
    for i, v in enumerate(algebra.unit):
        if v:
            lines.append(f"unit {i} {v}")
    for i, v in enumerate(algebra.counit):
        if v:
            lines.append(f"counit {i} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presented categories


def _parse_combination(tokens, source, lineno,
                       ratios) -> dict[str, tuple[int, int]]:
    """Parse `0` or `c1*b1 + c2*b2 + ...` given as a token list, as
    {b: (p, q)} with c = p / q; `ratios` keeps the (p, q) of each
    coefficient token already read."""
    if tokens == ["0"]:
        return {}
    combo: dict[str, tuple[int, int]] = {}
    expect_term = True
    for token in tokens:
        if token == "+":
            if expect_term:
                raise ParseError("misplaced '+' in combination",
                                 source, lineno)
            expect_term = True
            continue
        if not expect_term:
            raise ParseError(f"expected '+' before {token!r}", source, lineno)
        if "*" not in token:
            raise ParseError(
                f"expected coeff*name term, got {token!r}", source, lineno)
        coeff_str, name = token.split("*", 1)
        coeff = ratios.get(coeff_str)
        if coeff is None:
            coeff = ratios[coeff_str] = _ratio(coeff_str, source, lineno)
        if name in combo:
            raise SemanticError(f"repeated term {name!r} in combination",
                                source, lineno)
        combo[name] = coeff
        expect_term = False
    if expect_term:
        raise ParseError("combination ends with '+'", source, lineno)
    return combo


def _parse_category(text: str, source: str) -> PresentedCategory:
    """Read each distinct coefficient token once, as a pair (p, q) of
    integers; `PresentedCategory` reads the pairs without a `Fraction`."""
    objects: list[str] = []
    hom: dict[tuple[str, str], list[str]] = {}
    basis_seen: set[str] = set()
    compose: dict[tuple[str, str], dict[str, tuple[int, int]]] = {}
    identities: dict[str, dict[str, tuple[int, int]]] = {}
    ratios: dict[str, tuple[int, int]] = {}
    last_line = 0
    for lineno, tokens in _lines(text, source):
        last_line = lineno
        head = tokens[0]
        if head == "object":
            _arity(tokens, 2, source, lineno)
            if tokens[1] in objects:
                raise SemanticError(f"duplicate object {tokens[1]!r}",
                                    source, lineno)
            objects.append(tokens[1])
        elif head == "hom":
            _arity(tokens, 4, source, lineno)
            p, q, b = tokens[1], tokens[2], tokens[3]
            for obj in (p, q):
                if obj not in objects:
                    raise SemanticError(f"unknown object {obj!r}",
                                        source, lineno)
            if b in basis_seen:
                raise SemanticError(f"duplicate basis name {b!r}",
                                    source, lineno)
            basis_seen.add(b)
            hom.setdefault((p, q), []).append(b)
        elif head == "compose":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError(
                    "expected: compose <g> <f> = <combination>",
                    source, lineno)
            g, f = tokens[1], tokens[2]
            for b in (g, f):
                if b not in basis_seen:
                    raise SemanticError(f"unknown basis element {b!r}",
                                        source, lineno)
            if (g, f) in compose:
                raise SemanticError(f"duplicate compose entry ({g},{f})",
                                    source, lineno)
            compose[(g, f)] = _parse_combination(tokens[4:], source, lineno,
                                                 ratios)
        elif head == "identity":
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError("expected: identity <p> = <combination>",
                                 source, lineno)
            p = tokens[1]
            if p not in objects:
                raise SemanticError(f"unknown object {p!r}", source, lineno)
            if p in identities:
                raise SemanticError(f"duplicate identity for {p!r}",
                                    source, lineno)
            identities[p] = _parse_combination(tokens[3:], source, lineno,
                                               ratios)
        else:
            raise ParseError(f"unknown directive {head!r}", source, lineno)
    if not objects:
        raise SemanticError("missing object directives", source, 0)
    try:
        return PresentedCategory._from_names(objects, hom, compose,
                                             identities)
    except CategoryFormatError as err:
        raise SemanticError(str(err), source, last_line) from err


class _Coefficients(dict):
    """The text 'c*' of c / den for each integer c, made once per value."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, c: int) -> str:
        text = self[c] = f"{Fraction(c, self.den)}*"
        return text


def _serialize_category(cat: PresentedCategory) -> str:
    lines = [f"object {p}" for p in cat.objects]
    for p in cat.objects:
        for q in cat.objects:
            for b in cat.hom(p, q):
                lines.append(f"hom {p} {q} {b}")
    # the integer rows follow the basis numbering, which is the order above
    names, coeffs = cat._names, _Coefficients(cat._den)
    for g, row in zip(names, cat._rows):
        for f, terms in row.items():
            body = " + ".join([coeffs[c] + names[k] for k, c in terms.items()])
            lines.append(f"compose {g} {names[f]} = {body}")
    for p in cat.objects:
        x, d = cat._identity[p]
        coeffs = _Coefficients(d)
        body = " + ".join([coeffs[c] + names[k] for k, c in x.items()])
        lines.append(f"identity {p} = {body or 0}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# surface lists


def _parse_surfaces(text: str, source: str) -> dict[str, ColouredSurface]:
    surfaces: dict[str, ColouredSurface] = {}
    for lineno, tokens in _lines(text, source):
        if tokens[0] != "surface":
            raise ParseError(f"unknown directive {tokens[0]!r}",
                             source, lineno)
        if len(tokens) < 5 or not tokens[1].endswith(":"):
            raise ParseError(
                "expected: surface <name>: genus <g> boundary [labels]",
                source, lineno)
        name = tokens[1][:-1]
        if not name:
            raise ParseError("empty surface name", source, lineno)
        if name in surfaces:
            raise SemanticError(f"duplicate surface {name!r}", source, lineno)
        if tokens[2] != "genus" or tokens[4] != "boundary":
            raise ParseError(
                "expected: surface <name>: genus <g> boundary [labels]",
                source, lineno)
        genus = _int(tokens[3], source, lineno)
        if genus < 0:
            raise SemanticError(f"negative genus {genus}", source, lineno)
        boundary = tuple(_int(t, source, lineno) for t in tokens[5:])
        if any(b < 0 for b in boundary):
            raise SemanticError("negative boundary colour", source, lineno)
        surfaces[name] = ColouredSurface(genus, boundary)
    return surfaces


def _serialize_surfaces(surfaces: dict[str, ColouredSurface]) -> str:
    lines = []
    for name in sorted(surfaces):
        s = surfaces[name]
        boundary = "".join(f" {c}" for c in s.boundary)
        lines.append(f"surface {name}: genus {s.genus} boundary{boundary}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# twists


def _parse_twist_value(token: str, source: str, lineno: int) -> Twist:
    try:
        if token.startswith("zeta(") and token.endswith(")"):
            inner = token[len("zeta("):-1]
            parts = inner.split(",")
            if len(parts) != 2:
                raise TwistFormatError(
                    f"zeta takes (order,exponent), got {token!r}")
            return Twist.root_of_unity(int(parts[0]), int(parts[1]))
        return Twist.from_rational(_fraction(token, source, lineno))
    except (TwistFormatError, ValueError) as err:
        raise SemanticError(str(err), source, lineno) from err


def _parse_twists(text: str, source: str) -> dict[int, Twist]:
    twists: dict[int, Twist] = {}
    for lineno, tokens in _lines(text, source):
        if tokens[0] != "twist":
            raise ParseError(f"unknown directive {tokens[0]!r}",
                             source, lineno)
        if len(tokens) != 4 or tokens[2] != "=":
            raise ParseError("expected: twist <label> = <value>",
                             source, lineno)
        label = _int(tokens[1], source, lineno)
        if label < 0:
            raise SemanticError(f"negative label {label}", source, lineno)
        if label in twists:
            raise SemanticError(f"duplicate twist for label {label}",
                                source, lineno)
        twists[label] = _parse_twist_value(tokens[3], source, lineno)
    return twists


def _twist_value_str(t: Twist) -> str:
    if t.rational is not None:
        return str(t.rational)
    return f"zeta({t.order},{t.exponent})"


def _serialize_twists(twists: dict[int, Twist]) -> str:
    lines = [f"twist {label} = {_twist_value_str(twists[label])}"
             for label in sorted(twists)]
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# cobordism words


def _parse_word(text: str, source: str) -> CobordismWord:
    layers = []
    for lineno, tokens in _lines(text, source):
        for t in tokens:
            if t not in GENERATORS:
                raise ParseError(f"unknown generator {t!r}", source, lineno)
        layers.append(tuple(tokens))
    return CobordismWord(tuple(layers))


def _serialize_word(word: CobordismWord) -> str:
    return "".join(" ".join(layer) + "\n" for layer in word.layers)


# ---------------------------------------------------------------------------
# separability idempotents


def _parse_idempotent(text: str, source: str) -> Matrix:
    """Read each entry as a pair (p, q), and build the matrix from integer
    rows over the lcm of the q, without a `Fraction` per entry."""
    entries = list(_lines(text, source))
    dim = _header(entries, "dim", source)
    ratios: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, tokens in entries:
        if tokens[0] == "dim":
            continue
        if tokens[0] != "e":
            raise ParseError(f"unknown directive {tokens[0]!r}",
                             source, lineno)
        _arity(tokens, 4, source, lineno)
        i = _index(tokens[1], dim, source, lineno)
        j = _index(tokens[2], dim, source, lineno)
        if (i, j) in ratios:
            raise SemanticError(f"duplicate entry for ({i},{j})",
                                source, lineno)
        ratios[i, j] = _ratio(tokens[3], source, lineno)
    den = lcm(*(q for _, q in ratios.values()))
    rows = [[0] * dim for _ in range(dim)]
    for (i, j), (p, q) in ratios.items():
        rows[i][j] = p * (den // q)
    return Matrix.from_integers(rows, den)


def _serialize_idempotent(e: Matrix) -> str:
    lines = [f"dim {e.rows}"]
    for i in range(e.rows):
        for j in range(e.cols):
            if e[i, j]:
                lines.append(f"e {i} {j} {e[i, j]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dispatch


_PARSERS = {
    "fusion": _parse_fusion,
    "algebra": _parse_algebra,
    "category": _parse_category,
    "surface-list": _parse_surfaces,
    "twist": _parse_twists,
    "word": _parse_word,
    "idempotent": _parse_idempotent,
}

_SERIALIZERS = {
    "fusion": _serialize_fusion,
    "algebra": _serialize_algebra,
    "category": _serialize_category,
    "surface-list": _serialize_surfaces,
    "twist": _serialize_twists,
    "word": _serialize_word,
    "idempotent": _serialize_idempotent,
}


def parse(kind: str, text: str, source: str = "<input>") -> Document:
    """Parse text of the given kind; errors carry source and line."""
    if kind not in _PARSERS:
        raise ValueError(f"unknown document kind {kind!r}")
    return Document(kind=kind, payload=_PARSERS[kind](text, source),
                    source=source)


def serialize(kind: str, payload) -> str:
    """Canonical text for a payload of the given kind."""
    if kind not in _SERIALIZERS:
        raise ValueError(f"unknown document kind {kind!r}")
    return _SERIALIZERS[kind](payload)
