"""Line-oriented text formats for every object the package computes with.

One format per kind of document: fusion rings, Frobenius algebras,
presented categories, surface lists, twist assignments, cobordism
words, and separability idempotents.  All formats are UTF-8, use `#`
comments, and are diffable; serializers emit a canonical form so that
serialize(parse(file)) is byte-identical on canonical files.

Each document is read in one pass over its lines (`_lines`: a comment
is cut only where a `#` occurs, and each line is split once) straight
to the integer forms its payload stores.  The directives that make up a
table (`N`, `mult`, `e`) read their indices with int() and one range
test; only a line that fails them is read again by `_arity`, `_int` and
a range test in turn, which raise its first fault.  Each distinct value
token is read once per document as a pair (p, q); fusion
multiplicities, `mult` and idempotents become integer planes or rows
over the lcm of the q, and a category's coefficients its integer table
over the lcm of the table's q and the identities over theirs, without a
`Fraction` per entry.  Every error carries the source and the line it
is on: a duplicate entry is reported on its second line whatever the
first value, a structural category error once the whole text is read,
on the line of its `compose` or `identity` directive (line 0 for a
missing identity or size header), and a term with no basis name (`1*`)
as a syntax error on its line.  A size header past MAX_DENSE_CELLS
cells is refused on its line, after all else; one of more than
MAX_HEADER_DIGITS significant digits is not read but counted, and its
refusal names the count.  Any other token longer than MAX_TOKEN_CHARS,
Python's default digit limit, is refused before a line is read, so no
token past it reaches int() whatever limit the caller set; and no
error quotes more than MAX_HEADER_DIGITS characters of a token or
digits of a value, but names their count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .categories import CategoryFormatError, PresentedCategory
from .exact import Matrix
from .fusion import FusionRing
from .surfaces import ColouredSurface, Twist, TwistFormatError
from .tqft import GENERATORS, CobordismWord, FrobeniusAlgebra

__all__ = [
    "KINDS",
    "MAX_DENSE_CELLS",
    "MAX_HEADER_DIGITS",
    "MAX_TOKEN_CHARS",
    "Document",
    "ParseError",
    "SemanticError",
    "parse",
    "serialize",
    "kind_for_path",
]

# the most cells a size header may ask a reader for: rank**3 of a ring,
# dim**3 of an algebra and dim**2 of an idempotent
MAX_DENSE_CELLS = 2 ** 22
# the longest size header token read with int(), and the most significant
# digits of one that is read at all; past them a header is counted.  No
# error quotes more of a token or prints more digits of a value than this
MAX_HEADER_DIGITS = 100
# the longest token any other line may hold: Python's default int -> str
# digit limit (sys.int_info.default_max_str_digits), so that no token past
# it reaches int() whatever limit the caller has set
MAX_TOKEN_CHARS = 4300
_ASCII_INTEGER = re.compile(r"[+-]?[0-9]+(?:_[0-9]+)*")

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


def _lines(text: str, source: str = "<input>"):
    """Iterate over (line number, tokens) for every line that holds a
    token once its comment, from a `#` on, is cut off.  A document with
    a line longer than MAX_TOKEN_CHARS is first searched for a token that
    long, the value of a `rank` or `dim` size header aside (`_header`
    counts its digits): the first is refused on its line, by its length."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    if len(text) > MAX_TOKEN_CHARS and max(map(len, lines)) > MAX_TOKEN_CHARS:
        for lineno, tokens in enumerate(map(str.split, lines), start=1):
            for at, token in enumerate(tokens):
                if len(token) > MAX_TOKEN_CHARS and not (
                        at == 1 and tokens[0] in ("rank", "dim")):
                    raise ParseError(
                        f"{_quoted(token)} is longer than MAX_TOKEN_CHARS = "
                        f"{MAX_TOKEN_CHARS}", source, lineno)
    return filter(itemgetter(1), enumerate(map(str.split, lines), start=1))


def _quoted(token: str) -> str:
    """The token as an error quotes it: its repr, or past
    MAX_HEADER_DIGITS characters its length."""
    if len(token) > MAX_HEADER_DIGITS:
        return f"a token of {len(token)} characters"
    return repr(token)


def _shown(value: int) -> str:
    """The integer as an error prints it: its digits, or past
    MAX_HEADER_DIGITS digits their count, as `_counted` shows a header."""
    digits = str(abs(value))
    if len(digits) <= MAX_HEADER_DIGITS:
        return str(value)
    return f"{'-' if value < 0 else ''}<{len(digits)} digits>"


def _int(token: str, source: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {_quoted(token)}",
                         source, line)


# ASCII p or p/q: read with int() directly; every other token goes to
# Fraction(token), which decides what it accepts
_PLAIN_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _ratio(token: str, source: str, line: int) -> tuple[int, int]:
    """(p, q), q > 0, with p / q the rational `token`; not reduced."""
    try:
        plain = _PLAIN_RATIONAL.fullmatch(token)
        if plain is None:
            return Fraction(token).as_integer_ratio()
        p, q = int(plain[1]), int(plain[2] or 1)
        if q:
            return p, q
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"expected a rational p/q, got {_quoted(token)}",
                     source, line)


def _fraction(token: str, source: str, line: int) -> Fraction:
    return Fraction(*_ratio(token, source, line))


def _scaled(ratios):
    """(den, numerator): den the lcm of the q of the nonzero values in
    `ratios`, and numerator(token) the value of `token` times den."""
    den = lcm(*{q for p, q in ratios.values() if p})
    return den, {t: p * (den // q) for t, (p, q) in ratios.items()}.get


def _dense(cells, header, power, read, source):
    """Nested lists of `power` indices below the value of the size header
    `header` = (value, line, shown) of `_header`: zeros but read(x) at
    flat index `at` for each entry (at, x) of `cells`.  Made after every
    other check of the document; past MAX_DENSE_CELLS cells, an error on
    the header's line."""
    value, line, shown = header
    if value > MAX_DENSE_CELLS or value ** power > MAX_DENSE_CELLS:
        raise SemanticError(
            f"size {shown or value}: size^{power} cells are more than "
            f"MAX_DENSE_CELLS = {MAX_DENSE_CELLS}", source, line)
    table = [0] * value ** power
    for at, x in cells.items():
        table[at] = read(x)
    for _ in range(power - 1):
        table = [table[at:at + value] for at in range(0, len(table), value)]
    return table


def _arity(tokens, n: int, source: str, line: int) -> None:
    if len(tokens) != n:
        raise ParseError(
            f"directive {_quoted(tokens[0])} takes {n - 1} argument(s), "
            f"got {len(tokens) - 1}", source, line)


def _indices(tokens, n, bound, source, line, values=1) -> list:
    """The indices in 0..bound-1 of a directive of n tokens: those after
    its head and before its last `values` tokens.  `_arity`, and then
    `_int` and a range test on each index in turn, raise the first fault
    of the line, so that a hot directive, which tries int() and one range
    test itself, calls this only on a line they rejected."""
    _arity(tokens, n, source, line)
    indices = []
    for token in tokens[1:n - values]:
        indices.append(_int(token, source, line))
        if not 0 <= indices[-1] < bound:
            raise SemanticError(f"index {_shown(indices[-1])} out of range "
                                f"0..{bound - 1}", source, line)
    return indices


def _header(entries, name: str, source: str) -> tuple[int, int, str | None]:
    """(value, line, shown) of the one `name` directive (`rank` or `dim`)
    among the (line, tokens) `entries`: an integer >= 1, checked as it is
    read, and the text an error names it by, None for its value.  A
    duplicate, a wrong arity, a non-integer or a value below 1 raises on
    its line, and a missing directive on line 0."""
    value = None
    for lineno, tokens in entries:
        if tokens[0] == name:
            if value is not None:
                raise SemanticError(f"duplicate {name} directive",
                                    source, lineno)
            _arity(tokens, 2, source, lineno)
            token, line, shown = tokens[1], lineno, None
            if len(token) > MAX_HEADER_DIGITS:
                value, shown = _counted(token, source, lineno)
            else:
                value = _int(token, source, lineno)
            if value < 1:
                raise SemanticError(f"{name} {shown or value} must be >= 1",
                                    source, lineno)
    if value is None:
        raise SemanticError(f"missing {name}", source, 0)
    return value, line, shown


def _counted(token: str, source: str, line: int) -> tuple[int, str | None]:
    """(value, shown) of a size header token longer than
    MAX_HEADER_DIGITS characters, which must be ASCII digits with an
    optional sign (and single underscores between digits, as int() takes
    them).  Past MAX_HEADER_DIGITS significant digits it is not read,
    since int() of n digits costs time quadratic in n: it stands as
    +-16**n, above every index of n digits, shown as its digit count."""
    if not _ASCII_INTEGER.fullmatch(token):
        raise ParseError(f"expected an integer, got {_quoted(token)}",
                         source, line)
    sign = "-" if token[0] == "-" else ""
    digits = token.lstrip("+-").replace("_", "").lstrip("0")
    n = len(digits)
    if n <= MAX_HEADER_DIGITS:
        return int(sign + (digits or "0")), None
    return (-1 if sign else 1) << 4 * n, f"{sign}<{n} digits>"


# ---------------------------------------------------------------------------
# fusion rings


def _parse_fusion(text: str, source: str) -> FusionRing:
    entries = list(_lines(text, source))
    rank, *_ = header = _header(entries, "rank", source)

    names, dual, unit = {}, {}, None
    # N[a][b][c] at (a * rank + b) * rank + c, for each entry a line sets
    cells = {}
    for lineno, tokens in entries:
        head = tokens[0]
        if head == "N":
            try:
                _, a, b, c, m = tokens
                a, b, c, m = int(a), int(b), int(c), int(m)
            except ValueError:
                a = -1
            if not (0 <= a < rank and 0 <= b < rank and 0 <= c < rank):
                a, b, c = _indices(tokens, 5, rank, source, lineno)
                m = _int(tokens[4], source, lineno)
            if m < 0:
                raise SemanticError(f"negative coefficient {_shown(m)}",
                                    source, lineno)
            at = (a * rank + b) * rank + c
            if at in cells:
                raise SemanticError(f"duplicate N entry for ({a},{b},{c})",
                                    source, lineno)
            cells[at] = m
        elif head == "label":
            i, = _indices(tokens, 3, rank, source, lineno)
            if i in names:
                raise SemanticError(f"duplicate label entry for {i}",
                                    source, lineno)
            names[i] = tokens[2]
        elif head == "dual":
            i, j = _indices(tokens, 3, rank, source, lineno, 0)
            if i in dual or j in dual:
                raise SemanticError(
                    f"duplicate dual entry for {i if i in dual else j}",
                    source, lineno)
            dual[i], dual[j] = j, i
        elif head == "unit":
            if unit is not None:
                raise SemanticError("duplicate unit directive", source, lineno)
            if len(tokens) < 2:
                raise ParseError("unit needs at least one label",
                                 source, lineno)
            parts = _indices(tokens, len(tokens), rank, source, lineno, 0)
            if len(set(parts)) != len(parts):
                raise SemanticError("repeated unit component", source, lineno)
            unit = tuple(sorted(parts))
        elif head != "rank":
            raise ParseError(f"unknown directive {_quoted(head)}", source,
                             lineno)

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
        table=_dense(cells, header, 3, int, source),
        names=full_names)


def _serialize_fusion(ring: FusionRing) -> str:
    lines = [f"rank {ring.rank}"]
    lines += [f"label {i} {name}" for i, name in enumerate(ring.names)]
    lines += [f"dual {i} {j}" for i, j in enumerate(ring.dual) if i <= j]
    lines.append("unit " + " ".join(str(b) for b in ring.unit))
    lines += [f"N {a} {b} {c} {v}" for a, plane in enumerate(ring.table)
              for b, fibre in enumerate(plane)
              for c, v in enumerate(fibre) if v]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Frobenius algebras


def _parse_algebra(text: str, source: str) -> FrobeniusAlgebra:
    """Read each distinct value token once, as a pair (p, q) of integers;
    `mult` is built from integer planes over the lcm of the q."""
    entries = list(_lines(text, source))
    dim, *_ = header = _header(entries, "dim", source)

    names, ratios = {}, {}
    # the value token of mult[i][j][k] at (i * dim + j) * dim + k, and of
    # unit[i] and counit[i] at i, for each entry a line sets
    cells, vectors = {}, {"unit": {}, "counit": {}}
    for lineno, tokens in entries:
        head = tokens[0]
        if head == "mult":
            try:
                _, i, j, k, value = tokens
                i, j, k = int(i), int(j), int(k)
            except ValueError:
                i = -1
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                i, j, k = _indices(tokens, 5, dim, source, lineno)
            if value not in ratios:
                ratios[value] = _ratio(value, source, lineno)
            at = (i * dim + j) * dim + k
            if at in cells:
                raise SemanticError(f"duplicate mult entry for ({i},{j},{k})",
                                    source, lineno)
            cells[at] = value
        elif head in vectors:
            i, = _indices(tokens, 3, dim, source, lineno)
            value = tokens[2]
            if value not in ratios:
                ratios[value] = _ratio(value, source, lineno)
            if i in vectors[head]:
                raise SemanticError(f"duplicate {head} entry for {i}",
                                    source, lineno)
            vectors[head][i] = value
        elif head == "basis":
            i, = _indices(tokens, 3, dim, source, lineno)
            if i in names:
                raise SemanticError(f"duplicate basis entry for {i}",
                                    source, lineno)
            names[i] = tokens[2]
        elif head != "dim":
            raise ParseError(f"unknown directive {_quoted(head)}", source,
                             lineno)

    den, read = _scaled(ratios)
    # made before the names walk range(dim), so that a huge dim is refused
    planes = _dense(cells, header, 3, read, source)
    # names, mult, and the unit and counit as vectors of Fractions
    return FrobeniusAlgebra(
        tuple(names.get(i, f"e{i}") for i in range(dim)), (planes, den),
        *(tuple(Fraction(x, den) for x in _dense(v, header, 1, read, source))
          for v in vectors.values()))


def _serialize_algebra(algebra: FrobeniusAlgebra) -> str:
    planes, den = algebra.mult
    lines = [f"dim {algebra.dim}"]
    lines += [f"basis {i} {name}" for i, name in enumerate(algebra.names)]
    lines += [f"mult {i} {j} {k} {Fraction(v, den)}"
              for i, plane in enumerate(planes)
              for j, fibre in enumerate(plane)
              for k, v in enumerate(fibre) if v]
    lines += [f"{head} {i} {v}" for head in ("unit", "counit")
              for i, v in enumerate(getattr(algebra, head)) if v]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presented categories


def _terms(tokens, source, lineno, ratios) -> dict:
    """Parse `0` or `c1*b1 + c2*b2 + ...` given as a token list, as
    {b: c} with c the coefficient token, whose (p, q) is kept in
    `ratios` once read."""
    if tokens == ["0"]:
        return {}
    combo = {}
    expect_term = True
    for token in tokens:
        if token == "+":
            if expect_term:
                raise ParseError("misplaced '+' in combination",
                                 source, lineno)
            expect_term = True
            continue
        if not expect_term:
            raise ParseError(f"expected '+' before {_quoted(token)}",
                             source, lineno)
        coeff, _, name = token.partition("*")
        if not name:
            raise ParseError(
                f"expected coeff*name term, got {_quoted(token)}", source,
                lineno)
        if coeff not in ratios:
            ratios[coeff] = _ratio(coeff, source, lineno)
        if name in combo:
            raise SemanticError(
                f"repeated term {_quoted(name)} in combination", source,
                lineno)
        combo[name] = coeff
        expect_term = False
    if expect_term:
        raise ParseError("combination ends with '+'", source, lineno)
    return combo


def _parse_category(text: str, source: str) -> PresentedCategory:
    """Read each distinct coefficient token once, as a pair (p, q) of
    integers, and hand `PresentedCategory` its numerator over the lcm of
    the q: the compose table's over the lcm of its own q, and the
    identities' over the lcm of theirs.  A structural error is raised
    once the text is read, on the line of the `compose` or `identity`
    directive at fault."""
    objects, hom, basis = [], {}, set()
    compose, identities, ratios, units = {}, {}, {}, {}
    for lineno, tokens in _lines(text, source):
        head = tokens[0]
        if head == "compose":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError(
                    "expected: compose <g> <f> = <combination>",
                    source, lineno)
            key = g, f = tokens[1], tokens[2]
            if g not in basis or f not in basis:
                raise SemanticError("unknown basis element "
                                    f"{_quoted(f if g in basis else g)}",
                                    source, lineno)
            if key in compose:
                raise SemanticError(f"duplicate compose entry ({g},{f})",
                                    source, lineno)
            # one term c*h whose coefficient token c was read before
            coeff, _, name = tokens[4].partition("*")
            if len(tokens) == 5 and name and coeff in ratios:
                compose[key] = {name: coeff}
            else:
                compose[key] = _terms(tokens[4:], source, lineno, ratios)
        elif head == "hom":
            _arity(tokens, 4, source, lineno)
            _, p, q, b = tokens
            if p not in objects or q not in objects:
                raise SemanticError("unknown object "
                                    f"{_quoted(q if p in objects else p)}",
                                    source, lineno)
            if b in basis:
                raise SemanticError(f"duplicate basis name {_quoted(b)}",
                                    source, lineno)
            basis.add(b)
            hom.setdefault((p, q), []).append(b)
        elif head == "object":
            _arity(tokens, 2, source, lineno)
            if tokens[1] in objects:
                raise SemanticError(f"duplicate object {_quoted(tokens[1])}",
                                    source, lineno)
            objects.append(tokens[1])
        elif head == "identity":
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError("expected: identity <p> = <combination>",
                                 source, lineno)
            p = tokens[1]
            if p not in objects:
                raise SemanticError(f"unknown object {_quoted(p)}",
                                    source, lineno)
            if p in identities:
                raise SemanticError(f"duplicate identity for {_quoted(p)}",
                                    source, lineno)
            identities[p] = _terms(tokens[3:], source, lineno, units)
        else:
            raise ParseError(f"unknown directive {_quoted(head)}", source,
                             lineno)
    if not objects:
        raise SemanticError("missing object directives", source, 0)
    try:
        return PresentedCategory._from_names(
            objects, hom, compose, identities, _scaled(ratios),
            _scaled(units))
    except CategoryFormatError as err:
        where = err.directive
        raise SemanticError(str(err), source, next(
            (lineno for lineno, tokens in _lines(text)
             if where and tokens[:len(where)] == where), 0)) from err


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
            raise ParseError(f"unknown directive {_quoted(tokens[0])}",
                             source, lineno)
        if len(tokens) < 5 or not tokens[1].endswith(":"):
            raise ParseError(
                "expected: surface <name>: genus <g> boundary [labels]",
                source, lineno)
        name = tokens[1][:-1]
        if not name:
            raise ParseError("empty surface name", source, lineno)
        if name in surfaces:
            raise SemanticError(f"duplicate surface {_quoted(name)}",
                                source, lineno)
        if tokens[2] != "genus" or tokens[4] != "boundary":
            raise ParseError(
                "expected: surface <name>: genus <g> boundary [labels]",
                source, lineno)
        genus = _int(tokens[3], source, lineno)
        if genus < 0:
            raise SemanticError(f"negative genus {_shown(genus)}",
                                source, lineno)
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
                    f"zeta takes (order,exponent), got {_quoted(token)}")
            return Twist.root_of_unity(int(parts[0]), int(parts[1]))
        return Twist.from_rational(_fraction(token, source, lineno))
    except (TwistFormatError, ValueError) as err:
        raise SemanticError(str(err), source, lineno) from err


def _parse_twists(text: str, source: str) -> dict[int, Twist]:
    twists: dict[int, Twist] = {}
    for lineno, tokens in _lines(text, source):
        if tokens[0] != "twist":
            raise ParseError(f"unknown directive {_quoted(tokens[0])}",
                             source, lineno)
        if len(tokens) != 4 or tokens[2] != "=":
            raise ParseError("expected: twist <label> = <value>",
                             source, lineno)
        label = _int(tokens[1], source, lineno)
        if label < 0:
            raise SemanticError(f"negative label {_shown(label)}",
                                source, lineno)
        if label in twists:
            raise SemanticError(f"duplicate twist for label {_shown(label)}",
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
                raise ParseError(f"unknown generator {_quoted(t)}",
                                 source, lineno)
        layers.append(tuple(tokens))
    return CobordismWord(tuple(layers))


def _serialize_word(word: CobordismWord) -> str:
    return "".join(" ".join(layer) + "\n" for layer in word.layers)


# ---------------------------------------------------------------------------
# separability idempotents


def _parse_idempotent(text: str, source: str) -> Matrix:
    """Read each distinct value token once, as a pair (p, q), and build
    the matrix from integer rows over the lcm of the q."""
    entries = list(_lines(text, source))
    dim, *_ = header = _header(entries, "dim", source)
    ratios = {}
    # the value token of e[i][j] at i * dim + j, for each entry a line sets
    cells = {}
    for lineno, tokens in entries:
        head = tokens[0]
        if head == "e":
            try:
                _, i, j, value = tokens
                i, j = int(i), int(j)
            except ValueError:
                i = -1
            if not (0 <= i < dim and 0 <= j < dim):
                i, j = _indices(tokens, 4, dim, source, lineno)
            at = i * dim + j
            if at in cells:
                raise SemanticError(f"duplicate entry for ({i},{j})",
                                    source, lineno)
            if value not in ratios:
                ratios[value] = _ratio(value, source, lineno)
            cells[at] = value
        elif head != "dim":
            raise ParseError(f"unknown directive {_quoted(head)}", source,
                             lineno)
    den, read = _scaled(ratios)
    return Matrix.from_integers(_dense(cells, header, 2, read, source), den)


def _serialize_idempotent(e: Matrix) -> str:
    lines = [f"dim {e.rows}"]
    lines += [f"e {i} {j} {x}" for i, row in enumerate(e.entries)
              for j, x in enumerate(row) if x]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dispatch


# the reader and the writer of each kind
_FORMATS = {
    "fusion": (_parse_fusion, _serialize_fusion),
    "algebra": (_parse_algebra, _serialize_algebra),
    "category": (_parse_category, _serialize_category),
    "surface-list": (_parse_surfaces, _serialize_surfaces),
    "twist": (_parse_twists, _serialize_twists),
    "word": (_parse_word, _serialize_word),
    "idempotent": (_parse_idempotent, _serialize_idempotent),
}
KINDS = tuple(_FORMATS)


def parse(kind: str, text: str, source: str = "<input>") -> Document:
    """Parse text of the given kind; errors carry source and line."""
    if kind not in _FORMATS:
        raise ValueError(f"unknown document kind {kind!r}")
    return Document(kind=kind, payload=_FORMATS[kind][0](text, source),
                    source=source)


def serialize(kind: str, payload) -> str:
    """Canonical text for a payload of the given kind."""
    if kind not in _FORMATS:
        raise ValueError(f"unknown document kind {kind!r}")
    return _FORMATS[kind][1](payload)
