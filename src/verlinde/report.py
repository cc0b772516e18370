"""Check reports, frozen records and the bounded text of error messages.

A `Report` is a named list of failed equations, empty iff everything
held.  `Record` is the base of the package's frozen value types (fusion
rings, coloured surfaces, algebras, cobordism words, parsed documents):
each subclass writes its own `__init__`, whose parameters are its
fields, and the base makes the instance immutable and compares, hashes
and shows it by those fields, with no code generated at import.
`_quoted` and `_shown` give the text with which an error names a token
or an integer, bounded by MAX_HEADER_DIGITS characters.  Also the error
with which a search too large to run refuses, before it starts.
"""

from __future__ import annotations

__all__ = ["Report", "Record", "FrozenInstanceError", "SearchTooLargeError",
           "MAX_HEADER_DIGITS"]

# the longest token, and the most digits of an integer, an error prints;
# past them it names their count.  `formats` also reads at most this many
# significant digits of a size header
MAX_HEADER_DIGITS = 100


def _quoted(token: str, show=repr) -> str:
    """The token as an error names it: show(token), its repr unless
    another show is given, or past MAX_HEADER_DIGITS characters its
    length."""
    if len(token) > MAX_HEADER_DIGITS:
        return f"a token of {len(token)} characters"
    return show(token)


def _shown(value: int) -> str:
    """The integer as an error prints it: its digits, or past
    MAX_HEADER_DIGITS digits their count."""
    digits = str(abs(value))
    if len(digits) <= MAX_HEADER_DIGITS:
        return str(value)
    return f"{'-' if value < 0 else ''}<{len(digits)} digits>"


class SearchTooLargeError(ValueError):
    """A search would pass its named limit (MAX_KAROUBI_CANDIDATES or
    MAX_COMPLETION_OBJECTS in `categories`, MAX_ENUMERATION_CANDIDATES in
    `fusion`); raised, naming the estimate, before the search starts."""


class FrozenInstanceError(AttributeError):
    """An attribute of a `Record` was assigned or deleted."""


# how a `Record`'s `__init__` stores a field past `Record.__setattr__`:
# `object.__setattr__`, so the instance dict stays the one attribute reads
# are fast on, bound to one global, which is one lookup where
# `object.__setattr__` takes two
_set_field = object.__setattr__


class Record:
    """A frozen value, equal, hashed and shown by its fields.

    The fields are the parameters of the subclass's own `__init__`, in
    order, read once when the class is made; the `__init__` checks its
    arguments and stores each field with `_set_field`.  An attribute set
    there that is not a parameter (`FusionRing.handle`) takes no part in
    equality, hashing or the repr, and neither does a `cached_property`,
    which writes the instance `__dict__` directly.
    Assigning or deleting any attribute raises `FrozenInstanceError`.
    Equality holds only between instances of one class, so an `Algebra`
    never equals a `FrobeniusAlgebra`, and the repr is
    ``Name(field=value, ...)`` over the fields.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class Report:
    """Accumulates failure messages from an axiom or consistency check.

    A report with no entries means the check passed.  Reports render to
    deterministic plain text, one failure per line.  `checked` counts the
    equations a check evaluated, where the check records it; it is not
    rendered.
    """

    def __init__(self, title: str):
        self.title = title
        self.entries: list[str] = []
        self.checked = 0

    @property
    def ok(self) -> bool:
        return not self.entries

    def fail(self, message: str) -> None:
        self.entries.append(message)

    def merge(self, other: "Report", prefix: str = "") -> None:
        self.checked += other.checked
        for entry in other.entries:
            self.entries.append(prefix + entry)

    def render(self) -> str:
        if self.ok:
            return f"{self.title}: ok"
        lines = [f"{self.title}: {len(self.entries)} violation(s)"]
        lines.extend("  " + e for e in self.entries)
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.entries)} violations"
        return f"Report({self.title!r}, {state})"
