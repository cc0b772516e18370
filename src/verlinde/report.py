"""Check reports: named lists of failed equations, empty iff everything held.

Also the error with which a search too large to run refuses, before it
starts.
"""

from __future__ import annotations

__all__ = ["Report", "SearchTooLargeError"]


class SearchTooLargeError(ValueError):
    """A search would pass its named limit (MAX_KAROUBI_CANDIDATES or
    MAX_COMPLETION_OBJECTS in `categories`, MAX_ENUMERATION_CANDIDATES in
    `fusion`); raised, naming the estimate, before the search starts."""


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
