"""Every library module stays below 8,192 tokens.

CPython 3.11 doubles the token array it allocates to compile a module
once a module passes 8,192 tokens, which raises the peak memory of
every process that compiles it (the benchmark's set-up compiles the
library seven times).  On 3.11 the `tokenize` count is an upper bound on
the parser's; 3.12 splits f-strings into more tokens, so the count is
taken on 3.11 only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

import pytest

import verlinde

TOKEN_LIMIT = 8192


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason=f"token counts are taken on Python 3.11, not "
           f"{sys.version_info.major}.{sys.version_info.minor}")
def test_every_module_is_below_the_token_limit():
    counts = {}
    for path in sorted(Path(verlinde.__file__).parent.glob("*.py")):
        with path.open("rb") as fh:
            counts[path.name] = sum(1 for _ in tokenize.tokenize(fh.readline))
    over = {name: n for name, n in counts.items() if n >= TOKEN_LIMIT}
    assert not over, f"modules at or past {TOKEN_LIMIT} tokens: {over}"
    assert counts
