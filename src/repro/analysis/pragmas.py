"""Inline suppression pragmas: ``# repro: allow[rule-id] -- why``.

A pragma acknowledges a finding at a specific site as deliberate. The
justification after ``--`` is **mandatory**: a bare ``allow[...]`` does
not parse as a pragma and therefore suppresses nothing, so every
suppression in the tree carries its reason next to it. A pragma at the
end of a code line covers that line; a pragma on a line of its own
covers the next line that holds code. Pragmas that no longer match a
live finding are themselves flagged (``stale-pragma``), so suppressions
cannot rot as the code underneath them changes.

Extraction runs on the token stream, not raw text, so pragma-shaped
text inside string literals (docs, checker hint messages) is inert.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.analysis.findings import RuleSpec

__all__ = ["Pragma", "parse_pragmas", "PRAGMA_RE", "STALE_PRAGMA_RULE"]

# Emitted by the engine's suppression pass, not by a checker: only it
# knows which pragmas earned their keep. It cannot be pragma'd away —
# remove the dead pragma instead.
STALE_PRAGMA_RULE = RuleSpec(
    "stale-pragma", "allow-pragma that no longer suppresses any finding"
)

# Justification after ' -- ' is required for the pragma to be valid.
PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[a-z0-9_\-]+(?:\s*,\s*[a-z0-9_\-]+)*)\]"
    r"\s*--\s*(?P<why>\S.*)$"
)

_NON_CODE_TOKENS = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


@dataclass
class Pragma:
    """One parsed ``allow`` pragma.

    ``line`` is where the pragma itself sits (for stale reports);
    ``target_line`` is the code line whose findings it suppresses.
    """

    line: int
    target_line: int
    rules: frozenset[str]
    justification: str
    used: set[str] = field(default_factory=set)

    def covers(self, rule: str, line: int) -> bool:
        return line == self.target_line and rule in self.rules


def parse_pragmas(source: str) -> list[Pragma]:
    """Extract every valid ``allow`` pragma with its target line.

    Line numbers are 1-based, matching AST ``lineno``. A pragma on a
    comment-only line targets the next line that carries code (pragma
    stacks each cover that same line); a trailing own-line pragma with
    no code after it targets itself, so the stale checker reports it.
    """
    comments: list[tuple[int, str]] = []
    code_lines: set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []  # unparseable files are reported as parse errors
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            comments.append((tok.start[0], tok.string))
        elif tok.type not in _NON_CODE_TOKENS:
            for line in range(tok.start[0], tok.end[0] + 1):
                code_lines.add(line)
    sorted_code = sorted(code_lines)
    pragmas: list[Pragma] = []
    for line, text in comments:
        match = PRAGMA_RE.search(text)
        if not match:
            continue
        rules = frozenset(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        why = match.group("why").strip()
        if line in code_lines:
            target = line
        else:
            target = next((ln for ln in sorted_code if ln > line), line)
        pragmas.append(Pragma(line, target, rules, why))
    return pragmas
