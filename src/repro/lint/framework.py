"""Core machinery of mutiny-lint: diagnostics, suppressions, file loading.

The repo's contracts — all storage I/O going through the
:class:`~repro.core.transport.ShardTransport` contract, lock discipline in the threaded service classes, no swallowed
exceptions in daemon-thread bodies — were enforced only by review and
docstring.  The Mutiny paper's core observation is that exactly such
implicit cross-layer contracts are where orchestrators break; this package
makes ours explicit and machine-checked.

Everything here is stdlib-only (:mod:`ast`, :mod:`tokenize`): the linter
must be runnable in every environment the repo itself runs in, including
the dependency-free CI packaging check.

Design notes
------------

* A parsed :class:`LintFile` goes to :mod:`repro.lint.symbols`, whose one
  walk distills it into a summary; every code's checker consumes the
  summaries and never sees an AST.  Checkers return :class:`Diagnostic`
  items.
* **Suppressions** are inline comments of the form::

      # mutiny-lint: disable=MUT002 -- control-plane HTTP, not shard storage
      # mutiny-lint: disable=MUT004,MUT005 -- <justification>

  The justification after ``--`` is mandatory: a suppression records a
  *decision*, and a decision without a reason is exactly the silent
  convention this linter exists to kill.  A justification-less or
  unknown-code suppression is itself reported, as ``MUT000``.  A
  suppression on its own line covers the next code line; a trailing
  comment covers its own line.
* Paths are scoped by their parts relative to the ``repro`` package (e.g.
  ``("core", "distributed.py")``), so fixtures in tests can mirror the
  package layout under any temporary directory.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional

#: Code reserved for lint hygiene itself: malformed/unjustified suppressions,
#: unknown codes in a disable comment, and files the parser cannot read.
HYGIENE_CODE = "MUT000"

#: ``disable=`` comment grammar.  Matched anywhere inside a comment token so
#: the marker can ride along other markers (e.g. after a ``noqa``).
_DISABLE_RE = re.compile(
    r"mutiny-lint:\s*disable=(?P<codes>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*?))?\s*$"
)

#: Token types that hold no code (an own-line suppression skips them).
_NON_CODE_TOKENS = frozenset(
    {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
     tokenize.DEDENT, tokenize.ENDMARKER}
)


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One coded finding, anchored to ``path:line:column``."""

    path: str
    line: int
    column: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "file": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``disable=`` comment."""

    codes: tuple[str, ...]
    justification: str
    #: Lines this suppression covers (its own, plus the next code line when
    #: the comment stands alone).
    covered_lines: tuple[int, ...]


@dataclass
class LintFile:
    """One parsed source file, handed to the summary walk."""

    path: str  # display path (as discovered)
    relparts: tuple[str, ...]  # parts relative to the repro package root
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)


def is_suppressed(
    suppressions: Iterable[Suppression], line: int, codes: Collection[str]
) -> bool:
    """Whether a justified suppression naming one of ``codes`` covers
    ``line``: the runner asks it of every finding, and the graph checkers
    of a terminal primitive's site (whose decision covers every chain
    reaching it)."""
    return any(
        suppression.justification  # unjustified ones never silence anything
        and line in suppression.covered_lines
        and any(code in suppression.codes for code in codes)
        for suppression in suppressions
    )


# --------------------------------------------------------------------------
# Suppression parsing
# --------------------------------------------------------------------------


def parse_suppressions(
    path: str, source: str, known_codes: Iterable[str]
) -> tuple[list[Suppression], list[Diagnostic]]:
    """Extract ``disable=`` comments; malformed ones become MUT000 findings."""
    known = set(known_codes)
    suppressions: list[Suppression] = []
    hygiene: list[Diagnostic] = []
    source_lines = source.splitlines()

    def hygiene_finding(line: int, column: int, message: str) -> None:
        hygiene.append(
            Diagnostic(path=path, line=line, column=column, code=HYGIENE_CODE, message=message)
        )

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return [], []
    # Lines that hold actual code: what an own-line suppression covers.
    code_lines = sorted(
        {
            line
            for token in tokens
            if token.type not in _NON_CODE_TOKENS
            for line in range(token.start[0], token.end[0] + 1)
        }
    )
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DISABLE_RE.search(token.string)
        if match is None:
            # Prose may mention the tool; only a directive-looking comment
            # (the marker followed by a colon) that fails to parse is a
            # hygiene problem.
            if re.search(r"mutiny-lint\s*:", token.string):
                hygiene_finding(
                    token.start[0],
                    token.start[1] + 1,
                    "malformed mutiny-lint comment (expected "
                    "'# mutiny-lint: disable=MUTnnn -- justification')",
                )
            continue
        line = token.start[0]
        codes = tuple(
            code.strip() for code in match.group("codes").split(",") if code.strip()
        )
        justification = (match.group("why") or "").strip()
        unknown = [code for code in codes if code not in known or code == HYGIENE_CODE]
        if unknown:
            hygiene_finding(
                line,
                token.start[1] + 1,
                f"suppression names unknown or unsuppressable code(s) "
                f"{', '.join(unknown)}",
            )
        if not justification:
            hygiene_finding(
                line,
                token.start[1] + 1,
                f"suppression of {', '.join(codes) or '<no code>'} carries no "
                "justification; write '# mutiny-lint: disable=MUTnnn -- why'",
            )
        covered = [line]
        if not source_lines[line - 1][: token.start[1]].strip():
            # An own-line comment also covers the next code line.
            following = next((code for code in code_lines if code > line), None)
            if following is not None:
                covered.append(following)
        suppressions.append(Suppression(codes, justification, tuple(covered)))
    return suppressions, hygiene


# --------------------------------------------------------------------------
# File loading
# --------------------------------------------------------------------------


def load_lint_file(
    path: str, relparts: tuple[str, ...], known_codes: Iterable[str]
) -> tuple[Optional[LintFile], list[Diagnostic]]:
    """Read + parse one file; a syntax error becomes a MUT000 finding."""
    try:
        with tokenize.open(path) as handle:  # honors PEP 263 encoding
            source = handle.read()
    except (OSError, SyntaxError, UnicodeDecodeError) as error:
        return None, [
            Diagnostic(
                path=path, line=1, column=1, code=HYGIENE_CODE,
                message=f"file could not be read: {error}",
            )
        ]
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return None, [
            Diagnostic(
                path=path,
                line=error.lineno or 1,
                column=(error.offset or 0) + 1,
                code=HYGIENE_CODE,
                message=f"file does not parse: {error.msg}",
            )
        ]
    suppressions, hygiene = parse_suppressions(path, source, known_codes)
    return LintFile(path, relparts, tree, suppressions), hygiene
