"""Core machinery of mutiny-lint: diagnostics, suppressions, checker base.

The repo's contracts — informer ``copy=False`` reads being immutable, all
storage I/O going through the :class:`~repro.core.transport.ShardTransport`
contract, campaign-affecting code never touching the wall clock, lock
discipline in the threaded service classes, no swallowed exceptions in
daemon-thread bodies — were enforced only by review and docstring.  The
Mutiny paper's core observation is that exactly such implicit cross-layer
contracts are where orchestrators break; this package makes ours explicit
and machine-checked.

Everything here is stdlib-only (:mod:`ast`, :mod:`tokenize`): the linter
must be runnable in every environment the repo itself runs in, including
the dependency-free CI packaging check.

Design notes
------------

* A syntactic **checker** (MUT003, MUT005, MUT009) is an
  :class:`ast.NodeVisitor` subclass with a ``code``, a human ``title``, a
  long-form ``explanation`` (served by ``repro.cli lint --explain``), and
  a path scope.  Checkers receive one parsed :class:`LintFile` at a time
  and return :class:`Diagnostic` items.  (The other codes consume the
  summaries of :mod:`repro.lint.symbols` and never see an AST.)
* **Suppressions** are inline comments of the form::

      # mutiny-lint: disable=MUT003 -- lease liveness is wall-clock by design
      # mutiny-lint: disable=MUT001,MUT005 -- <justification>

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
from typing import ClassVar, Iterable, Optional

#: Code reserved for lint hygiene itself: malformed/unjustified suppressions,
#: unknown codes in a disable comment, and files the parser cannot read.
HYGIENE_CODE = "MUT000"

#: ``disable=`` comment grammar.  Matched anywhere inside a comment token so
#: the marker can ride along other markers (e.g. after a ``noqa``).
_DISABLE_RE = re.compile(
    r"mutiny-lint:\s*disable=(?P<codes>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*?))?\s*$"
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

    line: int
    codes: tuple[str, ...]
    justification: str
    #: Lines this suppression covers (its own, plus the next code line when
    #: the comment stands alone).
    covered_lines: tuple[int, ...]


@dataclass
class LintFile:
    """One parsed source file, handed to every in-scope checker."""

    path: str  # display path (as discovered)
    relparts: tuple[str, ...]  # parts relative to the repro package root
    source: str
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)

    def suppressed(self, diagnostic: Diagnostic) -> bool:
        return is_suppressed(self.suppressions, diagnostic)


def is_suppressed(
    suppressions: Iterable[Suppression], diagnostic: Diagnostic
) -> bool:
    """Whether any justified suppression covers the diagnostic.

    Standalone (not only a :class:`LintFile` method) because the runner
    also applies each file's suppressions to whole-program findings, which
    land on a line of a file long after its :class:`LintFile` is gone."""
    for suppression in suppressions:
        if not suppression.justification:
            continue  # unjustified suppressions never silence anything
        if diagnostic.line in suppression.covered_lines and (
            diagnostic.code in suppression.codes
        ):
            return True
    return False


class Checker(ast.NodeVisitor):
    """Base class of every mutiny-lint checker.

    Subclasses set the class attributes, implement visitor methods, and
    call :meth:`report` to record findings.  One checker instance is built
    per (checker, file) pair, so instance state never leaks across files.
    """

    code: ClassVar[str] = "MUT???"
    name: ClassVar[str] = "unnamed"
    title: ClassVar[str] = ""
    explanation: ClassVar[str] = ""

    def __init__(self, file: LintFile):
        self.file = file
        self.findings: list[Diagnostic] = []

    # ------------------------------------------------------------- interface

    @classmethod
    def applies_to(cls, relparts: tuple[str, ...]) -> bool:
        """Whether this checker sweeps the given file (path-scope hook)."""
        return True

    def run(self) -> list[Diagnostic]:
        self.visit(self.file.tree)
        return self.findings

    # ------------------------------------------------------------- reporting

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Diagnostic(
                path=self.file.path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0) + 1,
                code=self.code,
                message=message,
            )
        )


# --------------------------------------------------------------------------
# Suppression parsing
# --------------------------------------------------------------------------


def _code_lines(source: str) -> set[int]:
    """Line numbers that hold actual code (suppression targets)."""
    lines = set()
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type in (
                tokenize.COMMENT,
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
            ):
                continue
            for line in range(token.start[0], token.end[0] + 1):
                lines.add(line)
    except (tokenize.TokenError, IndentationError):
        pass
    return lines


def parse_suppressions(
    path: str, source: str, known_codes: Iterable[str]
) -> tuple[list[Suppression], list[Diagnostic]]:
    """Extract ``disable=`` comments; malformed ones become MUT000 findings."""
    known = set(known_codes)
    suppressions: list[Suppression] = []
    hygiene: list[Diagnostic] = []
    code_lines = _code_lines(source)
    source_lines = source.splitlines()

    def hygiene_finding(line: int, column: int, message: str) -> None:
        hygiene.append(
            Diagnostic(path=path, line=line, column=column, code=HYGIENE_CODE, message=message)
        )

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return [], []
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
        prefix = source_lines[line - 1][: token.start[1]] if line <= len(source_lines) else ""
        if not prefix.strip():  # own-line comment: covers the next code line
            following = sorted(candidate for candidate in code_lines if candidate > line)
            if following:
                covered.append(following[0])
        suppressions.append(
            Suppression(
                line=line,
                codes=codes,
                justification=justification,
                covered_lines=tuple(covered),
            )
        )
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
    lint_file = LintFile(
        path=path, relparts=relparts, source=source, tree=tree, suppressions=suppressions
    )
    return lint_file, hygiene


# --------------------------------------------------------------------------
# Shared AST helper (used by several checkers)
# --------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure attribute chain over a Name, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None

