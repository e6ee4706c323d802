"""mutiny-lint runner: discovery, the two phases, report assembly.

The runner is what ``repro.cli lint`` (and the tests) drive.  A run has
two phases:

* **Phase A (per file)** — parse, parse suppressions, and distill the
  module into a :class:`~repro.lint.symbols.ModuleSummary` (the one
  lexical walk).  All of it depends only on the file's bytes; the only
  findings it makes are MUT000's.

* **Phase B (whole program)** — build the project call graph from the
  summaries (every call resolved once) and run the *summary consumers*
  (MUT002, MUT004–MUT008).  Cheap relative to parsing, and for most of
  them inherently cross-file.

Inline suppressions apply to every finding (a graph finding lands on a
concrete line like any other), and the optional findings baseline
(:mod:`repro.lint.baseline`) splits the result into new-vs-recorded
findings with a stale-entry ratchet.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Type

from repro.lint import baseline as baseline_mod
from repro.lint.callgraph import ProjectGraph
from repro.lint.concurrency import (
    BlockingUnderLockChecker,
    LockDisciplineChecker,
    LockOrderChecker,
)
from repro.lint.framework import (
    HYGIENE_CODE,
    Diagnostic,
    Suppression,
    is_suppressed,
    load_lint_file,
)
from repro.lint.purity_graph import (
    GraphChecker,
    SwallowedExceptionChecker,
    TransportPurityChecker,
)
from repro.lint.symbols import ModuleSummary, index_module

#: Every checker: the summary consumers of phase B.  TransportPurityChecker
#: emits two codes: MUT002 at zero hops, MUT006 through the call graph.
#: MUT000 is not a checker — it is the hygiene code emitted by the
#: framework itself (unparseable files, bad suppression comments) and is
#: documented via :data:`EXPLANATIONS`.
GRAPH_CHECKERS: tuple[Type[GraphChecker], ...] = (
    TransportPurityChecker,
    SwallowedExceptionChecker,
    LockDisciplineChecker,
    BlockingUnderLockChecker,
    LockOrderChecker,
)

HYGIENE_EXPLANATION = """\
MUT000 is mutiny-lint's own hygiene code — it reports problems with the
lint run itself rather than with the checked contracts:

  * a file that cannot be read or does not parse;
  * a suppression comment naming an unknown code, or naming MUT000 itself
    (hygiene findings cannot be suppressed — fixing the comment is always
    cheaper than silencing it);
  * a suppression with no justification.  The grammar is

        # mutiny-lint: disable=MUTnnn -- why this is safe here

    and the `-- why` part is mandatory: a suppression records a decision,
    and this linter exists precisely because undocumented decisions about
    cross-layer contracts are where orchestrators rot;
  * a comment that mentions mutiny-lint but does not match the grammar
    (usually a typo that would otherwise silently suppress nothing).

MUT000 findings cannot be suppressed and have no checker to disable: fix
the comment or the file.
"""

#: code -> long-form explanation, served by ``repro.cli lint --explain``.
EXPLANATIONS: dict[str, str] = {HYGIENE_CODE: HYGIENE_EXPLANATION}
#: code -> one-line title (for listings).
TITLES: dict[str, str] = {HYGIENE_CODE: "Lint hygiene (bad suppression / unreadable file)"}
for _graph_checker in GRAPH_CHECKERS:
    for _code, (_title, _explanation) in _graph_checker.docs.items():
        EXPLANATIONS[_code] = _explanation
        TITLES[_code] = _title

KNOWN_CODES: tuple[str, ...] = tuple(sorted(TITLES))

#: Schema version of the ``--format json`` document.  Bump only on a
#: breaking change to the document shape; tests pin this.  The PR 10
#: baseline fields are additive.
JSON_SCHEMA_VERSION = 1


class LintUsageError(ValueError):
    """Bad runner input (unknown code, missing path) — CLI exit 2."""


@dataclass
class LintReport:
    """Outcome of one lint run.

    With a baseline applied, :attr:`diagnostics` holds only the findings
    that *fail* the run (not matched by a baseline entry); matched ones
    are counted in :attr:`baselined` and stale baseline entries — the
    ratchet — in :attr:`stale_baseline`.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    codes: tuple[str, ...] = ()
    baselined: int = 0
    stale_baseline: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics and not self.stale_baseline

    def to_document(self) -> dict:
        """The stable ``--format json`` document."""
        return {
            "schema_version": JSON_SCHEMA_VERSION,
            "tool": "mutiny-lint",
            "codes": list(self.codes),
            "files_checked": self.files_checked,
            "findings": [diagnostic.to_dict() for diagnostic in self.diagnostics],
            "baselined": self.baselined,
            "stale_baseline": [
                {"file": file, "code": code, "message": message}
                for file, code, message in self.stale_baseline
            ],
            "ok": self.ok,
        }


def _discover(paths: Sequence[str]) -> list[str]:
    """Every ``.py`` file under the given files/directories, sorted.

    Symlink policy: directory symlinks are pruned from the walk (a link
    pointing back up the tree would loop, and a linked subtree would
    duplicate every finding under two spellings), and the final list is
    deduplicated by resolved real path — a symlinked file, or the same
    tree reached through two of the given paths, lints exactly once under
    its first (sorted) display path.
    """
    candidates: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            candidates.add(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    name
                    for name in dirnames
                    if name != "__pycache__"
                    and not name.startswith(".")
                    and not os.path.islink(os.path.join(dirpath, name))
                )
                for filename in filenames:
                    if filename.endswith(".py"):
                        candidates.add(os.path.join(dirpath, filename))
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    unique: dict[str, str] = {}
    for display in sorted(candidates):
        unique.setdefault(os.path.realpath(display), display)
    return sorted(unique.values())


def _relparts(path: str) -> tuple[str, ...]:
    """Path parts relative to the ``repro`` package root.

    ``.../src/repro/core/distributed.py`` → ``("core", "distributed.py")``.
    The *last* ``repro`` segment wins, so fixture trees that mirror the
    package layout under ``/tmp/.../repro/...`` scope identically.  A path
    with no ``repro`` segment falls back to its own parts (scoped checkers
    then simply don't apply).
    """
    parts = tuple(part for part in os.path.normpath(path).split(os.sep) if part)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1 :]
    return parts


def select_codes(codes: Optional[Iterable[str]]) -> tuple[str, ...]:
    """Validate and normalize a ``--codes`` selection (None = all)."""
    if codes is None:
        return KNOWN_CODES
    selected = []
    for code in codes:
        normalized = code.strip().upper()
        if not normalized:
            continue
        if normalized not in TITLES:
            raise LintUsageError(
                f"unknown code {normalized!r} (known: {', '.join(KNOWN_CODES)})"
            )
        selected.append(normalized)
    if not selected:
        raise LintUsageError("--codes selected nothing")
    return tuple(dict.fromkeys(selected))


def lint_paths(
    paths: Sequence[str],
    codes: Optional[Iterable[str]] = None,
    *,
    baseline_entries: Optional[Sequence[tuple[str, str, str]]] = None,
) -> LintReport:
    """Lint the given files/directories with the selected checkers.

    ``baseline_entries`` (parsed from ``lint-baseline.json``) filters the
    result down to new-vs-baselined findings with the stale-entry ratchet.
    """
    selected = select_codes(codes)
    report = LintReport(codes=selected)
    collected: list[Diagnostic] = []
    summaries: list[ModuleSummary] = []
    suppressions_by_path: dict[str, list[Suppression]] = {}
    for path in _discover(paths):
        # Phase A: parse, suppressions, the one walk.  Its only findings
        # are MUT000's, which no suppression silences.
        lint_file, hygiene = load_lint_file(path, _relparts(path), KNOWN_CODES)
        report.files_checked += 1
        if HYGIENE_CODE in selected:
            collected.extend(hygiene)
        if lint_file is not None:
            suppressions_by_path[path] = lint_file.suppressions
            summaries.append(index_module(lint_file))
    graph_checkers = [
        checker
        for checker in GRAPH_CHECKERS
        if any(code in selected for code in checker.docs)
    ]
    if graph_checkers and summaries:  # phase B
        graph = ProjectGraph(summaries)
        for graph_checker in graph_checkers:
            for diagnostic in graph_checker().run(graph, suppressions_by_path):
                if diagnostic.code in selected and not is_suppressed(
                    suppressions_by_path.get(diagnostic.path, ()),
                    diagnostic.line,
                    (diagnostic.code,),
                ):
                    collected.append(diagnostic)
    collected.sort()
    if baseline_entries is not None:
        applied = baseline_mod.apply(collected, baseline_entries)
        report.diagnostics = applied.new
        report.baselined = len(applied.matched)
        report.stale_baseline = applied.stale
    else:
        report.diagnostics = collected
    return report
