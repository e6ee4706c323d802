"""mutiny-lint: whole-program enforcement of the repo's cross-layer contracts.

Nine codes (``MUT001``–``MUT009``) mechanize conventions that previous PRs
established in docstrings and review — informer ``copy=False`` immutability
(within a function *and* through the call graph), ShardTransport purity
(direct and transitive), digest determinism (ambient entropy and unsorted
set/listing iteration), lock discipline, blocking-under-lock, lock-order
cycles, no swallowed exceptions — plus a hygiene code (``MUT000``) for the
lint machinery itself.

The design is **one lexical walk**.  Per file, :mod:`~repro.lint.symbols`
walks every function body exactly once and records, in plain-data
summaries, everything about taint, lock containment, ``self.<attr>``
accesses, imports and call targets; nothing else in the package walks a
body for those.  The codes then fall in two groups:

* **syntactic visitors** — ``MUT003`` (determinism), ``MUT005`` (swallowed
  exceptions), ``MUT009`` (iteration order): one ``ast.NodeVisitor`` per
  file, sharing nothing with the walk;
* **summary consumers** — ``MUT001`` (informer mutation, direct and
  escaping), ``MUT002`` + ``MUT006`` (one purity checker: zero hops is
  ``MUT002`` at the primitive, one or more is ``MUT006`` at the call site
  with the chain), ``MUT004`` (lock discipline), ``MUT007``, ``MUT008``:
  they run over the project call graph built from the summaries and never
  see an AST.

A nested ``def`` is a function of its own (``outer.<locals>.inner``) with a
fresh taint environment and an empty lock context; lambdas and
comprehensions are skipped as functions — what they contain is attributed
inline to the function they are written in.  A findings baseline
(``lint-baseline.json``) ratchets adoption: default runs fail only on
findings not recorded there, and stale entries must be removed.
Stdlib-only by design; run via ``repro.cli lint``.
"""

from repro.lint.baseline import BaselineError, BaselineResult
from repro.lint.callgraph import ProjectGraph, Resolution, build_graph
from repro.lint.framework import (
    HYGIENE_CODE,
    Checker,
    Diagnostic,
    LintFile,
    Suppression,
    is_suppressed,
    parse_suppressions,
)
from repro.lint.runner import (
    ALL_CHECKERS,
    EXPLANATIONS,
    GRAPH_CHECKERS,
    JSON_SCHEMA_VERSION,
    KNOWN_CODES,
    TITLES,
    LintReport,
    LintUsageError,
    lint_paths,
    select_codes,
)
from repro.lint.symbols import ModuleSummary, index_module

__all__ = [
    "ALL_CHECKERS",
    "BaselineError",
    "BaselineResult",
    "Checker",
    "Diagnostic",
    "EXPLANATIONS",
    "GRAPH_CHECKERS",
    "HYGIENE_CODE",
    "JSON_SCHEMA_VERSION",
    "KNOWN_CODES",
    "LintFile",
    "LintReport",
    "LintUsageError",
    "ModuleSummary",
    "ProjectGraph",
    "Resolution",
    "Suppression",
    "TITLES",
    "build_graph",
    "index_module",
    "is_suppressed",
    "lint_paths",
    "parse_suppressions",
    "select_codes",
]
