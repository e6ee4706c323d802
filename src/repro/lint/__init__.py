"""mutiny-lint: whole-program enforcement of the repo's cross-layer contracts.

Six codes (``MUT002``, ``MUT004``–``MUT008``) mechanize conventions that
previous PRs established in docstrings and review — ShardTransport purity
(direct and transitive), lock discipline, blocking-under-lock, lock-order
cycles, no swallowed exceptions — plus a hygiene code (``MUT000``) for the
lint machinery itself.  Digest determinism (ambient entropy, unordered
iteration) and the informer contract (no in-place edit of a ``copy=False``
reference) are no lint codes: the campaign itself checks them at run time
(docs/INVARIANTS.md).

The design is **one lexical walk**.  Per file, :mod:`~repro.lint.symbols`
walks every function body exactly once and records, in plain-data
summaries, everything about lock containment, ``self.<attr>`` accesses,
imports, call targets and swallowed errors; nothing else in the package
walks a body.  Every code is a **summary consumer** — ``MUT002`` +
``MUT006`` (one purity checker: zero hops is ``MUT002`` at the primitive,
one or more is ``MUT006`` at the call site with the chain), ``MUT004``
(lock discipline), ``MUT005`` (swallowed exceptions), ``MUT007``,
``MUT008``: they run over the project call graph built from the summaries
and never see an AST.

A nested ``def`` is a function of its own (``outer.<locals>.inner``) with
an empty lock context; lambdas and comprehensions are skipped as functions
— what they contain is attributed inline to the function they are written
in.  A findings baseline
(``lint-baseline.json``) ratchets adoption: default runs fail only on
findings not recorded there, and stale entries must be removed.
Stdlib-only by design; run via ``repro.cli lint``.  The names below are
imported on first access, so no other subcommand loads the analyzer.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(
    globals(),
    {
        "BaselineError": "repro.lint.baseline",
        "HYGIENE_CODE": "repro.lint.framework",
        "Diagnostic": "repro.lint.framework",
        "EXPLANATIONS": "repro.lint.runner",
        "JSON_SCHEMA_VERSION": "repro.lint.runner",
        "KNOWN_CODES": "repro.lint.runner",
        "TITLES": "repro.lint.runner",
        "LintUsageError": "repro.lint.runner",
        "lint_paths": "repro.lint.runner",
        "select_codes": "repro.lint.runner",
    },
)

__all__ = [
    "BaselineError",
    "Diagnostic",
    "EXPLANATIONS",
    "HYGIENE_CODE",
    "JSON_SCHEMA_VERSION",
    "KNOWN_CODES",
    "LintUsageError",
    "TITLES",
    "lint_paths",
    "select_codes",
]
