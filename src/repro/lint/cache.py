"""Per-file incremental cache for the lint pipeline.

Phase A of a lint run — parse, syntactic checkers, suppression parsing,
and the :class:`~repro.lint.symbols.ModuleSummary` distillation — is pure
per file: its outputs depend only on that file's bytes (and the checker
code itself).  This cache persists exactly those outputs under
``.mutiny-lint-cache/`` so a warm run skips parsing entirely and pays
only for phase B (the cross-file graph analysis), keeping the CI gate
and the pre-commit loop fast as the tree grows.

Validation is two-tier: a fast path on ``(mtime_ns, size)`` — an
untouched file is a pair of ``stat`` fields, no reads — falling back to a
content SHA-1 when the stat pair moved (so ``touch`` alone does not
invalidate, and an edit under coarse mtime granularity cannot *falsely*
validate the fast path — a changed mtime merely triggers the hash check).
Entries embed :data:`CACHE_VERSION`, which must be bumped whenever
checker semantics, summary shapes, or diagnostic messages change: a
version mismatch is a miss, never an error.

Cached per file: the **raw** (pre-suppression) diagnostics of every file
checker plus hygiene findings, the parsed suppressions, and the module
summary.  Suppression filtering and the summary consumers (MUT001, MUT002,
MUT004, MUT006–MUT008 — their findings derive from the cached summaries)
run fresh every time — they are cheap, and caching post-filter results
would couple entries to the run's checker selection.

Failure policy: the cache is an optimization, never a correctness
dependency.  Any load problem (corrupt pickle, truncated file, foreign
class shapes) is treated as a miss; any store problem (read-only
checkout, full disk) is ignored.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from typing import Optional

from repro.lint.framework import Diagnostic, Suppression
from repro.lint.symbols import ModuleSummary

#: Bump on any change to checker behavior, Diagnostic/Suppression/
#: ModuleSummary shapes, or message wording — stale entries must miss.
CACHE_VERSION = 2

#: Default cache location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".mutiny-lint-cache"


@dataclass
class FileEntry:
    """Everything phase A produces for one clean-parsing file."""

    cache_version: int
    sha1: str
    mtime_ns: int
    size: int
    #: Raw per-file diagnostics (file checkers + hygiene), pre-suppression.
    diagnostics: list[Diagnostic]
    suppressions: list[Suppression]
    summary: Optional[ModuleSummary]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


def content_sha1(source_bytes: bytes) -> str:
    return hashlib.sha1(source_bytes).hexdigest()


class LintCache:
    """One cache directory; keys are absolute file paths."""

    def __init__(self, directory: str):
        self.directory = directory
        self.stats = CacheStats()

    def _entry_path(self, path: str) -> str:
        digest = hashlib.sha1(os.path.abspath(path).encode("utf-8")).hexdigest()
        return os.path.join(self.directory, f"{digest}.pickle")

    def load(self, path: str) -> Optional[FileEntry]:
        """The cached entry for ``path`` if still valid, else ``None``."""
        try:
            stat = os.stat(path)
        except OSError:
            return None
        try:
            with open(self._entry_path(path), "rb") as handle:
                entry = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, TypeError):
            # Missing, truncated, corrupt, or written by a different code
            # shape: all are misses, never errors.
            self.stats.misses += 1
            return None
        if (
            not isinstance(entry, FileEntry)
            or entry.cache_version != CACHE_VERSION
        ):
            self.stats.misses += 1
            return None
        if entry.mtime_ns != stat.st_mtime_ns or entry.size != stat.st_size:
            # Stat moved: confirm via content hash (a bare ``touch`` should
            # not re-lint the world).
            try:
                with open(path, "rb") as handle:
                    if content_sha1(handle.read()) != entry.sha1:
                        self.stats.misses += 1
                        return None
            except OSError:
                self.stats.misses += 1
                return None
            entry.mtime_ns = stat.st_mtime_ns
            entry.size = stat.st_size
            self._write(path, entry)  # refresh the fast path
        self.stats.hits += 1
        return entry

    def store(
        self,
        path: str,
        diagnostics: list[Diagnostic],
        suppressions: list[Suppression],
        summary: Optional[ModuleSummary],
    ) -> None:
        try:
            stat = os.stat(path)
            with open(path, "rb") as handle:
                sha1 = content_sha1(handle.read())
        except OSError:
            return
        entry = FileEntry(
            cache_version=CACHE_VERSION,
            sha1=sha1,
            mtime_ns=stat.st_mtime_ns,
            size=stat.st_size,
            diagnostics=diagnostics,
            suppressions=suppressions,
            summary=summary,
        )
        self._write(path, entry)

    def _write(self, path: str, entry: FileEntry) -> None:
        entry_path = self._entry_path(path)
        temp_path = f"{entry_path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(temp_path, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, entry_path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass  # best effort: the cache is an optimization only
