"""Interprocedural dataflow over the project call graph.

**Banned-primitive reachability** (:class:`Reachability`), memoized so the
whole-tree sweep stays cheap: from a given function, can execution reach a
call site matching a predicate (raw-I/O primitives for MUT006, blocking
primitives for MUT007) through any chain of resolvable project calls?  The
answer carries the *chain* — every hop with its file:line — because a
finding the developer cannot trace is a finding they will suppress instead
of fix.  Recursion is handled with an on-stack guard (a cycle contributes
no new reachability); functions in exempt modules (the transport
implementations — the sanctioned floor of the storage contract) are never
descended into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.lint.callgraph import PROJECT, FunctionRef, ProjectGraph, Resolution
from repro.lint.framework import Suppression
from repro.lint.symbols import CallSite

#: A predicate deciding whether one call site *is* a banned primitive:
#: receives the enclosing function, the call site, and its resolution;
#: returns a short human label (``"open()"``, ``"time.sleep()"``) when
#: banned, else ``None``.  The enclosing function is what lets a checker
#: honor a justified suppression recorded *at the primitive site* — the
#: decision covers every chain that reaches it.
BanPredicate = Callable[[FunctionRef, CallSite, Resolution], Optional[str]]


def site_suppressed(
    suppressions: Mapping[str, Sequence[Suppression]],
    path: str,
    line: int,
    codes: frozenset[str],
) -> bool:
    """Whether a justified suppression naming one of ``codes`` covers the
    given site (used by graph checkers for terminal-primitive sites)."""
    for suppression in suppressions.get(path, ()):
        if not suppression.justification:
            continue
        if line in suppression.covered_lines and any(
            code in suppression.codes for code in codes
        ):
            return True
    return False


@dataclass(frozen=True)
class ChainStep:
    """One hop of a printable call chain."""

    description: str  # "resultstore.write_dicts" or the banned label
    path: str
    line: int


def render_chain(steps: tuple[ChainStep, ...]) -> str:
    """``a (f.py:3) -> b (g.py:7) -> open() (g.py:9)``"""
    return " -> ".join(
        f"{step.description} ({'/'.join(_short_path(step.path))}:{step.line})"
        for step in steps
    )


def _short_path(path: str) -> tuple[str, ...]:
    parts = tuple(part for part in path.replace("\\", "/").split("/") if part)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1 :]
    return parts[-2:] if len(parts) > 1 else parts


class Reachability:
    """Memoized "does a banned primitive lie downstream of this function?"

    One instance per (graph, predicate, exemption) combination; checkers
    construct their own.  ``chain_from(fid)`` returns the shortest-found
    chain of :class:`ChainStep` from the function's first qualifying call
    to the banned primitive, or ``None``.
    """

    def __init__(
        self,
        graph: ProjectGraph,
        banned: BanPredicate,
        exempt: Callable[[FunctionRef], bool] = lambda ref: False,
    ):
        self.graph = graph
        self.banned = banned
        self.exempt = exempt
        self._memo: dict[str, Optional[tuple[ChainStep, ...]]] = {}
        self._on_stack: set[str] = set()

    def chain_from(self, fid: str) -> Optional[tuple[ChainStep, ...]]:
        """The banned-primitive chain starting *inside* ``fid``, if any."""
        if fid in self._memo:
            return self._memo[fid]
        if fid in self._on_stack:
            return None  # a recursion cycle adds no reachability of its own
        ref = self.graph.functions.get(fid)
        if ref is None or self.exempt(ref):
            self._memo[fid] = None
            return None
        self._on_stack.add(fid)
        try:
            found: Optional[tuple[ChainStep, ...]] = None
            module = self.graph.modules[ref.module]
            for call in ref.summary.calls:
                resolution = self.graph.resolve(module, ref.summary, call)
                label = self.banned(ref, call, resolution)
                if label is not None:
                    found = (ChainStep(label, ref.path, call.line),)
                    break
                if resolution.kind == PROJECT:
                    downstream = self.chain_from(resolution.target)
                    if downstream is not None:
                        callee = self.graph.functions[resolution.target]
                        # Anchor the hop at the *call site* line in the
                        # caller, then append the callee's own chain.
                        hop = ChainStep(_qualified(callee), ref.path, call.line)
                        found = (hop, *downstream)
                        break
        finally:
            self._on_stack.discard(fid)
        # A cycle participant's result computed while its callers are on
        # the stack may be incomplete, but only in the direction of a
        # *missed* chain through the cycle itself — conservative for a
        # linter that reports chains, never for one that certifies purity.
        self._memo[fid] = found
        return found


def _qualified(ref: FunctionRef) -> str:
    module_leaf = ref.module.rsplit(".", 1)[-1]
    return f"{module_leaf}.{ref.summary.qualname}"


def call_chain_message(
    graph: ProjectGraph,
    caller: FunctionRef,
    call: CallSite,
    callee_fid: str,
    downstream: tuple[ChainStep, ...],
) -> str:
    """The rendered chain for a finding at ``call`` inside ``caller``."""
    callee = graph.functions[callee_fid]
    first = ChainStep(_qualified(callee), caller.path, call.line)
    return render_chain((first, *downstream))

