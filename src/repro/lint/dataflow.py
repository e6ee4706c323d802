"""Banned-primitive reachability over the project call graph.

:class:`Reachability` answers, for MUT006 (raw-I/O primitives) and MUT007
(blocking primitives): from a given function, can execution reach a call
site matching a predicate through any chain of resolved project calls?
It is one :meth:`~repro.lint.callgraph.ProjectGraph.closure` over the
graph's resolved edges — memoized, with a recursion cycle contributing no
reachability of its own — the same traversal MUT008's transitive lock set
runs on.  The answer carries the *chain* — every hop with its file:line —
because a finding the developer cannot trace is a finding they will
suppress instead of fix.  Functions the checker exempts (the transport
implementations — the sanctioned floor of the storage contract — for
MUT006) are never descended into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.lint.callgraph import PROJECT, FunctionRef, ProjectGraph, Resolution
from repro.lint.symbols import CallSite

#: A predicate deciding whether one call site *is* a banned primitive:
#: receives the enclosing function, the call site, and its resolution;
#: returns a short human label (``"open()"``, ``"time.sleep()"``) when
#: banned, else ``None``.  The enclosing function is what lets a checker
#: honor a justified suppression recorded *at the primitive site* — the
#: decision covers every chain that reaches it.
BanPredicate = Callable[[FunctionRef, CallSite, Resolution], Optional[str]]


@dataclass(frozen=True)
class ChainStep:
    """One hop of a printable call chain."""

    description: str  # "resultstore.write_dicts" or the banned label
    path: str
    line: int


Chain = tuple[ChainStep, ...]


def render_chain(steps: Chain) -> str:
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
    construct their own.  ``chain_from(fid)`` returns the first-found
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
        self.chain_from: Callable[[str], Optional[Chain]] = graph.closure(self._step)

    def _step(
        self, ref: FunctionRef, _chain_from: Callable[[str], Optional[Chain]]
    ) -> Optional[Chain]:
        # ``via`` descends through ``self.chain_from``, this same lookup.
        if self.exempt(ref):
            return None
        for call, resolution in self.graph.edges[ref.fid]:
            label = self.banned(ref, call, resolution)
            if label is not None:
                return (ChainStep(label, ref.path, call.line),)
            found = self.via(ref, call, resolution)
            if found is not None:
                return found[1]
        return None

    def via(
        self, caller: FunctionRef, call: CallSite, resolution: Resolution
    ) -> Optional[tuple[FunctionRef, Chain]]:
        """The project callee ``call`` enters and the chain from the call
        site (the hop, anchored at ``call``'s line in ``caller``) to the
        banned primitive, when one lies downstream."""
        if resolution.kind != PROJECT:
            return None
        downstream = self.chain_from(resolution.target)
        if downstream is None:
            return None
        callee = self.graph.functions[resolution.target]
        module_leaf = callee.module.rsplit(".", 1)[-1]
        # Anchor the hop at the *call site* line in the caller, then append
        # the callee's own chain.
        hop = ChainStep(
            f"{module_leaf}.{callee.summary.qualname}", caller.path, call.line
        )
        return callee, (hop, *downstream)
