"""Whole-program pass 2: the conservative project call graph.

Built from the :class:`~repro.lint.symbols.ModuleSummary` set of every file
in a lint run, the graph answers one question for every recorded call site:
*which function, if any, does this call enter?*  Every call is resolved
once, when the graph is built, into :attr:`ProjectGraph.edges`; the
checkers and :meth:`ProjectGraph.closure`, the one memoized traversal that
MUT006, MUT007 and MUT008 share, read that table.  Resolution is
deliberately conservative — an edge exists only when the target is
unambiguous:

* a bare name that is a ``def`` nested in the caller or in a scope
  enclosing it, a function/class of the same module, or an imported
  project symbol (``from repro.core.transport import transport_for``);
* a dotted path rooted in an imported module that lands on a project
  function or class (``resultstore.result_to_dict(...)``);
* ``self.m(...)`` / ``cls.m(...)`` resolved through the enclosing class's
  project-internal base chain (inheritance-aware, nearest definition wins);
* a class reference, which resolves to its ``__init__`` when one exists.

Everything else — calls through arbitrary receivers (``obj.m()``), call
results, subscripts, dynamically bound names — is an **unknown callee**:
the graph records the chain (checkers may apply documented lexical
heuristics to it) but follows no edge.  Unknown callees must never crash
the analysis and must never silently *pass* a checker whose contract they
could violate directly (MUT006/MUT007 apply their banned-primitive checks
to the chain itself before giving up on resolution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TypeVar

from repro.lint.symbols import (
    LOCALS,
    OPAQUE_ROOT,
    CallSite,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
)

#: Resolution kinds (first element of :class:`Resolution`).
PROJECT = "project"  # a project function: target is its function id
EXTERNAL = "external"  # an external callable: target is its dotted name
UNKNOWN = "unknown"  # dynamic/unresolvable: no edge

T = TypeVar("T")


@dataclass(frozen=True)
class Resolution:
    kind: str
    #: ``PROJECT``: function id; ``EXTERNAL``: dotted name; ``UNKNOWN``: a
    #: short human reason (used in tests, never in findings).
    target: str


@dataclass(frozen=True)
class FunctionRef:
    """One project function, addressable as ``module:qualname``."""

    fid: str
    module: str
    path: str
    relparts: tuple[str, ...]
    summary: FunctionSummary


class ProjectGraph:
    """Symbol table, resolved call edges and the memoized traversal over
    one lint run's modules."""

    def __init__(self, summaries: Iterable[ModuleSummary]):
        self.modules: dict[str, ModuleSummary] = {}
        self.functions: dict[str, FunctionRef] = {}
        for summary in summaries:
            # Last writer wins on module-name collisions (two files mapping
            # to one dotted name can only happen in pathological fixture
            # trees; determinism matters more than arbitration here).
            self.modules[summary.module] = summary
        for summary in self.modules.values():
            for function in summary.functions.values():
                self._add(summary, function)
            for klass in summary.classes.values():
                for method in klass.methods.values():
                    self._add(summary, method)
        #: Every function's call sites, in source order, each with its
        #: resolution.
        self.edges: dict[str, tuple[tuple[CallSite, Resolution], ...]] = {
            fid: tuple(
                (call, self.resolve(self.modules[ref.module], ref.summary, call))
                for call in ref.summary.calls
            )
            for fid, ref in self.functions.items()
        }

    def _add(self, summary: ModuleSummary, function: FunctionSummary) -> None:
        fid = f"{summary.module}:{function.qualname}"
        self.functions[fid] = FunctionRef(
            fid=fid,
            module=summary.module,
            path=summary.path,
            relparts=summary.relparts,
            summary=function,
        )

    # ------------------------------------------------------------- iteration

    def all_functions(self) -> list[FunctionRef]:
        """Every project function, in deterministic (fid) order."""
        return [self.functions[fid] for fid in sorted(self.functions)]

    def closure(
        self, step: Callable[[FunctionRef, Callable[[str], Optional[T]]], T]
    ) -> Callable[[str], Optional[T]]:
        """The one memoized traversal: a fid → value lookup in which
        ``step(ref, lookup)`` computes one function's value from its
        callees'.  An unknown function, or one already on the stack, reads
        ``None`` (a recursion cycle adds nothing of its own, so a value
        computed mid-cycle may miss what lies through the cycle)."""
        memo: dict[str, T] = {}
        on_stack: set[str] = set()

        def lookup(fid: str) -> Optional[T]:
            if fid in memo:
                return memo[fid]
            ref = self.functions.get(fid)
            if ref is None or fid in on_stack:
                return None
            on_stack.add(fid)
            try:
                memo[fid] = value = step(ref, lookup)
            finally:
                on_stack.discard(fid)
            return value

        return lookup

    # ------------------------------------------------------- class hierarchy

    def _resolve_class(
        self, module: ModuleSummary, reference: str
    ) -> Optional[tuple[ModuleSummary, ClassSummary]]:
        """A class by plain name (same module) or dotted project path."""
        if "." not in reference:
            klass = module.classes.get(reference)
            if klass is not None:
                return module, klass
            dotted = module.imports.get(reference)
            if dotted is None:
                return None
            reference = dotted
        owner_name, _, class_name = reference.rpartition(".")
        owner = self.modules.get(owner_name)
        if owner is None:
            return None
        klass = owner.classes.get(class_name)
        if klass is None:
            return None
        return owner, klass

    def resolve_method(
        self, module: ModuleSummary, class_name: str, method: str
    ) -> Optional[str]:
        """``self.method`` resolution: nearest definition along the base
        chain (breadth-first, project-internal bases only)."""
        queue: list[tuple[ModuleSummary, str]] = [(module, class_name)]
        seen: set[tuple[str, str]] = set()
        while queue:
            owner_module, name = queue.pop(0)
            if (owner_module.module, name) in seen:
                continue
            seen.add((owner_module.module, name))
            resolved = self._resolve_class(owner_module, name)
            if resolved is None:
                continue
            owner, klass = resolved
            if method in klass.methods:
                return f"{owner.module}:{klass.name}.{method}"
            for base in klass.bases:
                base_resolved = self._resolve_class(owner, base)
                if base_resolved is not None:
                    base_owner, base_class = base_resolved
                    queue.append((base_owner, base_class.name))
        return None

    # ------------------------------------------------------- call resolution

    def _resolve_dotted(self, dotted: str) -> Resolution:
        """A fully dotted path: project function, class ctor, or external."""
        owner_name, _, leaf = dotted.rpartition(".")
        owner = self.modules.get(owner_name)
        if owner is not None:
            if leaf in owner.functions:
                return Resolution(PROJECT, f"{owner.module}:{leaf}")
            if leaf in owner.classes:
                return self._resolve_constructor(owner, owner.classes[leaf])
            return Resolution(UNKNOWN, f"no symbol {leaf!r} in {owner_name}")
        # Two-level project references (``module.Class.method`` via
        # ``from repro.core import resultstore``) resolve one level deeper.
        head, _, method = owner_name.rpartition(".")
        grandparent = self.modules.get(head)
        if grandparent is not None and method in grandparent.classes:
            fid = f"{grandparent.module}:{method}.{leaf}"
            if fid in self.functions:
                return Resolution(PROJECT, fid)
            return Resolution(UNKNOWN, f"no method {leaf!r} on {method}")
        if dotted.startswith("repro."):
            return Resolution(UNKNOWN, f"unindexed project path {dotted!r}")
        return Resolution(EXTERNAL, dotted)

    def _resolve_constructor(
        self, owner: ModuleSummary, klass: ClassSummary
    ) -> Resolution:
        fid = self.resolve_method(owner, klass.name, "__init__")
        if fid is not None:
            return Resolution(PROJECT, fid)
        return Resolution(UNKNOWN, f"class {klass.name!r} has no indexed __init__")

    def resolve(
        self,
        module: ModuleSummary,
        caller: FunctionSummary,
        call: CallSite,
    ) -> Resolution:
        """Resolve one call site recorded in ``caller`` (defined in
        ``module``) to a project function, an external name, or unknown."""
        chain = call.chain
        root = chain[0]
        if root == OPAQUE_ROOT:
            return Resolution(UNKNOWN, "call through a non-name receiver")
        if root in ("self", "cls") and caller.class_name is not None:
            if len(chain) == 2:
                fid = self.resolve_method(module, caller.class_name, chain[1])
                if fid is not None:
                    return Resolution(PROJECT, fid)
                return Resolution(
                    UNKNOWN, f"method {chain[1]!r} not found on {caller.class_name}"
                )
            return Resolution(UNKNOWN, "call through an instance attribute")
        if call.dotted is not None:
            return self._resolve_dotted(call.dotted)
        if len(chain) == 1:
            # Innermost scope outward: a ``def`` local to the caller, then
            # to each function enclosing it, then the module's own.
            scope = caller.qualname
            while scope:
                local = f"{scope}{LOCALS}{root}"
                if local in module.functions:
                    return Resolution(PROJECT, f"{module.module}:{local}")
                scope = scope.rpartition(LOCALS)[0]
            if root in module.functions:
                return Resolution(PROJECT, f"{module.module}:{root}")
            if root in module.classes:
                return self._resolve_constructor(module, module.classes[root])
            # Not local, not imported: a builtin or a dynamically bound name.
            return Resolution(EXTERNAL, root)
        return Resolution(UNKNOWN, "call through an unresolved receiver")
