"""Whole-program pass 1: the one lexical walk over every function body.

The Mutiny paper's warning is that failures propagate through *chains* of
components, so a contract checker that cannot see chains misses the
defects that matter (a helper doing raw I/O on behalf of
``resultstore.py``, a blocking call three frames below a ``with
self._lock:``).  This module is the only code in the package that walks a
function body for taint, lock containment or call targets; every checker
that needs those facts (MUT001, MUT002, MUT004, MUT006–MUT008) is a
*consumer* of the summaries produced here.

Each parsed module is distilled into a :class:`ModuleSummary` — classes,
bases, the ``_lock_guarded`` declaration, import aliases and the site of
every import at any nesting depth — plus one :class:`FunctionSummary` per
function, recording:

* every call site, with its attribute chain, its import-resolved dotted
  target when the root is an imported name (module-level *or*
  function-local import), the lock(s) lexically held at the call, which
  positional arguments carry ``copy=False`` taint, and which are the
  caller's own parameters;
* every lock acquisition (``with self._lock:`` / ``with GLOBAL_LOCK:``)
  with the locks already held at that point;
* which parameters the body mutates in place, and every in-place mutation
  through a ``copy=False``-tainted name (the events MUT001 reports);
* every ``self.<attr>`` read and write with whether ``self._lock`` is held
  (what MUT004 checks against the class's declaration).

What counts as a function:

* module-level statements (and class bodies, which run at import) form the
  ``<module>`` pseudo-function of their file;
* a nested ``def`` is a function of its own, ``outer.<locals>.inner``,
  with a **fresh taint environment and an empty lock context** (it runs
  later, on whichever thread calls it) but its enclosing scope's imports
  and — inside a method — its class, so ``self.m()`` in a closure resolves;
* lambdas and comprehensions are *not* functions: they get no summary and
  no call-graph node, and what is written inside them is attributed inline
  to the enclosing function, under its lock context.

Summaries are plain data — no AST nodes — so the cross-file consumers
never see (or keep alive) a syntax tree.

Documented approximations (conservative by design):

* only positional arguments participate in taint/parameter mapping;
* a function sees every import of its enclosing scopes regardless of
  statement order;
* a method called as ``self.m(...)`` / ``cls.m(...)`` is resolvable; a
  call through any other receiver (``obj.m(...)``) is an *unknown callee*
  — the graph records the chain for heuristics but follows no edge.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, TypeGuard, Union

from repro.lint.framework import LintFile

#: Methods whose call mutates their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "setdefault", "sort", "reverse", "add", "discard",
    }
)

#: Accessor names whose ``copy=False`` form returns cache references.
CACHE_READERS = frozenset({"get", "list"})

#: Placeholder root for a call/attribute chain rooted in a non-Name
#: expression (a call result, a subscript, ...).
OPAQUE_ROOT = "<expr>"

#: Name and qualname of the pseudo-function holding module-level statements.
MODULE_SCOPE = "<module>"

#: Qualname separator between a function and the ``def``s nested in it.
LOCALS = ".<locals>."

#: The lock token MUT004's discipline (and the ``*_locked`` caller-holds-
#: the-lock naming convention) is defined against.
SELF_LOCK = "self._lock"

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def is_lock_name(name: str) -> bool:
    """Whether an attribute/variable name denotes a lock (``_lock``,
    ``lock``, ``_store_lock``, ...).  Purely lexical, documented as such."""
    return "lock" in name.lower()


# ---------------------------------------------------------------------------
# Summary data (plain, AST-free)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    line: int
    col: int
    #: Attribute chain as written: ``("self", "transport", "put")``,
    #: ``("helper",)``, ``("os", "remove")``.  Root is :data:`OPAQUE_ROOT`
    #: when the receiver is not a plain name.
    chain: tuple[str, ...]
    #: Import-alias-resolved dotted target when the chain is rooted in an
    #: imported name (``os.remove``, ``repro.core.transport.transport_for``);
    #: ``None`` otherwise.
    dotted: Optional[str] = None
    #: Positional argument indexes whose value is a ``copy=False``-tainted
    #: name (MUT001 interprocedural escape analysis).
    tainted_args: tuple[int, ...] = ()
    #: ``(argument_index, caller_parameter_index)`` pairs for positional
    #: arguments that are the caller's own bare parameters.
    param_args: tuple[tuple[int, int], ...] = ()
    #: Lock tokens lexically held at the call (``self._lock`` / ``G:NAME``).
    held_locks: tuple[str, ...] = ()


@dataclass(frozen=True)
class LockAcquire:
    """One ``with <lock>:`` entry inside a function body."""

    line: int
    col: int
    lock: str  # "self.<attr>" or "G:<name>"
    held: tuple[str, ...]  # locks already held at this acquisition


@dataclass(frozen=True)
class TaintMutation:
    """One in-place mutation through a ``copy=False``-tainted name."""

    line: int
    col: int
    #: ``"item/attribute assignment"``, ``"del"``, ``"augmented
    #: assignment"`` or ``"mutating call .<method>()"``.
    action: str
    name: str
    read_line: int  # line of the ``copy=False`` read the taint came from
    #: ``False`` for ``name += ...`` on the tainted name itself, ``True``
    #: for a mutation through an attribute/item/method of it.
    through: bool = True


@dataclass(frozen=True)
class SelfAccess:
    """One ``self.<attr>`` read or write inside a method (or a ``def``
    nested in one)."""

    line: int
    col: int
    attr: str
    write: bool
    locked: bool  # lexically inside ``with self._lock:`` (or ``*_locked``)


@dataclass(frozen=True)
class ImportSite:
    """One ``import`` / ``from ... import`` statement, at any depth."""

    line: int
    col: int
    #: The ``from`` module as written (``""`` when absent); ``None`` for a
    #: plain ``import a, b``, whose module names are then in :attr:`names`.
    module: Optional[str]
    names: tuple[str, ...]


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the summary consumers need about one function."""

    name: str
    #: ``function``, ``Class.method``, ``outer.<locals>.inner`` or
    #: :data:`MODULE_SCOPE`.
    qualname: str
    line: int
    col: int
    params: tuple[str, ...]  # positional parameters, in order (incl. self)
    calls: tuple[CallSite, ...] = ()
    lock_acquires: tuple[LockAcquire, ...] = ()
    #: ``(parameter_index, line)`` for parameters the body mutates in place.
    mutated_params: tuple[tuple[int, int], ...] = ()
    taint_mutations: tuple[TaintMutation, ...] = ()
    self_accesses: tuple[SelfAccess, ...] = ()
    #: The class whose ``self`` the body sees: a method's own class, and
    #: the enclosing method's class for a ``def`` nested in a method.
    class_name: Optional[str] = None

    @property
    def method_name(self) -> Optional[str]:
        """The method of :attr:`class_name` the body is written in: its own
        name, or the enclosing method's for a ``def`` nested in one."""
        if self.class_name is None:
            return None
        return self.qualname[len(self.class_name) + 1 :].partition(LOCALS)[0]

    @property
    def is_method(self) -> bool:
        """A direct method of :attr:`class_name` (calls bind ``self``), as
        opposed to a closure that merely captures it."""
        return self.qualname == f"{self.class_name}.{self.name}"


@dataclass
class ClassSummary:
    name: str  # qualname: ``Class``, ``Outer.Inner``, ``f.<locals>.Class``
    line: int
    #: Base-class references: plain names (same module) or import-resolved
    #: dotted paths; unresolvable bases are kept verbatim and simply fail
    #: project resolution later (conservative).
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionSummary] = field(default_factory=dict)
    #: The ``_lock_guarded`` declaration, if the class opts into MUT004.
    lock_guarded: Optional[tuple[str, ...]] = None


@dataclass
class ModuleSummary:
    """One module's contribution to the project symbol table."""

    module: str  # dotted module name, e.g. "repro.core.resultstore"
    path: str
    relparts: tuple[str, ...]
    imports: dict[str, str] = field(default_factory=dict)  # module level
    import_sites: list[ImportSite] = field(default_factory=list)
    #: Keyed by qualname: module-level functions under their plain name,
    #: nested ``def``s as ``outer.<locals>.inner``, module-level statements
    #: as :data:`MODULE_SCOPE`.
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Module-name and import resolution
# ---------------------------------------------------------------------------


def module_name_for(relparts: tuple[str, ...]) -> str:
    """Dotted module name for a repro-package-relative path.

    ``("core", "transport.py")`` → ``repro.core.transport``; fixture trees
    that mirror the package layout resolve identically, which is what lets
    the call-graph tests run against temp directories.
    """
    parts = list(relparts)
    if parts and parts[-1].endswith(".py"):
        leaf = parts.pop()[: -len(".py")]
        if leaf != "__init__":
            parts.append(leaf)
    return ".".join(["repro", *parts]) if parts else "repro"


def _package_of(module: str) -> str:
    """The package a module lives in (``repro.core.x`` → ``repro.core``)."""
    return module.rsplit(".", 1)[0] if "." in module else ""


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Resolve a ``from .x import y`` module reference to a dotted path."""
    base = _package_of(module)
    for _ in range(level - 1):
        base = _package_of(base)
    if target:
        return f"{base}.{target}" if base else target
    return base


def attribute_chain(node: ast.AST) -> tuple[str, ...]:
    """The written attribute chain of a call target / receiver.

    ``self.transport.put`` → ``("self", "transport", "put")``; a chain
    rooted in a non-Name expression gets :data:`OPAQUE_ROOT` as its root.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append(OPAQUE_ROOT)
    return tuple(reversed(parts))


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


def _is_copy_false_read(node: ast.AST) -> bool:
    """``<obj>.get(..., copy=False)`` or ``<obj>.list(..., copy=False)``."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    if node.func.attr not in CACHE_READERS:
        return False
    for keyword in node.keywords:
        if keyword.arg == "copy" and isinstance(keyword.value, ast.Constant):
            return keyword.value.value is False
    return False


def _is_deep_copy_call(node: ast.AST) -> bool:
    """``deep_copy(...)`` or ``<anything>.deep_copy(...)``."""
    return isinstance(node, ast.Call) and attribute_chain(node.func)[-1] == "deep_copy"


def _is_self_attribute(node: ast.AST) -> TypeGuard[ast.Attribute]:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _lock_token(expr: ast.expr) -> Optional[str]:
    """The lock token of a ``with`` context expression, or ``None``.

    Recognized: ``self.<attr>`` where the attr names a lock, and a bare
    module-level ``NAME`` that names a lock.
    """
    if _is_self_attribute(expr) and is_lock_name(expr.attr):
        return f"self.{expr.attr}"
    if isinstance(expr, ast.Name) and is_lock_name(expr.id):
        return f"G:{expr.id}"
    return None


def _lock_guarded_declaration(node: ast.ClassDef) -> Optional[tuple[str, ...]]:
    for statement in node.body:
        if not isinstance(statement, ast.Assign):
            continue
        for target in statement.targets:
            if isinstance(target, ast.Name) and target.id == "_lock_guarded":
                value = statement.value
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    return tuple(
                        element.value
                        for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    )
                return ()
    return None


def _base_reference(expr: ast.expr, imports: dict[str, str]) -> Optional[str]:
    chain = attribute_chain(expr)
    if chain[0] == OPAQUE_ROOT:
        return None
    if len(chain) == 1:
        return chain[0]
    if chain[0] in imports:
        return ".".join((imports[chain[0]], *chain[1:]))
    return ".".join(chain)


#: ``(line_of_the_copy_false_read, kind)``.  Kind ``"ref"``: the name is
#: (or may be) a cache reference — any in-place mutation is a MUT001 event.
#: Kind ``"elements"``: the name is a fresh container whose *elements* are
#: cache refs — mutating the container is fine, but iterating it yields
#: ``"ref"``-tainted names.
_Taint = tuple[int, str]


class _ScopeIndexer:
    """Walks one function body (or a module's top level) into a
    :class:`FunctionSummary`.

    The walk is sequential and lexical: statements in source order, one
    taint environment per function, ``with``-lock containment tracked as a
    stack.  ``def``s met on the way are queued and indexed as functions of
    their own once the enclosing body is done (so they see all of its
    imports); class bodies are walked inline — they execute with the
    enclosing scope — and only their methods are queued.
    """

    def __init__(
        self,
        module: ModuleSummary,
        imports: dict[str, str],
        qualname: str,
        params: tuple[str, ...],
        class_name: Optional[str],
    ):
        self.module = module
        self.qualname = qualname
        self.params = params
        #: Shared with the enclosing scope until this scope imports
        #: something itself (copy-on-write); the module scope owns its dict.
        self.imports = imports
        self._owns_imports = qualname == MODULE_SCOPE
        self.class_name = class_name
        self.param_index = {name: index for index, name in enumerate(params)}
        self.calls: list[CallSite] = []
        self.acquires: list[LockAcquire] = []
        self.mutated: dict[int, int] = {}  # param index -> first mutation line
        self.taint_mutations: list[TaintMutation] = []
        self.accesses: list[SelfAccess] = []
        self._taint: dict[str, _Taint] = {}
        #: Qualname prefix of definitions nested directly in this scope.
        self._prefix = "" if qualname == MODULE_SCOPE else f"{qualname}{LOCALS}"
        #: The class whose body is being walked inline, if any.
        self._owner: Optional[ClassSummary] = None
        self._deferred: list[tuple[_FunctionNode, Optional[ClassSummary]]] = []

    # -------------------------------------------------------------- statements

    def walk(self, statements: list[ast.stmt], held: tuple[str, ...]) -> None:
        for statement in statements:
            self._statement(statement, held)

    def _statement(self, node: ast.stmt, held: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Decorators and defaults run now, in this scope; the body
            # runs later, as a function of its own.
            arguments = node.args
            for expr in (
                *node.decorator_list, *arguments.defaults, *arguments.kw_defaults
            ):
                if expr is not None:
                    self._expression(expr, held)
            self._deferred.append((node, self._owner))
        elif isinstance(node, ast.ClassDef):
            self._class(node, held)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            self._import(node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                self._expression(item.context_expr, inner)
                token = _lock_token(item.context_expr)
                if token is not None:
                    self.acquires.append(
                        LockAcquire(
                            line=item.context_expr.lineno,
                            col=item.context_expr.col_offset + 1,
                            lock=token,
                            held=inner,
                        )
                    )
                    inner = (*inner, token)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, None, inner)
            self.walk(node.body, inner)
        elif isinstance(node, ast.Assign):
            self._expression(node.value, held)
            taint = self._taint_of(node.value)
            for target in node.targets:
                self._assign_target(target, taint, held)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._expression(node.value, held)
                self._assign_target(node.target, self._taint_of(node.value), held)
        elif isinstance(node, ast.AugAssign):
            self._expression(node.value, held)
            self._store(node.target, held, "augmented assignment")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._taint.pop(target.id, None)
                else:
                    self._mutation(target, "del")
                    self._expression(target, held)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._expression(node.iter, held)
            taint = self._taint_of(node.iter)
            # Iterating either taint kind yields cache references: items of
            # a copy=False list are refs, and so are items of a fresh
            # container built from one.
            self._assign_target(
                node.target, (taint[0], "ref") if taint is not None else None, held
            )
            self.walk(node.body, held)
            self.walk(node.orelse, held)
        else:
            self._compound(node, held)

    def _compound(self, node: ast.AST, held: tuple[str, ...]) -> None:
        """Every other statement (If, While, Try, Match, Expr, Return, ...)
        and its handler/case clauses: nested statements are walked, their
        expressions scanned, in field order."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._statement(child, held)
            elif isinstance(child, ast.expr):
                self._expression(child, held)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                self._compound(child, held)

    def _class(self, node: ast.ClassDef, held: tuple[str, ...]) -> None:
        for expr in (
            *node.decorator_list, *node.bases, *(k.value for k in node.keywords)
        ):
            self._expression(expr, held)
        klass = ClassSummary(
            name=self._qualname_of(node.name, self._owner),
            line=node.lineno,
            bases=tuple(
                reference
                for base in node.bases
                if (reference := _base_reference(base, self.imports)) is not None
            ),
            lock_guarded=_lock_guarded_declaration(node),
        )
        self.module.classes[klass.name] = klass
        outer, self._owner = self._owner, klass
        self.walk(node.body, held)
        self._owner = outer

    def _import(self, node: Union[ast.Import, ast.ImportFrom]) -> None:
        if not self._owns_imports:
            self.imports = dict(self.imports)
            self._owns_imports = True
        names = tuple(alias.name for alias in node.names)
        if isinstance(node, ast.Import):
            module = None
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                self.imports[bound] = target
        else:
            module = node.module or ""
            base = (
                _resolve_relative(self.module.module, node.level, node.module)
                if node.level
                else module
            )
            for alias in node.names:
                if alias.name != "*":
                    self.imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        self.module.import_sites.append(
            ImportSite(node.lineno, node.col_offset + 1, module, names)
        )

    # ------------------------------------------------------------------ taint

    def _taint_of(self, value: ast.expr) -> Optional[_Taint]:
        """The taint a value expression carries, or ``None``."""
        if _is_deep_copy_call(value):
            return None
        if _is_copy_false_read(value):
            return (value.lineno, "ref")
        if isinstance(value, ast.Name):
            return self._taint.get(value.id)
        if isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            # A comprehension over a tainted iterable builds a *fresh*
            # container whose items are cache refs — unless every element
            # is routed through deep_copy.
            if _is_deep_copy_call(value.elt):
                return None
            for generator in value.generators:
                taint = self._taint_of(generator.iter)
                if taint is not None:
                    return (taint[0], "elements")
        return None

    def _assign_target(
        self, target: ast.expr, taint: Optional[_Taint], held: tuple[str, ...]
    ) -> None:
        if isinstance(target, ast.Name):
            # A rebound parameter name no longer aliases the caller's
            # object (``p = deep_copy(p)`` is the sanctioned pattern):
            # later mutations through it are not parameter mutations.
            self.param_index.pop(target.id, None)
            if taint is None:
                self._taint.pop(target.id, None)
            else:
                self._taint[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, taint, held)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._store(target, held, "item/attribute assignment")

    def _store(self, target: ast.expr, held: tuple[str, ...], action: str) -> None:
        """An in-place write (``x.a = v``, ``x[k] += v``, ``x += v``): a
        mutation of whatever name roots the target, and a write of
        ``self.<attr>`` when that is what (possibly under subscripts,
        ``self.d[k] = v``) is assigned."""
        self._mutation(target, action)
        attribute = target
        while isinstance(attribute, ast.Subscript):
            attribute = attribute.value
        written = None
        if self.class_name is not None and _is_self_attribute(attribute):
            written = attribute
            self.accesses.append(
                SelfAccess(
                    target.lineno, target.col_offset + 1, attribute.attr,
                    write=True, locked=SELF_LOCK in held,
                )
            )
        self._expression(target, held, skip=written)

    def _mutation(self, target: ast.expr, action: str) -> None:
        """Record an in-place mutation through ``target`` against the name
        that roots it: a parameter (for the interprocedural fixpoint)
        and/or a ``copy=False`` reference (a MUT001 event)."""
        root: ast.AST = target
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if not isinstance(root, ast.Name):
            return
        through = root is not target  # False only for ``name += ...``
        index = self.param_index.get(root.id)
        if index is not None and through:
            self.mutated.setdefault(index, target.lineno)
        taint = self._taint.get(root.id)
        if taint is not None and taint[1] == "ref":
            self.taint_mutations.append(
                TaintMutation(
                    target.lineno, target.col_offset + 1, action, root.id,
                    read_line=taint[0], through=through,
                )
            )

    # ------------------------------------------------------------ expressions

    def _expression(
        self,
        node: ast.expr,
        held: tuple[str, ...],
        skip: Optional[ast.AST] = None,
    ) -> None:
        """Collect every call and ``self.<attr>`` read in an expression
        tree, lambda and comprehension bodies included (``skip`` is the
        attribute node the caller already recorded as a write)."""
        in_class = self.class_name is not None
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._record_call(child, held)
            elif in_class and child is not skip and _is_self_attribute(child):
                self.accesses.append(
                    SelfAccess(
                        child.lineno, child.col_offset + 1, child.attr,
                        write=False, locked=SELF_LOCK in held,
                    )
                )

    def _record_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        chain = attribute_chain(node.func)
        dotted: Optional[str] = None
        root = chain[0]
        if root != OPAQUE_ROOT and root in self.imports:
            dotted = ".".join((self.imports[root], *chain[1:]))
        tainted: list[int] = []
        param_args: list[tuple[int, int]] = []
        for position, argument in enumerate(node.args):
            if isinstance(argument, ast.Name):
                taint = self._taint.get(argument.id)
                if taint is not None and taint[1] == "ref":
                    tainted.append(position)
                param = self.param_index.get(argument.id)
                if param is not None:
                    param_args.append((position, param))
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
        ):
            self._mutation(node.func, f"mutating call .{node.func.attr}()")
        self.calls.append(
            CallSite(
                line=node.lineno,
                col=node.col_offset + 1,
                chain=chain,
                dotted=dotted,
                tainted_args=tuple(tainted),
                param_args=tuple(param_args),
                held_locks=held,
            )
        )

    # ------------------------------------------------------------- definitions

    def _qualname_of(self, name: str, owner: Optional[ClassSummary]) -> str:
        """Qualname of a definition in this scope (in ``owner``'s body)."""
        if owner is not None:
            return f"{owner.name}.{name}"
        return f"{self._prefix}{name}"

    def summarize(self, name: str, line: int, col: int) -> FunctionSummary:
        """The walked scope's summary; indexes the queued ``def``s first."""
        for node, owner in self._deferred:
            child_qualname = self._qualname_of(node.name, owner)
            child = _index_function(
                self.module,
                self.imports,
                node,
                child_qualname,
                owner.name if owner is not None else self.class_name,
                is_method=owner is not None,
            )
            if owner is not None:
                owner.methods[node.name] = child
            else:
                self.module.functions[child_qualname] = child
        return FunctionSummary(
            name=name,
            qualname=self.qualname,
            line=line,
            col=col,
            params=self.params,
            calls=tuple(self.calls),
            lock_acquires=tuple(self.acquires),
            mutated_params=tuple(sorted(self.mutated.items())),
            taint_mutations=tuple(self.taint_mutations),
            self_accesses=tuple(self.accesses),
            class_name=self.class_name,
        )


def _index_function(
    module: ModuleSummary,
    imports: dict[str, str],
    node: _FunctionNode,
    qualname: str,
    class_name: Optional[str],
    is_method: bool,
) -> FunctionSummary:
    arguments = node.args
    params = tuple(a.arg for a in (*arguments.posonlyargs, *arguments.args))
    indexer = _ScopeIndexer(module, imports, qualname, params, class_name)
    # The *_locked suffix is the repo's caller-holds-the-lock convention
    # (see MUT004): treat the whole method body as holding self._lock.
    held = (SELF_LOCK,) if is_method and node.name.endswith("_locked") else ()
    indexer.walk(node.body, held)
    return indexer.summarize(node.name, node.lineno, node.col_offset + 1)


def index_module(lint_file: LintFile) -> ModuleSummary:
    """Distill one parsed file into its :class:`ModuleSummary`."""
    summary = ModuleSummary(
        module=module_name_for(lint_file.relparts),
        path=lint_file.path,
        relparts=lint_file.relparts,
    )
    indexer = _ScopeIndexer(summary, summary.imports, MODULE_SCOPE, (), None)
    indexer.walk(lint_file.tree.body, ())
    summary.functions[MODULE_SCOPE] = indexer.summarize(MODULE_SCOPE, 1, 1)
    return summary
