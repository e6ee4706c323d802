"""Summary consumers: transport purity (MUT002 + MUT006) and the informer
contract (MUT001).

Both checkers read the facts pass 1 (:mod:`repro.lint.symbols`) recorded
per function and extend them across function boundaries through the call
graph; neither touches an AST.

Transport purity is **one checker with one banned-primitive predicate and
one scope function**.  PR 4 extracted the
:class:`~repro.core.transport.ShardTransport` contract precisely so the
store, lease, federation, and service layers never touch bytes directly:
a direct ``open()``/``os.rename()``/``http.client`` call in those layers
reopens every bug the transport closed — non-atomic writes, torn shards,
leases that double-claim under retry.  Every call site inside a scoped
function is resolved; a raw-I/O primitive written right there (zero hops)
is MUT002 at the primitive, and a call into a project function with a
transitive path to one (one or more hops) is MUT006 at the *call site*,
with the full chain, because the caller is where the contract is violated
and the chain is what makes the finding actionable.

To avoid double-reporting, MUT006 only fires when the terminal primitive
lives *outside* the scope (inside it, the primitive itself is already
MUT002).  The transport implementations (``core/transport.py``,
``core/objstore.py``) are the contract's sanctioned floor: out of scope by
construction, and chains are never followed into them.

MUT001 likewise reports both ends of one contract: the in-place mutations
pass 1 saw through a ``copy=False``-tainted name, and a tainted reference
passed positionally into a project function that mutates — directly or
transitively — the receiving parameter.
"""

from __future__ import annotations

from typing import ClassVar, Iterable, Iterator, Mapping, Optional, Sequence

from repro.lint.callgraph import EXTERNAL, PROJECT, ProjectGraph, Resolution
from repro.lint.dataflow import (
    Reachability,
    call_chain_message,
    callee_param_for_arg,
    mutated_param_set,
    site_suppressed,
)
from repro.lint.framework import Diagnostic, Suppression
from repro.lint.symbols import CallSite, ImportSite

#: ``suppressions_by_path`` shape handed to every graph checker.
SuppressionMap = Mapping[str, Sequence[Suppression]]

#: Files / packages the purity contract covers (repro-package-relative).
SCOPE_FILES = frozenset(
    {
        ("core", "resultstore.py"),
        ("core", "distributed.py"),
        ("core", "federate.py"),
    }
)
SCOPE_DIRS = frozenset({"service"})

#: Modules whose functions are the storage contract's implementation floor
#: (never descended into — their raw I/O is the point).
EXEMPT_TAILS = frozenset({("core", "transport.py"), ("core", "objstore.py")})

#: ``os`` functions that create, destroy, or rewrite filesystem state.
BANNED_OS = frozenset(
    {
        "remove", "rename", "unlink", "replace", "rmdir", "removedirs",
        "mkdir", "makedirs", "open", "write", "truncate", "fsync",
        "link", "symlink",
    }
)

#: Fully dotted callables that bypass the transport.
BANNED_DOTTED = frozenset(
    {
        "gzip.open", "io.open", "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryFile", "tempfile.mkstemp",
    }
)

#: Modules whose import alone marks a bypass: any use is raw I/O — or, for
#: ``pickle``, a second serialization that executes what it decodes.
BANNED_MODULES = frozenset({"shutil", "http.client", "urllib.request", "pickle"})

_BANNED_PREFIXES = ("shutil.", "http.client.", "urllib.request.", "pickle.")

_IMPORT_TAIL = (
    " in a transport-pure module; storage I/O must go through the "
    "ShardTransport contract"
)


class GraphChecker:
    """Base of the summary consumers: run once over the project graph (not
    per file), return diagnostics anchored wherever the defect is.

    ``suppressions`` maps file path → parsed inline suppressions; checkers
    use it for *terminal-site* decisions (a justified suppression recorded
    at the banned primitive covers every chain reaching it — the runner
    separately applies suppressions at the finding's own line).
    """

    #: ``code -> (title, explanation)`` for every code the checker emits.
    docs: ClassVar[Mapping[str, tuple[str, str]]] = {}

    def run(
        self, graph: ProjectGraph, suppressions: SuppressionMap
    ) -> list[Diagnostic]:
        raise NotImplementedError


def in_purity_scope(relparts: tuple[str, ...]) -> bool:
    if tuple(relparts[-2:]) in SCOPE_FILES:
        return True
    return bool(relparts) and relparts[0] in SCOPE_DIRS


def _is_exempt(relparts: tuple[str, ...]) -> bool:
    return tuple(relparts[-2:]) in EXEMPT_TAILS


def raw_io_label(call: CallSite, resolution: Resolution) -> Optional[str]:
    """The banned-primitive set, expressed over a summarized call."""
    if resolution.kind != EXTERNAL:
        return None
    dotted = resolution.target
    if dotted == "open":
        return "open()"
    if dotted.startswith("os.") and dotted.split(".", 1)[1] in BANNED_OS:
        return f"{dotted}()"
    if dotted in BANNED_DOTTED or dotted in BANNED_MODULES:
        return f"{dotted}()"
    if dotted.startswith(_BANNED_PREFIXES):
        return f"{dotted}()"
    return None


def _direct_io_message(label: str) -> str:
    if label == "open()":
        advice = "read/write through the ShardTransport contract instead"
    elif label.startswith("os."):
        advice = "storage mutation belongs behind the ShardTransport contract"
    else:
        advice = "storage I/O belongs behind the ShardTransport contract"
    return f"direct {label} in a transport-pure module; {advice}"


class TransportPurityChecker(GraphChecker):
    docs = {
        "MUT002": (
            "Direct storage I/O bypassing the ShardTransport contract",
            """\
Contract (PR 4/5): every byte the shard store, the slice leases, the
federation merge, or the campaign service persists or reads travels through
the `ShardTransport` contract (`put`, `put_if_absent`,
`get`/`get_with_stat`, `list`/`list_iter`, `stat` with generation tokens,
`delete`/`delete_if_unchanged`, `refresh`, `append`).  The transports own
atomicity (fsync'd temp-file renames on POSIX, conditional HTTP on the
object store) and the documented retried-request-ambiguity rules — the
regression class PR 5 swept (a retried `delete_if_unchanged` walking away
from a slice it freed, a dropped `refresh` response surrendering a live
lease).

A direct `open()`, `os.remove`/`os.rename`, `shutil.*`, `gzip.open`, or
raw `http.client` call in `core/resultstore.py`, `core/distributed.py`,
`core/federate.py`, or `service/` silently forks the storage semantics:
the write is no longer atomic, no longer conditional, invisible to the
object-store backend, and exempt from the ambiguity rules.  Such code
works on a developer laptop and corrupts stores on NFS or under retry.

`pickle` is banned in the same files for the other half of the contract:
the bytes a transport returns were written by whoever can reach the store
(over HTTP for `objstore://`), and unpickling them runs their code in the
worker, the coordinator and the service.  Campaign objects cross the store
only as the canonical JSON of the codec in `core/resultstore.py` (PR 22),
which is also what every fingerprint hashes.

Correct pattern: take a `transport_for(root)` (or the store's
`.transport`) and express the operation in the contract; if an operation
genuinely cannot be expressed, extend the transport contract — in
`core/transport.py`, where both backends and the fault-injection proxy
implement it once.

Out of scope by construction: `core/transport.py` and `core/objstore.py`
(the implementations), and non-storage modules.  Intentional raw-HTTP
sites that are *not* storage (the service's control-plane client) carry a
justified inline suppression.
""",
        ),
        "MUT006": (
            "Call chain from a transport-pure module reaching raw storage I/O",
            """\
Contract (PR 4/5, extended by PR 10): every byte the shard store, leases,
federation, or campaign service touches travels through the ShardTransport
contract — and that must hold *transitively*.  MUT002 bans the direct
`open()`/`os.remove`/raw-HTTP call inside `core/resultstore.py`,
`core/distributed.py`, `core/federate.py`, and `service/`; MUT006 closes
the hole MUT002 documented: a helper function — same file or any other
module — that performs the raw I/O on the scoped module's behalf.

The whole-program pass indexes every module, builds a conservative call
graph (direct calls, `self.`/`cls.` resolution through the class
hierarchy, imported project symbols), and searches every call site inside
a scoped function for a path to a raw-I/O primitive.  The finding lands at
the call site in the scoped module and prints the full chain, e.g.

    call into 'dump_index' reaches raw storage I/O:
    helpers.dump_index (core/helpers.py:12) -> open() (core/helpers.py:14)

Only chains whose terminal primitive lies *outside* MUT002's scope are
reported (inside scope the primitive itself is already a MUT002 finding),
and chains are never followed into `core/transport.py` / `core/objstore.py`
— the implementations are the contract's sanctioned floor.

Correct pattern: express the helper's operation in the ShardTransport
contract and pass it a transport (or extend the contract in `core/transport.py`, where both
backends and the fault-injection proxy implement it once).
""",
        ),
    }

    def run(
        self, graph: ProjectGraph, suppressions: SuppressionMap
    ) -> list[Diagnostic]:
        findings: list[Diagnostic] = []

        def banned(ref, call, resolution):
            label = raw_io_label(call, resolution)
            if label is None:
                return None
            if in_purity_scope(ref.relparts):
                # An in-scope primitive is already a MUT002 finding at its
                # own line; reporting every chain into it would double-count
                # one defect.
                return None
            if site_suppressed(
                suppressions, ref.path, call.line,
                frozenset({"MUT002", "MUT006"}),
            ):
                # The primitive site carries a recorded decision (the
                # control-plane client's non-storage HTTP, say): the
                # decision covers the chains that reach it.
                return None
            return label

        reach = Reachability(
            graph,
            banned=banned,
            exempt=lambda ref: _is_exempt(ref.relparts),
        )
        for module in graph.modules.values():
            if in_purity_scope(module.relparts):
                findings.extend(
                    Diagnostic(module.path, line, col, "MUT002", what + _IMPORT_TAIL)
                    for line, col, what in _banned_imports(module.import_sites)
                )
        for ref in graph.all_functions():
            if not in_purity_scope(ref.relparts):
                continue
            module = graph.modules[ref.module]
            for call in ref.summary.calls:
                resolution = graph.resolve(module, ref.summary, call)
                label = raw_io_label(call, resolution)
                if label is not None:
                    findings.append(
                        Diagnostic(
                            ref.path, call.line, call.col, "MUT002",
                            _direct_io_message(label),
                        )
                    )
                    continue
                if resolution.kind != PROJECT:
                    continue
                callee = graph.functions[resolution.target]
                if _is_exempt(callee.relparts):
                    continue
                downstream = reach.chain_from(resolution.target)
                if downstream is None:
                    continue
                chain = call_chain_message(
                    graph, ref, call, resolution.target, downstream
                )
                findings.append(
                    Diagnostic(
                        path=ref.path,
                        line=call.line,
                        column=call.col,
                        code="MUT006",
                        message=(
                            f"call into {callee.summary.qualname!r} reaches raw "
                            f"storage I/O bypassing the ShardTransport contract; "
                            f"call chain: {chain}"
                        ),
                    )
                )
        return findings


def _banned_imports(
    sites: Iterable[ImportSite],
) -> Iterator[tuple[int, int, str]]:
    """``(line, col, what)`` for every import that alone marks a bypass."""
    for site in sites:
        if site.module is None:
            for name in site.names:
                if name in BANNED_MODULES:
                    yield site.line, site.col, f"import of {name!r}"
            continue
        if site.module in BANNED_MODULES:
            yield site.line, site.col, f"import from {site.module!r}"
        if site.module == "http" and "client" in site.names:
            yield site.line, site.col, "import of 'http.client'"
        if site.module == "os":
            for name in site.names:
                if name in BANNED_OS:
                    yield site.line, site.col, f"import of 'os.{name}'"


class InformerMutationChecker(GraphChecker):
    docs = {
        "MUT001": (
            "Mutation of a copy=False informer cache reference",
            """\
Contract (PR 6): `APIServer.get`/`list` and the client wrappers return
*references into the apiserver watch cache* when called with `copy=False`.
Those objects are shared by every controller, the metrics scraper, the
network layer, and the injector's field recorder; they are immutable by
convention — all legitimate writes replace the cached entry wholesale
through `client.update(...)`/`update_status(...)`.

Mutating a cache reference in place bypasses the apiserver entirely: no
revision bump, no watch event, no admission/validation pass — every other
reader sees the edit immediately and the campaign digest diverges from the
serial baseline in a way nothing logs.  This is exactly the silent
cross-layer contract violation the Mutiny paper (DSN 2024) documents as the
dominant Kubernetes failure pattern.

Correct pattern — copy at the mutation point, then write back:

    pod = deep_copy(pod)          # listed refs are read-only
    pod["metadata"]["ownerReferences"].append(ref)
    client.update("Pod", pod)

The checker taints names bound from `.get(..., copy=False)` /
`.list(..., copy=False)` calls (and loop variables iterating them) and
flags attribute/item assignment, `del`, augmented assignment, and mutating
method calls (`append`, `update`, `setdefault`, ...) through them.
Rebinding a name via `deep_copy(...)` clears its taint.  The analysis is
per-function and lexical; taint does not cross call boundaries.
""",
        ),
    }

    def run(
        self, graph: ProjectGraph, suppressions: SuppressionMap
    ) -> list[Diagnostic]:
        findings: list[Diagnostic] = []
        mutated = mutated_param_set(graph)
        for ref in graph.all_functions():
            for event in ref.summary.taint_mutations:
                reference = (
                    f"{event.name!r}, a copy=False informer cache reference "
                    f"(read at line {event.read_line}); "
                )
                if event.through:
                    message = (
                        f"{event.action} through {reference}deep_copy() it "
                        "before mutating, then write back via the apiserver"
                    )
                else:
                    message = f"{event.action} to {reference}deep_copy() it first"
                findings.append(
                    Diagnostic(ref.path, event.line, event.col, "MUT001", message)
                )
            module = graph.modules[ref.module]
            for call in ref.summary.calls:
                if not call.tainted_args:
                    continue
                resolution = graph.resolve(module, ref.summary, call)
                for position in call.tainted_args:
                    mapped = callee_param_for_arg(graph, resolution, position)
                    if mapped is None or mapped not in mutated:
                        continue
                    callee = graph.functions[mapped[0]]
                    findings.append(
                        Diagnostic(
                            path=ref.path,
                            line=call.line,
                            column=call.col,
                            code="MUT001",
                            message=(
                                f"copy=False informer cache reference passed to "
                                f"{callee.summary.qualname!r}, which mutates its "
                                f"parameter {callee.summary.params[mapped[1]]!r} "
                                f"(at {'/'.join(callee.relparts)}:{mutated[mapped]}); "
                                "deep_copy() before the call, or make the helper "
                                "copy-on-write"
                            ),
                        )
                    )
        return findings
