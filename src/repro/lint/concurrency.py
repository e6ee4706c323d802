"""Lock-family summary consumers: MUT004 lock discipline, MUT007
blocking-under-lock and MUT008 lock-order.

All three consume the lock facts pass 1 records on every
:class:`~repro.lint.symbols.FunctionSummary` — every ``self.<attr>`` access
with whether ``self._lock`` is held, which locks are lexically held at each
call site, and where locks are acquired while others are held — and
MUT007/MUT008 extend them across function boundaries through the call graph.

The lock model is the lexical one the repo standardizes on:
``with self.<attr>:`` where the attribute names a lock, module-level
``with LOCK_NAME:``, and the ``*_locked`` suffix meaning "caller holds
``self._lock``".  A ``def`` nested in a method runs later, on whichever
thread calls it, so it starts with an empty lock context.  Locks acquired
through other receivers are out of the model and out of scope — the point
is to guard the handful of service/store classes the ROADMAP grows, not to
be a general race detector.

MUT004 turns the ``self._lock`` convention of the threaded classes into a
*declaration* the linter enforces: a class opts in with
``_lock_guarded = ("_campaigns",)`` (or ``()`` for frozen-after-init), and
every recorded ``self.<attr>`` access of its methods is held to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lint.callgraph import (
    EXTERNAL,
    PROJECT,
    FunctionRef,
    ProjectGraph,
    Resolution,
)
from repro.lint.dataflow import Reachability, call_chain_message, site_suppressed
from repro.lint.framework import Diagnostic
from repro.lint.purity_graph import GraphChecker, SuppressionMap
from repro.lint.symbols import SELF_LOCK, CallSite

#: The ShardTransport contract ops (each is a storage round-trip: disk
#: fsync on POSIX, a conditional HTTP request on the object store).
TRANSPORT_OPS = frozenset(
    {
        "put", "put_if_absent", "get", "get_with_stat", "list", "list_iter",
        "stat", "delete", "delete_if_unchanged", "refresh", "append",
    }
)

#: Dotted externals that block the calling thread outright.
BLOCKING_EXACT = frozenset({"time.sleep"})
BLOCKING_PREFIXES = (
    "subprocess.",
    "socket.",
    "http.client.",
    "urllib.request.",
    "requests.",
)


def blocking_label(call: CallSite, resolution: Resolution) -> Optional[str]:
    """A short label when the call site is a blocking primitive, else None.

    Two lexical heuristics ride on the chain itself (so unknown callees
    cannot silently pass): a contract-op method call whose receiver chain
    mentions ``transport`` (``self._transport.put(...)`` — a storage
    round-trip), and ``.join()`` on a thread-ish receiver
    (``self._thread.join()``; ``str.join``/``os.path.join`` have no
    thread-named receiver and stay clean).
    """
    if resolution.kind == EXTERNAL:
        dotted = resolution.target
        if dotted in BLOCKING_EXACT or dotted.startswith(BLOCKING_PREFIXES):
            return f"{dotted}()"
    chain = call.chain
    if len(chain) >= 2:
        receiver = chain[:-1]
        if chain[-1] in TRANSPORT_OPS and any(
            "transport" in part.lower() for part in receiver
        ):
            return f"transport {chain[-1]}()"
        if chain[-1] == "join" and any(
            "thread" in part.lower() for part in receiver
        ):
            return f"{'.'.join(chain)}() (Thread.join)"
    return None


def _display_lock(token: str) -> str:
    return token[2:] if token.startswith("G:") else token


class LockDisciplineChecker(GraphChecker):
    docs = {
        "MUT004": (
            "Registered lock-guarded attribute accessed off the lock",
            """\
Contract (PR 5/7): the threaded classes — `CampaignService` (one registry
mutated by every concurrent HTTP handler thread plus the rehydration
thread), `CampaignHandle` (state shared between the caller and a background
campaign thread), `BatchedShardWriter` (a worker loop's open shard group),
`SliceLeases` (shared with the heartbeat thread) — keep their mutable state
consistent by taking `self._lock` around every access.  PR 5 fixed exactly
this bug class in the heartbeat path; this checker keeps it fixed.

A class registers its guarded attributes:

    class CampaignHandle:
        _lock_guarded = ("_state", "_error", "_thread")

and the checker then enforces, in every method:

  * registered attributes are read/written only inside `with self._lock:`
    (lexically; `__init__` and `*_locked`-suffixed methods are exempt —
    the former runs before the object is shared, the latter documents
    caller-holds-the-lock);
  * no unregistered `self.<attr>` is *assigned* outside `__init__` —
    threaded-class state is registered and guarded, or it is immutable;
  * `_lock_guarded = ()` declares a frozen-after-init class (the contract
    that lets `SliceLeases` be shared lock-free with the heartbeat
    thread).

Correct pattern for publishing state computed outside the lock:

    thread = threading.Thread(target=..., daemon=True)
    with self._lock:
        if self._thread is not None:
            return self
        self._thread = thread
    thread.start()      # local name: no off-lock attribute read

The check is lexical containment, not an escape analysis: a closure built
under the lock but called later still passes.  Thread-safe primitives
(`threading.Event`, queues) need no registration — their methods are their
lock.
""",
        ),
    }

    def run(
        self, graph: ProjectGraph, suppressions: SuppressionMap
    ) -> list[Diagnostic]:
        findings: list[Diagnostic] = []
        for ref in graph.all_functions():
            summary = ref.summary
            if summary.class_name is None:
                continue
            klass = graph.modules[ref.module].classes[summary.class_name]
            guarded = klass.lock_guarded
            if guarded is None:
                continue
            # A def nested in __init__ keeps its right to assign but not
            # its exemption from the lock — it may run on any thread.
            in_init = summary.method_name == "__init__"
            unshared = in_init and summary.is_method
            for access in summary.self_accesses:
                if access.attr in guarded:
                    if access.locked or unshared:
                        continue
                    message = (
                        f"{'write to' if access.write else 'read of'} lock-guarded "
                        f"attribute 'self.{access.attr}' outside 'with {SELF_LOCK}'"
                    )
                elif access.write and not in_init and access.attr != "_lock":
                    message = (
                        f"assignment to unregistered attribute 'self.{access.attr}' "
                        "outside __init__ in a lock-disciplined class; register it "
                        "in _lock_guarded (and guard it) or set it in __init__ only"
                    )
                else:
                    continue
                findings.append(
                    Diagnostic(ref.path, access.line, access.col, "MUT004", message)
                )
        return findings


class BlockingUnderLockChecker(GraphChecker):
    docs = {
        "MUT007": (
            "Blocking call while holding a lock",
            """\
Contract: the service and store locks (`CampaignService._lock`,
`BatchedShardWriter._lock`, the handle locks) serialize *state updates*,
never I/O.  A `time.sleep`, a ShardTransport contract round-trip (disk fsync
or conditional HTTP), `subprocess`, socket/HTTP traffic, or `Thread.join`
executed while holding `self._lock` stalls every other thread that needs
the lock for the full duration of the slow operation — the
latent-deadlock/latency class the Mutiny paper observed in real control
planes (a controller wedged behind a peer's slow write).  `Thread.join`
under a lock the joined thread may itself want is a textbook deadlock.

MUT007 flags blocking primitives at call sites whose lexical lock context
(`with self._lock:` containment, or the `*_locked` caller-holds-the-lock
naming convention) is non-empty — and, through the call graph, calls into
project functions whose bodies transitively reach a blocking primitive,
with the full chain printed in the finding.

Correct pattern: compute and decide under the lock, perform I/O outside
it.  Snapshot the state you need, release the lock, do the round-trip,
re-acquire to publish the outcome (re-validating anything that may have
changed).  Where a design genuinely serializes round-trips under its lock
(the batched writer's generation chaining), say so with a justified
inline suppression — that is a recorded decision, not a silent one.
""",
        ),
    }

    def run(
        self, graph: ProjectGraph, suppressions: SuppressionMap
    ) -> list[Diagnostic]:
        findings: list[Diagnostic] = []

        def banned(ref, call, resolution):
            label = blocking_label(call, resolution)
            if label is not None and site_suppressed(
                suppressions, ref.path, call.line, frozenset({"MUT007"})
            ):
                # A justified suppression at the blocking site is a
                # recorded design decision; chains reaching it inherit it.
                return None
            return label

        reach = Reachability(
            graph,
            banned=banned,
            # *_locked bodies carry held-lock context of their own, so any
            # blocking call inside them is reported there directly —
            # descending from callers would double-report it.
            exempt=lambda ref: ref.summary.name.endswith("_locked"),
        )
        for ref in graph.all_functions():
            module = graph.modules[ref.module]
            for call in ref.summary.calls:
                if not call.held_locks:
                    continue
                held = _display_lock(call.held_locks[-1])
                resolution = graph.resolve(module, ref.summary, call)
                label = blocking_label(call, resolution)
                if label is not None:
                    findings.append(
                        Diagnostic(
                            path=ref.path,
                            line=call.line,
                            column=call.col,
                            code="MUT007",
                            message=(
                                f"blocking {label} while holding {held}; "
                                "compute under the lock, do I/O outside it"
                            ),
                        )
                    )
                    continue
                if resolution.kind != PROJECT:
                    continue
                callee = graph.functions[resolution.target]
                if callee.summary.name.endswith("_locked"):
                    continue  # its body self-reports (see exempt above)
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
                        code="MUT007",
                        message=(
                            f"call into {callee.summary.qualname!r} while "
                            f"holding {held} reaches blocking "
                            f"{downstream[-1].description}; call chain: {chain}"
                        ),
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# MUT008 — lock-order cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Edge:
    """First-seen acquisition site witnessing ``first -> second``."""

    path: str
    line: int
    col: int


def _qualify(token: str, ref: FunctionRef) -> str:
    """Globally unique lock identity for a lexical token.

    ``self.<attr>`` is per-*class* state: the same token in two classes is
    two different locks.  Module-level locks are per-module.
    """
    if token.startswith("self.") and ref.summary.class_name is not None:
        return f"{ref.module}:{ref.summary.class_name}{token[len('self'):]}"
    if token.startswith("G:"):
        return f"{ref.module}:{token[2:]}"
    return f"{ref.module}:{token}"


def _pretty(qualified: str) -> str:
    return qualified.rsplit(":", 1)[-1]


class _AcquiredLocks:
    """Memoized "which locks may this function acquire, transitively?"."""

    def __init__(self, graph: ProjectGraph):
        self.graph = graph
        self._memo: dict[str, frozenset[str]] = {}
        self._on_stack: set[str] = set()

    def of(self, fid: str) -> frozenset[str]:
        if fid in self._memo:
            return self._memo[fid]
        if fid in self._on_stack:
            return frozenset()  # recursion adds no new acquisitions
        ref = self.graph.functions.get(fid)
        if ref is None:
            return frozenset()
        self._on_stack.add(fid)
        try:
            acquired = {
                _qualify(acquire.lock, ref)
                for acquire in ref.summary.lock_acquires
            }
            module = self.graph.modules[ref.module]
            for call in ref.summary.calls:
                resolution = self.graph.resolve(module, ref.summary, call)
                if resolution.kind == PROJECT:
                    acquired |= self.of(resolution.target)
        finally:
            self._on_stack.discard(fid)
        result = frozenset(acquired)
        self._memo[fid] = result
        return result


class LockOrderChecker(GraphChecker):
    docs = {
        "MUT008": (
            "Two locks acquired in both orders (deadlock-capable cycle)",
            """\
Contract: whenever two locks are ever held together, every code path
acquires them in one global order.  Two threads taking lock A then B and
B then A respectively can each grab their first lock and wait forever on
the second — the classic deadlock, and precisely the failure mode that
turns a slow control plane into a wedged one (the Mutiny campaigns class
this as a crash-equivalent: the component stops making progress but keeps
its liveness signals).

MUT008 derives the lock-acquisition order graph for the whole tree: an
edge A -> B is recorded whenever B is acquired while A is held — within
one function body (`with self._lock: ... with self._other_lock:`) or
across functions (a call made under A into a function whose body,
transitively through the call graph, acquires B).  `self.<attr>` locks
are per-class identities; module-level locks per-module.  Any pair of
locks with edges in both directions is reported at both witnessing
acquisition sites.

Correct pattern: pick the order (document it on the outer lock's owner),
or collapse to one lock, or restructure so the second acquisition happens
after the first lock is released — holding two locks at once is almost
always a design smell in this codebase's size of critical sections.
""",
        ),
    }

    def run(
        self, graph: ProjectGraph, suppressions: SuppressionMap
    ) -> list[Diagnostic]:
        edges: dict[tuple[str, str], _Edge] = {}
        acquired = _AcquiredLocks(graph)

        def record(first: str, second: str, path: str, line: int, col: int) -> None:
            if first == second:
                return  # re-entry of one lock is not an ordering edge
            edges.setdefault((first, second), _Edge(path, line, col))

        for ref in graph.all_functions():
            module = graph.modules[ref.module]
            for acquire in ref.summary.lock_acquires:
                lock = _qualify(acquire.lock, ref)
                for held in acquire.held:
                    record(
                        _qualify(held, ref), lock,
                        ref.path, acquire.line, acquire.col,
                    )
            for call in ref.summary.calls:
                if not call.held_locks:
                    continue
                resolution = graph.resolve(module, ref.summary, call)
                if resolution.kind != PROJECT:
                    continue
                for lock in sorted(acquired.of(resolution.target)):
                    for held in call.held_locks:
                        record(
                            _qualify(held, ref), lock,
                            ref.path, call.line, call.col,
                        )

        findings: list[Diagnostic] = []
        for (first, second), edge in sorted(edges.items()):
            reverse = edges.get((second, first))
            if reverse is None:
                continue
            findings.append(
                Diagnostic(
                    path=edge.path,
                    line=edge.line,
                    column=edge.col,
                    code="MUT008",
                    message=(
                        f"lock-order cycle: {_pretty(second)} is acquired "
                        f"while holding {_pretty(first)} here, but "
                        f"{_pretty(first)} is acquired while holding "
                        f"{_pretty(second)} at {reverse.path}:{reverse.line}; "
                        "pick one global order for this lock pair"
                    ),
                )
            )
        return findings
