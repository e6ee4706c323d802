"""What the service remembers about one campaign's store between requests.

Every ``/v1`` read is answered from the store, and a request that builds a
cold :class:`~repro.core.resultstore.ShardedResultStore` re-downloads every
shard to learn what it already learned on the previous poll.  A
:class:`StoreView` keeps, per managed campaign, the three things worth
keeping: the per-shard index lists, the finished document's bytes, and the
published plan's size.

All three are *derived* and never authoritative.  Each is keyed by the
generation tokens the store itself reports — the shard cache per ``(shard
key, generation)``, the document by the whole listing's pairs, the plan by
``PLAN.json``'s generation — and every request re-validates its key with one
listing plus one stat per object before trusting the value, so a shard that
lands, or is rewritten under a new generation, is reflected by the next
answer.  Nothing here is persisted: a restarted service starts empty and
rebuilds by scanning, which is why the statelessness argument of
:mod:`repro.service.server` is unchanged.  Decoded shards are never held.

The lock guards the three attributes only; every transport round trip runs
outside it, on a private store instance and a private copy of the shard
cache, so concurrent polls never wait on each other's I/O (at worst two of
them fetch the same new shard).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.campaign import CampaignResult
from repro.core.distributed import DistributedPlanError, load_plan, plan_generation
from repro.core.report import document_to_bytes, store_document, tables_document
from repro.core.resultstore import ShardedResultStore
from repro.core.transport import TransportError, TransportKeyError


class StoreView:
    """Generation-validated read cache over one campaign's result store."""

    # Guarded by self._lock (enforced by mutiny-lint MUT004): read and
    # replaced by every handler thread polling this campaign.
    _lock_guarded = ("_shard_cache", "_document", "_plan")

    def __init__(self, root: str):
        self.root = root
        self._lock = threading.Lock()
        #: shard key -> (generation, record indexes), as the store parses it.
        self._shard_cache: dict[str, tuple[str, list[int]]] = {}
        #: (the listing's (shard key, generation) pairs, document bytes).
        self._document: Optional[tuple[tuple, bytes]] = None
        #: (PLAN.json generation, {"total", "slices"}).
        self._plan: Optional[tuple[str, dict]] = None

    def _open(self) -> ShardedResultStore:
        """A private store instance for one request, seeded with a copy of
        the shard cache (no I/O yet)."""
        with self._lock:
            cache = dict(self._shard_cache)
        return ShardedResultStore(self.root, shard_cache=cache)

    def _scan(self, store: ShardedResultStore) -> tuple[tuple[str, str], ...]:
        """Scan ``store`` — one LIST, one HEAD per shard, a GET of only the
        shards whose generation no earlier request parsed — keep what it
        parsed, and return the listing's ``(shard key, generation)`` pairs."""
        scanned = store.shard_generations()
        with self._lock:
            self._shard_cache = {key: store.shard_cache[key] for key, _ in scanned}
        return scanned

    def progress(self) -> dict:
        """Completed/total/stored-record counts of the store, tolerating one
        that no worker has created yet (everything ``0``/``None`` then)."""
        store = self._open()
        try:
            manifest = store.manifest()
        except (TransportKeyError, KeyError):
            return {"completed": 0, "total": None, "stored_records": 0}
        self._scan(store)
        return {
            "completed": store.record_count(),
            "total": manifest.get("total"),
            "stored_records": store.stored_record_count(),
        }

    def complete(self) -> bool:
        """Whether the store already holds every planned experiment."""
        try:
            progress = self.progress()
        except TransportError:
            return False
        total = progress["total"]
        return isinstance(total, int) and progress["completed"] >= total

    def document(self) -> Optional[bytes]:
        """The canonical inspect document's bytes, or ``None`` while the
        store has no manifest.  Folded once per distinct listing: a repeat
        fetch of an unchanged store costs the validating scan and no GET."""
        store = self._open()
        if not store.has_manifest():
            return None
        scanned = self._scan(store)
        with self._lock:
            memo = self._document
        if memo is None or memo[0] != scanned:
            memo = (scanned, document_to_bytes(store_document(store)))
            with self._lock:
                self._document = memo
        return memo[1]

    def tables(self) -> Optional[dict]:
        """The paper's tables document, or ``None`` without a manifest."""
        store = self._open()
        if not store.has_manifest():
            return None
        self._scan(store)
        return tables_document(CampaignResult(results=store.all_results()))

    def plan_summary(self) -> Optional[dict]:
        """``{"total", "slices"}`` of the published plan, re-read (a GET and
        a decode of every task and baseline) only when ``PLAN.json`` shows
        a new generation.  ``None`` when no plan is published — or it is
        unreadable or unreachable, which the run itself reports, not polls."""
        try:
            generation = plan_generation(self.root)
            if generation is None:
                return None
            with self._lock:
                memo = self._plan
            if memo is None or memo[0] != generation:
                plan = load_plan(self.root)
                if plan is None:
                    return None
                memo = (generation, {"total": plan.total, "slices": len(plan.slices())})
                with self._lock:
                    self._plan = memo
            return memo[1]
        except (DistributedPlanError, TransportError):
            return None
