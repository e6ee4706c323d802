"""The Apiserver request path and watch hub.

Two properties matter for the fault-injection study and are modelled
faithfully:

* **Acknowledge now, reconcile later** (paper F4).  A write is acknowledged
  as soon as it is validated and persisted; whether the cluster ever reaches
  the requested state is decided later by the controllers.  The request log
  kept here is what the user-error analysis (Figure 7) inspects.
* **The Apiserver→etcd transaction is the injection point.**  Immediately
  before a transaction is handed to the (possibly replicated) data store,
  the registered write hook — the Mutiny injector — may corrupt the
  serialized bytes or drop the message entirely.  Corruption happens before
  consensus, so every replica stores the same wrong value.

The Apiserver also keeps a watch cache of decoded objects.  Reads are served
from the cache when possible, which is why corrupting data *at rest* in etcd
propagates differently from corrupting the transaction (paper §V-C1).
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from typing import Callable, Optional

from repro.apiserver.admission import AdmissionChain
from repro.apiserver.errors import (
    AlreadyExistsError,
    ApiError,
    ConflictError,
    NotFoundError,
    ServerUnavailableError,
)
from repro.apiserver.registry import is_namespaced, kind_from_key, storage_key, storage_prefix
from repro.apiserver.validation import validate_object
from repro.etcd.raft import QuorumLost, RaftGroup
from repro.etcd.store import EtcdStore, EventType, StoreQuotaExceeded
from repro.objects.meta import deep_copy
from repro.objects.selectors import labels_subset
from repro.serialization import DecodeError, compile_path, decode_shared, encode, seed_decode
from repro.sim.engine import Simulation

#: Delay between a successful write and the delivery of watch notifications,
#: modelling the propagation latency of the watch channel.
WATCH_DELIVERY_DELAY = 0.05

#: Sentinel for field-selector misses; distinct from every storable value.
_FIELD_MISSING = object()


@dataclass
class WriteContext:
    """Metadata describing a single Apiserver→etcd transaction."""

    kind: str
    key: str
    operation: str
    actor: str
    name: str
    namespace: Optional[str]


@dataclass
class RequestRecord:
    """One request handled by the Apiserver, as seen by the requesting actor."""

    time: float
    actor: str
    operation: str
    kind: str
    name: str
    namespace: Optional[str]
    error: Optional[str] = None


#: Write hook signature: receives the transaction context and serialized
#: bytes; returns possibly-modified bytes, or None to drop the transaction.
EtcdWriteHook = Callable[[WriteContext, bytes], Optional[bytes]]

#: Watch handler signature: receives ("ADDED"|"MODIFIED"|"DELETED", object).
WatchHandler = Callable[[str, dict], None]


class APIServer:
    """Simulated kube-apiserver."""

    def __init__(
        self,
        sim: Simulation,
        store: EtcdStore,
        raft: Optional[RaftGroup] = None,
        admission: Optional[AdmissionChain] = None,
        serve_from_cache: bool = True,
    ):
        self.sim = sim
        self.store = store
        self.raft = raft
        self.admission = admission if admission is not None else AdmissionChain()
        self.serve_from_cache = serve_from_cache
        self.healthy = True
        self.request_log: list[RequestRecord] = []
        self.events: list[dict] = []
        self._cache: dict[str, dict] = {}
        #: Snapshot cache for ``list``: (kind, namespace, selectors) →
        #: [store revision, marshalled result list or None, result refs].  A
        #: snapshot is valid while no write has touched the listed kind since
        #: it was taken (``_kind_write_revs``); the blob is built on the first
        #: copying read and turns every per-object Python deep copy after it
        #: into one C-level ``marshal.loads``.
        self._list_cache: dict[tuple, list] = {}
        #: Marshalled form of individual ``_cache`` entries, lazily built on
        #: ``get`` and dropped whenever the entry changes: repeated point
        #: reads of an unchanged object cost one ``marshal.loads`` instead of
        #: a Python deep copy.
        self._obj_blobs: dict[str, bytes] = {}
        #: Store revision of the last write observed per kind, maintained by
        #: the store watch; the snapshot validity check above compares
        #: against this instead of the global revision so that, e.g., Pod
        #: status churn does not invalidate Node or Service snapshots.
        self._kind_write_revs: dict[str, int] = {}
        self._watch_handlers: dict[str, list[WatchHandler]] = {}
        self._etcd_write_hook: Optional[EtcdWriteHook] = None
        self._store_watch_id = self.store.watch("/registry/", self._on_store_event)
        self.restart_count = 0

    # ------------------------------------------------------------------ hooks

    def set_etcd_write_hook(self, hook: Optional[EtcdWriteHook]) -> None:
        """Install (or clear) the transaction hook used by the Mutiny injector."""
        self._etcd_write_hook = hook

    def add_watch_handler(self, kind: str, handler: WatchHandler) -> None:
        """Register a component callback for changes to objects of ``kind``."""
        self._watch_handlers.setdefault(kind, []).append(handler)

    def record_event(self, reason: str, message: str, kind: str = "", name: str = "") -> None:
        """Record a cluster Event (observable by the monitoring substrate)."""
        self.events.append(
            {
                "time": self.sim.now,
                "reason": reason,
                "message": message,
                "kind": kind,
                "name": name,
            }
        )

    def restart(self) -> None:
        """Restart the Apiserver: the watch cache is dropped and rebuilt lazily."""
        self._cache.clear()
        self._list_cache.clear()
        self._obj_blobs.clear()
        self._kind_write_revs.clear()
        self.restart_count += 1
        self.record_event("ApiserverRestart", "apiserver restarted, cache dropped")

    def read_token(self, kinds: tuple[str, ...]) -> tuple:
        """The restart count and the store revision of the last write to each
        of ``kinds``.  While the token is unchanged, every read of those kinds
        returns the same objects: the store changes only through watched
        writes, and a restart (which drops the cache) bumps the count."""
        revs = self._kind_write_revs
        return (self.restart_count, *[revs.get(kind, 0) for kind in kinds])

    # ------------------------------------------------------------- public API

    def create(self, kind: str, obj: dict, actor: str = "user") -> dict:
        """Create a resource instance; returns the stored object."""
        return self._write(kind, obj, operation="create", actor=actor)

    def update(self, kind: str, obj: dict, actor: str = "user") -> dict:
        """Update a resource instance (optimistic concurrency on resourceVersion)."""
        return self._write(kind, obj, operation="update", actor=actor)

    def update_status(self, kind: str, obj: dict, actor: str = "user") -> dict:
        """Update only the status of a resource instance (no generation bump)."""
        return self._write(kind, obj, operation="status", actor=actor)

    def get(
        self, kind: str, name: str, namespace: Optional[str] = "default", copy: bool = True
    ) -> dict:
        """Fetch a resource instance; raises NotFoundError if absent or undecodable.

        With ``copy=False`` the caller receives a reference into the watch
        cache and must treat it as **read-only** — the informer contract of
        real Kubernetes (objects from a shared informer cache must never be
        mutated).  Cache entries are replaced wholesale on writes, never
        mutated in place, so a held reference is a consistent snapshot.
        """
        self._check_readable()
        key = self._key(kind, namespace, name)
        if self.serve_from_cache and key in self._cache:
            if not copy:
                return self._cache[key]
            blobs = self._obj_blobs
            blob = blobs.get(key)
            if blob is None:
                blob = marshal.dumps(self._cache[key])
                if len(blobs) >= 4096:
                    blobs.clear()
                blobs[key] = blob
            return marshal.loads(blob)
        entry = self.store.get(key)
        if entry is None:
            raise NotFoundError(f"{kind} {namespace}/{name} not found")
        obj = self._decode_or_purge(key, entry.value)
        if obj is None:
            raise NotFoundError(f"{kind} {namespace}/{name} was undecodable and has been deleted")
        self._cache[key] = obj
        self._obj_blobs.pop(key, None)
        if not copy:
            return obj
        return deep_copy(obj)

    def list(
        self,
        kind: str,
        namespace: Optional[str] = None,
        label_selector: Optional[dict[str, str]] = None,
        field_selector: Optional[dict[str, object]] = None,
        copy: bool = True,
    ) -> list[dict]:
        """List resource instances, filtered by namespace, labels and fields.

        ``field_selector`` maps dotted field paths to required values, as in
        Kubernetes' ``spec.nodeName=worker-1``; an object whose path is
        missing (or whose intermediate node is corrupted into a scalar) does
        not match.

        With ``copy=False`` the returned objects are references into the
        watch cache and must be treated as **read-only** (the informer
        contract); the list itself is always the caller's own.
        """
        self._check_readable()
        if not self.serve_from_cache:
            refs = self._select(kind, namespace, label_selector, field_selector)
            return [deep_copy(obj) for obj in refs] if copy else refs
        # Serve a snapshot while no write has touched this kind.  The result
        # is a pure function of store state (cache entries are the decoded
        # store values), so the per-kind write revision is a sound key.
        snapshot_key = (
            kind,
            namespace or None,
            tuple(sorted(label_selector.items())) if label_selector else None,
            tuple(sorted(field_selector.items())) if field_selector else None,
        )
        snapshot = self._list_cache.get(snapshot_key)
        if snapshot is None or snapshot[0] < self._kind_write_revs.get(kind, 0):
            refs = self._select(kind, namespace, label_selector, field_selector)
            if len(self._list_cache) >= 256:
                self._list_cache.clear()
            # Revision read *after* the scan: an undecodable-value purge in
            # it deletes from the store and must not pin a stale snapshot.
            snapshot = [self.store.revision, None, refs]
            self._list_cache[snapshot_key] = snapshot
        if not copy:
            return list(snapshot[2])
        if snapshot[1] is None:
            # First copying read of this snapshot: one C-level dumps, after
            # which every copying read is one ``loads`` of independent trees.
            snapshot[1] = marshal.dumps(snapshot[2])
        return marshal.loads(snapshot[1])

    def _select(
        self,
        kind: str,
        namespace: Optional[str],
        label_selector: Optional[dict[str, str]],
        field_selector: Optional[dict[str, object]],
    ) -> list[dict]:
        """The watch-cache entries a list request selects (read-only refs),
        decoding (or purging) the store values the cache does not hold."""
        prefix = storage_prefix(kind)
        if namespace and is_namespaced(kind):
            prefix = f"{prefix}{namespace}/"
        fields = (
            [(compile_path(path), value) for path, value in sorted(field_selector.items())]
            if field_selector
            else None
        )
        refs = []
        for entry in self.store.range(prefix):
            if self.serve_from_cache and entry.key in self._cache:
                obj = self._cache[entry.key]
            else:
                obj = self._decode_or_purge(entry.key, entry.value)
                if obj is None:
                    continue
                self._cache[entry.key] = obj
                self._obj_blobs.pop(entry.key, None)
            if label_selector:
                metadata = obj.get("metadata", {})
                labels = metadata.get("labels", {}) if isinstance(metadata, dict) else {}
                if not labels_subset(label_selector, labels if isinstance(labels, dict) else {}):
                    continue
            if fields is not None and any(
                path.find(obj, _FIELD_MISSING) != value for path, value in fields
            ):
                continue
            refs.append(obj)
        return refs

    def delete(
        self, kind: str, name: str, namespace: Optional[str] = "default", actor: str = "user"
    ) -> bool:
        """Delete a resource instance; returns True if it existed."""
        record = RequestRecord(
            time=self.sim.now,
            actor=actor,
            operation="delete",
            kind=kind,
            name=name,
            namespace=namespace,
        )
        try:
            self._check_available()
            key = self._key(kind, namespace, name)
            existed = self.store.delete(key)
            self._cache.pop(key, None)
            self._obj_blobs.pop(key, None)
            if not existed:
                raise NotFoundError(f"{kind} {namespace}/{name} not found")
            return True
        except ApiError as exc:
            record.error = f"{exc.reason}: {exc}"
            raise
        finally:
            self.request_log.append(record)

    # -------------------------------------------------------------- internals

    def _key(self, kind: str, namespace: Optional[str], name: str) -> str:
        return storage_key(kind, namespace, name)

    def _check_available(self) -> None:
        self._check_readable()
        if self.store.alarm_active:
            raise ServerUnavailableError("etcd space alarm active")

    def _check_readable(self) -> None:
        """Reads require a healthy apiserver and quorum, but tolerate the space alarm."""
        if not self.healthy:
            raise ServerUnavailableError("apiserver is unhealthy")
        if self.raft is not None and not self.raft.has_quorum():
            raise ServerUnavailableError("etcd quorum unavailable")

    def _write(self, kind: str, obj: dict, operation: str, actor: str) -> dict:
        metadata = obj.get("metadata", {}) if isinstance(obj, dict) else {}
        name = metadata.get("name", "<unknown>") if isinstance(metadata, dict) else "<unknown>"
        namespace = metadata.get("namespace") if isinstance(metadata, dict) else None
        record = RequestRecord(
            time=self.sim.now,
            actor=actor,
            operation=operation,
            kind=kind,
            name=str(name),
            namespace=namespace if isinstance(namespace, str) else None,
        )
        try:
            self._check_available()
            obj = deep_copy(obj)
            expected_namespace = namespace if is_namespaced(kind) else None
            validate_object(kind, obj, expected_namespace).raise_if_failed()
            self.admission.admit(kind, obj, operation)
            key = self._key(kind, namespace if is_namespaced(kind) else None, obj["metadata"]["name"])
            existing_entry = self.store.get(key)

            if operation == "create":
                if existing_entry is not None and self._decode_or_purge(key, existing_entry.value):
                    raise AlreadyExistsError(f"{kind} {namespace}/{name} already exists")
                obj["metadata"]["creationTimestamp"] = self.sim.now
                obj["metadata"]["generation"] = 1
            else:
                if existing_entry is None:
                    raise NotFoundError(f"{kind} {namespace}/{name} not found")
                stored = self._decode_or_purge(key, existing_entry.value)
                if stored is None:
                    raise NotFoundError(f"{kind} {namespace}/{name} was undecodable")
                stored_rv = stored.get("metadata", {}).get("resourceVersion")
                incoming_rv = obj.get("metadata", {}).get("resourceVersion")
                if incoming_rv is not None and stored_rv is not None and incoming_rv != stored_rv:
                    raise ConflictError(
                        f"{kind} {namespace}/{name}: resourceVersion conflict "
                        f"({incoming_rv} != {stored_rv})"
                    )
                if operation == "update" and self._spec_changed(stored, obj):
                    generation = stored.get("metadata", {}).get("generation", 1)
                    obj["metadata"]["generation"] = (
                        generation + 1 if isinstance(generation, int) else 1
                    )
                else:
                    obj["metadata"]["generation"] = stored.get("metadata", {}).get("generation", 1)
                obj["metadata"]["creationTimestamp"] = stored.get("metadata", {}).get(
                    "creationTimestamp"
                )

            # Stamp the resourceVersion the object will have once committed.
            obj["metadata"]["resourceVersion"] = self.store.revision + 1

            encoded = data = encode(obj)
            context = WriteContext(
                kind=kind,
                key=key,
                operation=operation,
                actor=actor,
                name=str(obj["metadata"]["name"]),
                namespace=namespace if isinstance(namespace, str) else None,
            )
            if self._etcd_write_hook is not None:
                data = self._etcd_write_hook(context, data)
                if data is None:
                    # Message drop: the transaction silently never reaches the
                    # store, but the caller still receives an acknowledgement.
                    # ``obj`` is this call's private copy — hand it over.
                    return obj
            if data is encoded:
                # No fault fired: the watch event and the cache update below
                # decode exactly what was just encoded, so seed the decode
                # cache instead of parsing it back.  Hooked bytes (corrupted
                # or not) take the real decode — the injection semantics.
                seed_decode(data)

            self._commit(key, data)

            # The cache is updated with what the Apiserver *believes* it wrote
            # only if the stored bytes still decode; otherwise the corrupted
            # bytes surface on the next read.
            try:
                self._cache[key] = decode_shared(data)
            except DecodeError:
                self._cache.pop(key, None)
            self._obj_blobs.pop(key, None)
            # ``obj`` is the private copy taken on entry; nothing here retains
            # it (the cache holds the decoded tree), so the caller owns it.
            return obj
        except ApiError as exc:
            record.error = f"{exc.reason}: {exc}"
            raise
        finally:
            self.request_log.append(record)

    def _commit(self, key: str, data: bytes) -> None:
        if self.raft is not None:
            try:
                self.raft.propose(payload_size=len(data))
            except QuorumLost as exc:
                raise ServerUnavailableError(str(exc)) from exc
        try:
            self.store.put(key, data)
        except StoreQuotaExceeded as exc:
            self.record_event("EtcdSpaceExhausted", str(exc))
            raise ServerUnavailableError(str(exc)) from exc

    @staticmethod
    def _spec_changed(old: dict, new: dict) -> bool:
        return old.get("spec") != new.get("spec") or (
            old.get("metadata", {}).get("labels") != new.get("metadata", {}).get("labels")
        )

    def _decode_or_purge(self, key: str, value: bytes) -> Optional[dict]:
        """Decode stored bytes; delete the key if undecodable (paper §II-D)."""
        try:
            # Shared-tree decode: the result goes straight into the watch
            # cache (or is only read), never mutated in place.
            return decode_shared(value)
        except DecodeError as exc:
            self.record_event(
                "UndecodableObjectDeleted",
                f"resource at {key} could not be decoded and was deleted: {exc}",
            )
            self.store.delete(key)
            self._cache.pop(key, None)
            self._obj_blobs.pop(key, None)
            return None

    # ---------------------------------------------------------------- watches

    def _on_store_event(self, event) -> None:
        kind = kind_from_key(event.key)
        if kind is None:
            return
        # Any write to this kind invalidates its list snapshots and the
        # key's point-read blob — tracked before the decode below so
        # undecodable writes invalidate too.
        self._kind_write_revs[kind] = event.revision
        self._obj_blobs.pop(event.key, None)
        if event.type == EventType.PUT:
            try:
                obj = decode_shared(event.value)
            except DecodeError:
                # Deliver nothing; the object will be purged on the next read.
                return
            event_type = "ADDED" if event.prev_value is None else "MODIFIED"
            # Cache entries are immutable by convention (replaced wholesale,
            # never edited), so the shared tree can be kept directly; handler
            # payloads below are separate copies.
            self._cache[event.key] = obj
        else:
            event_type = "DELETED"
            if event.prev_value is None:
                return
            try:
                obj = decode_shared(event.prev_value)
            except DecodeError:
                self._cache.pop(event.key, None)
                return
            self._cache.pop(event.key, None)
        handlers = self._watch_handlers.get(kind)
        if not handlers:
            return
        label = f"watch:{kind}:{event_type}"
        for handler in list(handlers):
            # Each handler owns its payload copy, taken synchronously here
            # (before any later write can replace the cached object).
            self.sim.call_after(
                WATCH_DELIVERY_DELAY,
                lambda handler=handler, payload=deep_copy(obj): handler(event_type, payload),
                label=label,
            )

    # ------------------------------------------------------------------ stats

    def user_errors(self, actor: str = "user") -> list[RequestRecord]:
        """Return the failed requests issued by the given actor."""
        return [record for record in self.request_log if record.actor == actor and record.error]
