"""Revisioned, watchable key-value store.

The store keeps *serialized* values (bytes): the Apiserver encodes objects
with :mod:`repro.serialization` before writing, so an injection on the
Apiserver→etcd channel corrupts exactly what is persisted, and a corrupted
value that no longer decodes is observed on the read path — the situation in
which Kubernetes deletes the "undecryptable" resource.

Revisions are global and monotonic, as in etcd: every successful write bumps
the store revision and stamps the key's ``mod_revision``.  Watches deliver
events synchronously in revision order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.hotpath import COUNTERS


class StoreQuotaExceeded(RuntimeError):
    """Raised when a write would exceed the store's storage quota.

    Mirrors etcd's ``mvcc: database space exceeded`` alarm: once raised, the
    store refuses further writes until the quota is raised or keys are
    deleted, which stalls every controller in the cluster.
    """


class EventType(Enum):
    """Type of a watch event."""

    PUT = "PUT"
    DELETE = "DELETE"


@dataclass
class KeyValue:
    """A stored key with its value bytes and revision bookkeeping."""

    key: str
    value: bytes
    create_revision: int
    mod_revision: int
    version: int


@dataclass
class WatchEvent:
    """A change notification delivered to watchers."""

    type: EventType
    key: str
    value: Optional[bytes]
    revision: int
    prev_value: Optional[bytes] = None


@dataclass
class _Watcher:
    watch_id: int
    prefix: str
    callback: Callable[[WatchEvent], None]


class EtcdStore:
    """In-memory revisioned key-value store with prefix watches."""

    #: Default storage quota, scaled down from etcd's 2 GiB default so that
    #: runaway object creation hits the quota within a simulated experiment.
    DEFAULT_QUOTA_BYTES = 8 * 1024 * 1024

    def __init__(self, quota_bytes: int = DEFAULT_QUOTA_BYTES):
        self._data: dict[str, KeyValue] = {}
        self._revision = 0
        #: Watchers bucketed by their prefix: dispatch checks one
        #: ``startswith`` per *distinct prefix* instead of one per watcher.
        self._watch_buckets: dict[str, list[_Watcher]] = {}
        self._last_watch_id = 0
        self._quota_bytes = quota_bytes
        self._bytes_used = 0
        self._alarm_active = False
        #: Sorted view of the key set, invalidated when a key is added or
        #: removed (value-only rewrites keep it); ``range``/``keys`` reuse it
        #: across the thousands of list requests an experiment issues.
        self._sorted_keys: Optional[list[str]] = None
        self.write_count = 0
        self.read_count = 0
        self.delete_count = 0

    # ------------------------------------------------------------------ state

    @property
    def revision(self) -> int:
        """The current global store revision."""
        return self._revision

    @property
    def bytes_used(self) -> int:
        """Approximate storage used by current values."""
        return self._bytes_used

    @property
    def alarm_active(self) -> bool:
        """True once the space alarm has fired; writes are refused while set."""
        return self._alarm_active

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------ reads

    def get(self, key: str) -> Optional[KeyValue]:
        """Return the stored entry for ``key`` or None."""
        self.read_count += 1
        return self._data.get(key)

    def _sorted(self) -> list[str]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._data)
        return self._sorted_keys

    def range(self, prefix: str) -> list[KeyValue]:
        """Return all entries whose key starts with ``prefix``, sorted by key."""
        self.read_count += 1
        data = self._data
        return [data[key] for key in self.keys(prefix)]

    def keys(self, prefix: str = "") -> list[str]:
        """Return all keys with the given prefix, sorted.

        Keys with a prefix are one contiguous run of the sorted key list,
        starting where ``prefix`` itself would sort: a bisection finds it.
        """
        ordered = self._sorted()
        keys = []
        for position in range(bisect_left(ordered, prefix), len(ordered)):
            key = ordered[position]
            if not key.startswith(prefix):
                break
            keys.append(key)
        return keys

    # ----------------------------------------------------------------- writes

    def put(self, key: str, value: bytes) -> int:
        """Store ``value`` under ``key``; return the new mod revision.

        Raises :class:`StoreQuotaExceeded` if the write would exceed the
        storage quota (and latches the alarm).
        """
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"etcd values must be bytes, got {type(value).__name__}")
        value = bytes(value)
        previous = self._data.get(key)
        delta = len(value) - (len(previous.value) if previous else 0)
        if self._alarm_active or (self._bytes_used + max(delta, 0) > self._quota_bytes):
            self._alarm_active = True
            raise StoreQuotaExceeded(
                f"etcd space alarm: {self._bytes_used + delta} bytes would exceed "
                f"quota of {self._quota_bytes}"
            )
        self._revision += 1
        self.write_count += 1
        self._bytes_used += delta
        if previous is None:
            self._sorted_keys = None
            entry = KeyValue(
                key=key,
                value=value,
                create_revision=self._revision,
                mod_revision=self._revision,
                version=1,
            )
        else:
            entry = KeyValue(
                key=key,
                value=value,
                create_revision=previous.create_revision,
                mod_revision=self._revision,
                version=previous.version + 1,
            )
        self._data[key] = entry
        watchers = self._matching_watchers(key)
        if watchers:
            event = WatchEvent(
                type=EventType.PUT,
                key=key,
                value=value,
                revision=self._revision,
                prev_value=previous.value if previous else None,
            )
            self._dispatch(watchers, event)
        else:
            COUNTERS.watch_events_skipped += 1
        return self._revision

    def delete(self, key: str) -> bool:
        """Delete ``key``; return True if it existed."""
        previous = self._data.pop(key, None)
        if previous is None:
            return False
        self._sorted_keys = None
        self._revision += 1
        self.delete_count += 1
        self._bytes_used -= len(previous.value)
        watchers = self._matching_watchers(key)
        if watchers:
            event = WatchEvent(
                type=EventType.DELETE,
                key=key,
                value=None,
                revision=self._revision,
                prev_value=previous.value,
            )
            self._dispatch(watchers, event)
        else:
            COUNTERS.watch_events_skipped += 1
        return True

    def delete_prefix(self, prefix: str) -> int:
        """Delete every key with the given prefix; return the number deleted."""
        count = 0
        for key in list(self.keys(prefix)):
            if self.delete(key):
                count += 1
        return count

    def compact(self) -> None:
        """Compact historical revisions.

        The store only keeps latest values, so compaction is a no-op on data;
        it exists so operators (and tests) can exercise the recovery path
        that clears the space alarm after deleting keys.
        """
        if self._bytes_used <= self._quota_bytes:
            self._alarm_active = False

    # ---------------------------------------------------------------- watches

    def watch(self, prefix: str, callback: Callable[[WatchEvent], None]) -> int:
        """Register a watch on a key prefix; return a watch id."""
        self._last_watch_id += 1
        watch_id = self._last_watch_id
        watcher = _Watcher(watch_id=watch_id, prefix=prefix, callback=callback)
        self._watch_buckets.setdefault(prefix, []).append(watcher)
        return watch_id

    def _matching_watchers(self, key: str) -> list[_Watcher]:
        """Watchers whose prefix matches ``key``, in registration order.

        The per-prefix buckets make the no-subscriber case (idle controllers,
        keys nothing watches) a handful of ``startswith`` checks, after which
        the caller skips constructing the event entirely.
        """
        buckets = self._watch_buckets
        if not buckets:
            return []
        matched: list[_Watcher] = []
        for prefix, bucket in buckets.items():
            if key.startswith(prefix):
                matched.extend(bucket)
        if len(buckets) > 1 and len(matched) > 1:
            # Several prefixes matched: restore registration order so
            # delivery order is identical to the unbucketed dispatch.
            matched.sort(key=lambda watcher: watcher.watch_id)
        return matched

    def _dispatch(self, watchers: list[_Watcher], event: WatchEvent) -> None:
        for watcher in watchers:
            COUNTERS.watch_dispatches += 1
            watcher.callback(event)

    def close(self) -> None:
        """Cancel every watch: a watcher's callback is a bound method of an
        object that holds this store (the Apiserver's ``_on_store_event``),
        a cycle that would otherwise outlive the store's last user."""
        self._watch_buckets = {}

    # ------------------------------------------------------------------ misc

    def snapshot_keys(self) -> dict[str, bytes]:
        """Return a copy of all current key/value pairs (for test assertions)."""
        return {key: entry.value for key, entry in self._data.items()}

    def stats(self) -> dict:
        """Return operation counters and storage statistics."""
        return {
            "keys": len(self._data),
            "revision": self._revision,
            "bytes_used": self._bytes_used,
            "quota_bytes": self._quota_bytes,
            "alarm_active": self._alarm_active,
            "writes": self.write_count,
            "reads": self.read_count,
            "deletes": self.delete_count,
        }
