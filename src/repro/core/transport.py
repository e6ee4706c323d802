"""Pluggable shard-store transports: the byte-level backend of a result store.

The sharded result store, the slice-lease layer, and the plan publisher never
needed a filesystem — they need the ShardTransport contract: atomic put,
put-if-absent, read, list, stat, delete (optionally conditional), a liveness
refresh, and a conditional append.  This module names that contract
(:class:`ShardTransport`) and ships two implementations:

* :class:`PosixTransport` — the original shared-directory backend, re-expressed
  against the interface.  Keys map onto the exact paths the store always used
  (``MANIFEST.json``, ``shards/…``, ``leases/…``), so the on-disk layout is
  byte-identical to stores written before the transport layer existed and
  every such store resumes unchanged.
* :class:`ObjectStoreTransport` — an S3-style HTTP object store for workers
  that cannot share a filesystem (cloud-edge fleets, containers without a
  common mount).  Put-if-absent is a conditional PUT (``If-None-Match: *``),
  and lease reclamation/heartbeat become conditional DELETE/refresh keyed on
  an opaque **generation token** (the object's ETag) instead of ``O_EXCL`` +
  mtime — the exactly-one-winner guarantees survive the transport swap.  A
  local emulation server (:mod:`repro.core.objstore`) lets tests and CI
  exercise the full protocol end to end with no external service.

A store root is a plain string and selects its transport by shape
(:func:`transport_for`): a filesystem path picks POSIX, an ``objstore://``
URL picks the object store.  Because every process in a campaign
(coordinator, CLI workers, pool workers) rebuilds its store from that root
string, the transport choice travels with it for free.

Generation tokens: every write (and every refresh) gives an object a new
opaque generation.  On POSIX the token folds ``(st_ino, st_mtime_ns,
st_size)`` — so a file atomically replaced with equal-size different content,
or merely touched by a heartbeat, is a *different* generation.  On the object
store it is the server-assigned ETag.  Conditional operations
(:meth:`~ShardTransport.delete_if_unchanged`,
:meth:`~ShardTransport.refresh`, :meth:`~ShardTransport.append`) act only
when the caller's token still matches, which is how "delete only the exact
lease I judged expired" is said without ``O_EXCL``.

Two operations exist purely for campaign scale:

* :meth:`~ShardTransport.list_iter` streams keys instead of materializing
  them — the object store pages through ``limit``/``after`` server cursors,
  POSIX walks ``os.scandir`` — so scanning a store with hundreds of
  thousands of shards never builds the full key list in any layer.
* :meth:`~ShardTransport.append` extends an existing object under a
  generation precondition (a conditional ``PUT ?append=1`` on the object
  store, a single-writer ``O_APPEND`` write on POSIX), which lets workers
  coalesce many finished batches into one shard object while keeping every
  batch durable the moment it completes.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import threading
import urllib.parse
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Optional


def fsync_directory(path: str) -> None:
    """Flush a directory's entry table to disk (best-effort).

    ``os.replace`` makes a rename *atomic* but not *durable*: on filesystems
    that don't journal directory operations synchronously (and on networked
    shared filesystems, which the distributed backend runs over), the new
    entry can be lost on power failure unless the containing directory is
    fsynced.  Directories can't be fsynced on some platforms; that degrades
    to the old behaviour rather than failing the write.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: Process-wide monotonic counter feeding temp-file names: two in-flight
#: writes can never share a name even from the same thread (re-entrancy via
#: signal handlers or GC finalizers).
_TEMP_COUNTER = itertools.count()


def _temp_path_for(path: str) -> str:
    """A collision-free temporary sibling of ``path``.

    The name embeds pid, thread id, and a process-wide monotonic counter:
    distinct processes (coordinator and workers on a shared directory),
    distinct threads in one process (the worker heartbeat thread and the
    batch loop both write lease files), and successive writes from one
    thread all get distinct in-flight temp files.  The pid alone — the
    historical name — let two threads of one process scribble over each
    other's half-written temp file.
    """
    return f"{path}.{os.getpid()}.{threading.get_ident()}.{next(_TEMP_COUNTER)}.tmp"


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` the whole buffer.

    A raw ``os.write`` may return a short count without raising (classic
    near-ENOSPC behaviour); treating that as success would store a torn
    payload whose generation looks committed.  Loop until every byte lands —
    any genuine failure still raises.
    """
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write-fsync-rename, then fsync the directory, so a completed write is
    both atomic (readers never observe a half-written file) and durable on
    non-ext4 shared filesystems.  Shared by the shard store and the
    distributed lease/plan files.
    """
    tmp_path = _temp_path_for(path)
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    fsync_directory(os.path.dirname(path) or ".")

#: URL scheme selecting :class:`ObjectStoreTransport`.
OBJECT_STORE_SCHEME = "objstore"

#: Keys requested per object-store listing page.  Real object stores cap
#: pages at 1000; matching that keeps the emulated protocol honest.
DEFAULT_LIST_PAGE_SIZE = 1000

#: Environment override for the listing page size (tests and CI force tiny
#: pages so pagination is exercised on campaigns of any size).
LIST_PAGE_ENV = "MUTINY_OBJSTORE_PAGE"


def _env_page_size() -> int:
    raw = os.environ.get(LIST_PAGE_ENV)
    if raw is None:
        return DEFAULT_LIST_PAGE_SIZE
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        import warnings

        warnings.warn(
            f"ignoring malformed {LIST_PAGE_ENV}={raw!r} (expected an integer >= 1)",
            RuntimeWarning,
            stacklevel=2,
        )
        return DEFAULT_LIST_PAGE_SIZE
    return value


class TransportError(RuntimeError):
    """A transport operation failed for a non-key reason (e.g. a dead server)."""


class TransportKeyError(KeyError):
    """The requested key does not exist in the store."""


@dataclass(frozen=True)
class ObjectStat:
    """Observed state of one stored object."""

    #: Payload size in bytes.
    size: int
    #: Last-modified wall-clock seconds (heartbeat refreshes bump it).
    mtime: float
    #: Opaque change token: differs after every put/refresh of the key.
    generation: str


class ShardTransport(ABC):
    """The byte-level operations a result store needs from its backend.

    Keys are ``/``-separated relative names (``shards/shard-….jsonl.gz``,
    ``leases/slice-00001.lease``); the namespace under any one prefix is
    flat.  All operations are safe for concurrent use from multiple threads
    and processes — that is the whole point of the interface.
    """

    #: The root string this transport serves (path or URL).
    root: str

    @abstractmethod
    def put(self, key: str, data: bytes) -> None:
        """Atomically (over)write one object: readers see old or new, never
        a mixture, and a completed put is durable."""

    @abstractmethod
    def put_if_absent(self, key: str, data: bytes) -> bool:
        """Create the object only if the key is free; ``True`` iff this call
        created it.  Many concurrent callers get exactly one winner."""

    @abstractmethod
    def get(self, key: str) -> bytes:
        """The object's bytes (:class:`TransportKeyError` when absent)."""

    @abstractmethod
    def get_with_stat(self, key: str) -> tuple[bytes, ObjectStat]:
        """Bytes plus the stat *of the bytes returned* (one consistent view,
        even if the key is concurrently replaced)."""

    @abstractmethod
    def list_iter(self, prefix: str) -> Iterator[str]:
        """Stream the keys directly under ``prefix``, in sorted order.

        The streaming form of :meth:`list`: keys arrive one at a time (the
        object store pages through server cursors, POSIX walks a directory
        scan), so no layer ever holds the full key set of a very large
        store.  A prefix whose backing directory/bucket does not exist yet
        yields nothing — callers poll stores that a worker has not populated
        yet (``inspect``, ``autofederate``), and "empty" is the only useful
        answer there.  Keys created while the iteration is in flight may or
        may not appear (they do when they sort after the cursor); keys
        deleted mid-iteration may still be yielded.
        """

    def list(self, prefix: str) -> list[str]:
        """Sorted keys directly under ``prefix`` (flat, non-recursive)."""
        return list(self.list_iter(prefix))

    @abstractmethod
    def stat(self, key: str) -> Optional[ObjectStat]:
        """The object's stat, or ``None`` when the key is absent."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove the object (idempotent: absent keys are a no-op)."""

    @abstractmethod
    def delete_if_unchanged(self, key: str, generation: str) -> bool:
        """Remove the object only while its generation still matches;
        ``True`` iff this call removed it.  A concurrently refreshed or
        replaced object survives."""

    @abstractmethod
    def refresh(self, key: str, generation: str, expected: Optional[bytes] = None) -> bool:
        """Bump the object's mtime (new generation) iff the given generation
        still matches — the heartbeat primitive.  ``False`` means the object
        was replaced, refreshed elsewhere, or removed.

        ``expected`` is the payload the caller believes the object holds
        (lease heartbeats read it anyway for the ownership check).  It is
        only consulted to resolve retry ambiguity on transports that retry
        over a network: a refresh whose first attempt was applied before its
        response was lost re-reads the object, and unchanged bytes prove the
        precondition failure came from racing ourselves (see
        :meth:`ObjectStoreTransport.refresh`).  Without it, such a refresh
        conservatively reports the lease as lost.
        """

    @abstractmethod
    def append(self, key: str, data: bytes, generation: Optional[str] = None) -> Optional[str]:
        """Append ``data`` to the object and return its new generation.

        ``generation=None`` creates the object, failing if the key already
        exists (the put-if-absent of appends); otherwise the append happens
        only while the object's generation still matches.  ``None`` means
        the precondition failed — the object was created, replaced, or
        removed by someone else — and nothing was written.  Appended bytes
        are durable when the call returns; a reader racing an append sees
        either the old object or the extended one (POSIX readers may
        additionally observe a torn tail, which the shard reader's
        truncation tolerance already absorbs).
        """

    @abstractmethod
    def locate(self, key: str) -> str:
        """A human-usable address of the key (filesystem path or URL)."""


def transport_for(root: str) -> ShardTransport:
    """Pick the transport a store root names: ``objstore://…`` URLs select
    the object store, everything else is a POSIX directory path."""
    if root.startswith(f"{OBJECT_STORE_SCHEME}://"):
        return ObjectStoreTransport(root)
    return PosixTransport(root)


class StoreURLError(TransportError):
    """A store root string is malformed (bad scheme, missing bucket, …)."""


#: URL schemes that look like remote stores but have no transport here.
#: Named explicitly so a typo'd ``objstore://`` or an S3 URL fails with a
#: message instead of being treated as a relative POSIX directory.
_FOREIGN_SCHEMES = ("s3", "gs", "gcs", "http", "https", "file", "ftp")


def resolve_store_url(value: str, option: str = "store URL") -> str:
    """Validate a ``results_dir``-or-``objstore://`` string and return it.

    The single place the CLI, the campaign spec, and the service decide
    what a store root string means.  ``objstore://host:port/bucket`` URLs
    must parse (host and bucket present), recognisable foreign schemes
    (``s3://``, ``https://``, …) are rejected rather than silently treated
    as directory names, and everything else is a POSIX path.  Raises
    :class:`StoreURLError` naming both ``option`` (the flag or field the
    string came from) and the offending URL.
    """
    if not isinstance(value, str) or not value.strip():
        raise StoreURLError(f"{option} must name a directory or {OBJECT_STORE_SCHEME}:// URL, got {value!r}")
    root = value.strip()
    if root.startswith(f"{OBJECT_STORE_SCHEME}://"):
        try:
            ObjectStoreTransport(root)
        except ValueError as error:
            raise StoreURLError(f"{option}: {error}") from None
        return root
    scheme, separator, _ = root.partition("://")
    if separator and scheme.lower() in _FOREIGN_SCHEMES:
        raise StoreURLError(
            f"{option}: unsupported store scheme {scheme!r} in {root!r} "
            f"(expected a directory path or {OBJECT_STORE_SCHEME}://host:port/bucket)"
        )
    return root


# --------------------------------------------------------------------------
# POSIX (shared directory)
# --------------------------------------------------------------------------


class PosixTransport(ShardTransport):
    """The original one-shared-directory backend, behind the interface.

    Layout compatibility is a hard guarantee: ``locate(key)`` is exactly the
    path the pre-transport store used, atomic put is the same
    write-fsync-rename, and put-if-absent is the same ``O_EXCL`` create — a
    store written by older code resumes through this transport unchanged
    (and vice versa).
    """

    def __init__(self, root: str):
        self.root = root

    def _path(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    @staticmethod
    def _generation(stat: os.stat_result) -> str:
        # Folding inode + mtime_ns + size means an atomic same-size rewrite
        # (new inode, new mtime) and a heartbeat touch (new mtime) both
        # produce a new token, which conditional delete/refresh rely on.
        return f"{stat.st_ino}-{stat.st_mtime_ns}-{stat.st_size}"

    @classmethod
    def _stat_of(cls, stat: os.stat_result) -> ObjectStat:
        return ObjectStat(
            size=stat.st_size, mtime=stat.st_mtime, generation=cls._generation(stat)
        )

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_bytes(path, data)

    def put_if_absent(self, key: str, data: bytes) -> bool:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        try:
            _write_all(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        fsync_directory(os.path.dirname(path))
        return True

    def get(self, key: str) -> bytes:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise TransportKeyError(key) from None

    def get_with_stat(self, key: str) -> tuple[bytes, ObjectStat]:
        try:
            with open(self._path(key), "rb") as handle:
                # fstat on the open fd describes the file actually read,
                # even if the path was concurrently rename-replaced.
                stat = os.fstat(handle.fileno())
                return handle.read(), self._stat_of(stat)
        except FileNotFoundError:
            raise TransportKeyError(key) from None

    def list_iter(self, prefix: str) -> Iterator[str]:
        # os.scandir carries the file type with each entry (no stat per key,
        # unlike the historical listdir + isfile walk).  Name order has to be
        # imposed here — directories enumerate unordered — but only the bare
        # names are held, never stats or payloads.  A directory that does
        # not exist yet (a store a worker hasn't populated) yields nothing,
        # matching the object store's empty-prefix answer.
        directory, _, name_prefix = prefix.rpartition("/")
        base = self._path(directory) if directory else self.root
        try:
            with os.scandir(base) as entries:
                names = [
                    entry.name
                    for entry in entries
                    if entry.name.startswith(name_prefix) and entry.is_file()
                ]
        except OSError:
            return
        for name in sorted(names):
            yield f"{directory}/{name}" if directory else name

    def stat(self, key: str) -> Optional[ObjectStat]:
        try:
            return self._stat_of(os.stat(self._path(key)))
        except OSError:
            return None

    def delete(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass

    def delete_if_unchanged(self, key: str, generation: str) -> bool:
        # stat-compare-unlink has a microsecond TOCTOU window (POSIX has no
        # conditional unlink); the lease protocol tolerates it — an owner
        # whose lease changes hands aborts at the next batch boundary, and
        # experiment determinism makes even that overlap harmless.
        path = self._path(key)
        try:
            if self._generation(os.stat(path)) != generation:
                return False
            os.unlink(path)
        except OSError:
            return False
        return True

    def refresh(self, key: str, generation: str, expected: Optional[bytes] = None) -> bool:
        # POSIX never retries a request, so the retry-ambiguity rule that
        # ``expected`` feeds on the object store has no counterpart here.
        path = self._path(key)
        try:
            if self._generation(os.stat(path)) != generation:
                return False
            os.utime(path)
        except OSError:
            return False
        return True

    def append(self, key: str, data: bytes, generation: Optional[str] = None) -> Optional[str]:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if generation is None:
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                return None
            try:
                _write_all(fd, data)
                os.fsync(fd)
                stat = os.fstat(fd)
            finally:
                os.close(fd)
            fsync_directory(os.path.dirname(path))
            return self._generation(stat)
        # stat-compare-append keeps the same microsecond TOCTOU window as
        # delete_if_unchanged; shard objects have a single writer (the worker
        # that owns the batch group), so the window never sees a second
        # appender, and readers tolerate a torn tail as a truncated shard.
        try:
            if self._generation(os.stat(path)) != generation:
                return None
            with open(path, "ab") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
                stat = os.fstat(handle.fileno())
        except OSError:
            return None
        return self._generation(stat)

    def locate(self, key: str) -> str:
        return self._path(key)


# --------------------------------------------------------------------------
# Object store (S3-style conditional HTTP)
# --------------------------------------------------------------------------


class ObjectStoreTransport(ShardTransport):
    """An S3-style object-store backend for hosts with no shared filesystem.

    The root is ``objstore://host:port/bucket[/prefix]``; keys live under
    the bucket path.  Conditional semantics map onto standard HTTP
    preconditions — ``If-None-Match: *`` for put-if-absent, ``If-Match:
    <etag>`` for conditional delete/refresh — which is exactly the subset
    real object stores (S3 conditional writes, GCS generation preconditions)
    provide.  The reference server is :mod:`repro.core.objstore`.

    One HTTP connection is kept per thread (the worker heartbeat thread and
    the batch loop both talk to the store); a connection that died between
    requests is rebuilt and the request retried once.
    """

    def __init__(self, root: str, timeout: float = 30.0, page_size: Optional[int] = None):
        self.root = root.rstrip("/")
        parsed = urllib.parse.urlsplit(self.root)
        if parsed.scheme != OBJECT_STORE_SCHEME or not parsed.hostname:
            raise ValueError(
                f"not an object-store root: {root!r} "
                f"(expected {OBJECT_STORE_SCHEME}://host:port/bucket)"
            )
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._bucket = parsed.path.strip("/")
        if not self._bucket:
            raise ValueError(f"object-store root {root!r} names no bucket")
        self._timeout = timeout
        #: Keys requested per /list page (the server may cap pages further).
        self.page_size = page_size if page_size is not None else _env_page_size()
        self._local = threading.local()

    def _server_key(self, key: str) -> str:
        return f"{self._bucket}/{key}" if key else self._bucket

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
            self._local.connection = connection
        return connection

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[dict] = None,
    ) -> tuple[int, dict, bytes, bool]:
        """One HTTP round trip; returns ``(status, headers, body, retried)``.

        A connection broken mid-request is rebuilt and the request retried
        once.  ``retried`` flags the ambiguous case: the first attempt may
        have been applied server-side before the response was lost, so a
        conditional writer seeing a precondition failure *after a retry*
        must re-read before concluding it lost.  Every conditional operation
        applies that rule: :meth:`put_if_absent`, :meth:`delete_if_unchanged`,
        :meth:`refresh`, and :meth:`append`.
        """
        for attempt in (0, 1):
            connection = self._connection()
            try:
                connection.request(method, path, body=body, headers=headers or {})
                response = connection.getresponse()
                payload = response.read()
                return (
                    response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    payload,
                    attempt > 0,
                )
            except (http.client.HTTPException, OSError) as error:
                connection.close()
                self._local.connection = None
                if attempt:
                    raise TransportError(
                        f"object store {self._host}:{self._port} unreachable: {error}"
                    ) from error
        raise AssertionError("unreachable")

    @staticmethod
    def _stat_from_headers(headers: dict, size: Optional[int] = None) -> ObjectStat:
        return ObjectStat(
            size=int(headers.get("x-object-size", size if size is not None else 0)),
            mtime=float(headers.get("x-object-mtime", 0.0)),
            generation=headers.get("etag", ""),
        )

    def _object_path(self, key: str) -> str:
        return "/k/" + urllib.parse.quote(self._server_key(key))

    def put(self, key: str, data: bytes) -> None:
        status, _, body, _ = self._request("PUT", self._object_path(key), body=data)
        if status != 200:
            raise TransportError(
                f"object store rejected put of {key!r}: {status} {body[:200]!r}"
            )

    def put_if_absent(self, key: str, data: bytes) -> bool:
        status, _, body, retried = self._request(
            "PUT", self._object_path(key), body=data, headers={"If-None-Match": "*"}
        )
        if status == 200:
            return True
        if status == 412:
            if retried:
                # Ambiguous loss: the first attempt may have been applied
                # before its response was lost, in which case the 412 came
                # from racing *ourselves*.  Walking away from a key we in
                # fact created would orphan a lease until its TTL expires,
                # so re-read and claim the win when the stored bytes are
                # ours (lease payloads embed worker/pid/claim time, so
                # byte-equality identifies the writer).
                try:
                    return self.get(key) == data
                except TransportKeyError:
                    return False
            return False
        raise TransportError(
            f"object store rejected conditional put of {key!r}: {status} {body[:200]!r}"
        )

    def get(self, key: str) -> bytes:
        return self.get_with_stat(key)[0]

    def get_with_stat(self, key: str) -> tuple[bytes, ObjectStat]:
        status, headers, body, _ = self._request("GET", self._object_path(key))
        if status == 404:
            raise TransportKeyError(key)
        if status != 200:
            raise TransportError(f"object store get of {key!r} failed: {status}")
        return body, self._stat_from_headers(headers, size=len(body))

    def list_iter(self, prefix: str) -> Iterator[str]:
        """Page through the listing with ``limit``/``after`` cursors.

        Every page is one bounded request; the cursor is the last key of the
        previous page, so the server's snapshot-per-page semantics compose
        into one sorted stream (keys created behind the cursor while paging
        are missed, keys created ahead of it are included — S3 listing
        semantics).  The full key set never exists client-side.
        """
        server_prefix = self._server_key(prefix)
        scope = len(self._server_key(""))  # strip "bucket/" back off
        after = ""
        while True:
            params = {"prefix": server_prefix, "limit": str(self.page_size)}
            if after:
                params["after"] = after
            query = urllib.parse.urlencode(params)
            status, _, body, _ = self._request("GET", f"/list?{query}")
            if status != 200:
                raise TransportError(f"object store list of {prefix!r} failed: {status}")
            payload = json.loads(body)
            keys = payload.get("keys", [])
            for key in keys:
                yield key[scope + 1 :]
            if not payload.get("truncated") or not keys:
                return
            after = keys[-1]

    def stat(self, key: str) -> Optional[ObjectStat]:
        status, headers, _, _ = self._request("HEAD", self._object_path(key))
        if status == 404:
            return None
        if status != 200:
            raise TransportError(f"object store stat of {key!r} failed: {status}")
        return self._stat_from_headers(headers)

    def delete(self, key: str) -> None:
        status, _, _, _ = self._request("DELETE", self._object_path(key))
        if status not in (204, 404):
            raise TransportError(f"object store delete of {key!r} failed: {status}")

    def delete_if_unchanged(self, key: str, generation: str) -> bool:
        status, _, _, retried = self._request(
            "DELETE", self._object_path(key), headers={"If-Match": generation}
        )
        if status == 204:
            return True
        if status == 404:
            if retried:
                # Ambiguous loss (the put_if_absent rule): the first attempt
                # may have deleted the object before its response was lost,
                # in which case the retry's 404 came from racing ourselves.
                # Re-read before concluding we lost — a still-absent key
                # means the conditional delete took effect, and reporting
                # False here made a lease reclaim walk away from a slice it
                # had in fact freed (handing it to a third claimant while
                # the second raced for it).  A key that exists again was
                # re-created afterwards; we must not claim to have removed
                # what is now someone else's object.
                try:
                    return self.stat(key) is None
                except TransportError:
                    return False  # outcome unknowable right now: stay conservative
            return False
        if status == 412:
            # The object exists with a different generation: whatever the
            # first attempt did, it did not remove *this* generation.
            return False
        raise TransportError(
            f"object store conditional delete of {key!r} failed: {status}"
        )

    def refresh(self, key: str, generation: str, expected: Optional[bytes] = None) -> bool:
        status, _, _, retried = self._request(
            "POST",
            self._object_path(key) + "?op=refresh",
            headers={"If-Match": generation},
        )
        if status == 200:
            return True
        if status in (404, 412):
            if retried and expected is not None:
                # Ambiguous loss: the first attempt may have refreshed the
                # lease before its response was lost, making the retry's
                # precondition failure a race against ourselves.  A refresh
                # never changes the payload, so re-reading and finding the
                # caller's bytes intact proves the lease was neither
                # reclaimed nor replaced — the heartbeat succeeded.  Without
                # this re-read, one dropped response made the owner wrongly
                # surrender a slice it still held.  The re-read itself may
                # fail (the store just proved flaky); that must surface as a
                # conservative False, not an exception — the heartbeat
                # thread calling this has no handler, and dying silently
                # would leave the owner running without an abort signal.
                try:
                    return self.get(key) == expected
                except (TransportKeyError, TransportError):
                    return False
            return False
        raise TransportError(f"object store refresh of {key!r} failed: {status}")

    def append(self, key: str, data: bytes, generation: Optional[str] = None) -> Optional[str]:
        headers = (
            {"If-None-Match": "*"} if generation is None else {"If-Match": generation}
        )
        status, response_headers, body, retried = self._request(
            "PUT", self._object_path(key) + "?append=1", body=data, headers=headers
        )
        if status == 200:
            return response_headers.get("etag", "")
        if status == 412:
            if retried:
                # Ambiguous loss: the first attempt may have appended before
                # its response was lost.  The shard writer is the object's
                # only appender, so "the object now ends with our bytes"
                # (or, for a create, *is* our bytes) identifies our own
                # applied write; concluding False here would re-append the
                # batch and double its records in the store.
                try:
                    current, stat = self.get_with_stat(key)
                except TransportKeyError:
                    return None
                if generation is None:
                    return stat.generation if current == data else None
                return stat.generation if current.endswith(data) else None
            return None
        raise TransportError(
            f"object store rejected append to {key!r}: {status} {body[:200]!r}"
        )

    def locate(self, key: str) -> str:
        return f"{self.root}/{key}"
