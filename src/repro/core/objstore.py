"""Local S3-style object-store emulation server.

The :class:`~repro.core.transport.ObjectStoreTransport` speaks a small,
standard subset of HTTP object-store semantics — unconditional and
conditional PUT (``If-None-Match: *`` / ``If-Match``), GET/HEAD, prefix
listing, conditional DELETE, and a mtime-refresh POST standing in for the
"re-PUT under a generation precondition" lease heartbeat.  This module is
the reference server for that protocol: an in-memory, thread-safe store that
tests and ``python3 tests/smoke.py objectstore`` run locally so the whole
distributed campaign protocol (plan publish, lease claim/reclaim, shard
streaming, federation) is exercised end to end with no external service and
no new dependency.

Run standalone (the smoke driver does, with ``--port 0``)::

    python -m repro.cli objstore --port 8383
    # workers/coordinator then use --results-dir objstore://127.0.0.1:8383/run1

or in-process for tests::

    server = LocalObjectStore(("127.0.0.1", 0))
    server.start()
    root = f"{server.url}/my-store"
    ...
    server.stop()

Wire protocol (all object keys URL-quoted under ``/k/``):

========================  =====================================================
``PUT /k/<key>``          write; ``If-None-Match: *`` -> 412 if the key exists;
                          ``If-Match: <etag>`` -> 412 unless it matches
``PUT /k/<key>?append=1`` append the body to the object instead of replacing
                          it, under the same preconditions (``If-None-Match:
                          *`` creates; ``If-Match`` extends the exact
                          generation) — the batched-shard-upload primitive
``GET /k/<key>``          200 body + ``ETag``/``X-Object-Mtime`` or 404
``HEAD /k/<key>``         like GET without the body (adds ``X-Object-Size``)
``DELETE /k/<key>``       204 (idempotent); with ``If-Match`` -> 404/412 when
                          absent/changed
``POST /k/<key>?op=refresh``  bump mtime+ETag iff ``If-Match`` matches
``GET /list?prefix=<p>``  JSON ``{"keys": [...], "truncated": bool}`` of keys
                          under the prefix; ``&limit=<n>`` caps the page and
                          ``&after=<key>`` resumes a paginated listing past
                          the given key (S3 continuation-token style)
``GET /healthz``          readiness probe for CI wait loops
========================  =====================================================

Every mutation assigns a fresh server-side **ETag** (the generation token of
the transport layer) and mtime, under one lock — conditional operations are
genuinely atomic here, unlike their best-effort POSIX counterparts.

Very large campaigns list hundreds of thousands of shard keys; an unbounded
``/list`` response is exactly the single-choke-point failure mode the Mutiny
paper documents for control planes, so the server never has to produce one:
pass ``max_page`` (CLI ``--max-page``) to cap every listing page server-side
regardless of what the client asked for — clients page transparently through
``truncated``/``after``.  Tests and CI run with a tiny ``max_page`` to force
pagination on campaigns of any size.
"""

from __future__ import annotations

import heapq
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional


@dataclass
class StoredObject:
    """One object: payload plus the metadata conditional requests key on."""

    data: bytes
    etag: str
    mtime: float


class LocalObjectStore(ThreadingHTTPServer):
    """In-memory object store speaking the transport's HTTP subset."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        max_page: Optional[int] = None,
    ):
        # Validated here, not just in the CLI's argparse layer, so embedders
        # (tests, benchmarks, future launchers) get the same rejection: a
        # zero/negative cap would silently produce empty or unbounded pages.
        if max_page is not None and (
            isinstance(max_page, bool) or not isinstance(max_page, int) or max_page < 1
        ):
            raise ValueError(
                f"invalid --max-page value {max_page!r}: must be an integer >= 1 "
                "(or omitted for uncapped listing pages)"
            )
        super().__init__(address, _Handler)
        self.objects: dict[str, StoredObject] = {}
        self.lock = threading.Lock()
        #: Server-side cap on keys per ``/list`` page (None = uncapped).
        self.max_page = max_page
        self._etag_counter = 0
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle

    @property
    def url(self) -> str:
        """The ``objstore://host:port`` base of this server."""
        host, port = self.server_address[:2]
        return f"objstore://{host}:{port}"

    def start(self) -> "LocalObjectStore":
        """Serve in a daemon thread (in-process use: tests, benchmarks)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.server_close()

    # ----------------------------------------------------------- operations

    def _next_etag(self) -> str:
        self._etag_counter += 1
        return f'"g{self._etag_counter}"'

    def put(
        self,
        key: str,
        data: bytes,
        if_none_match: bool,
        if_match: Optional[str],
        append: bool = False,
    ):
        with self.lock:
            existing = self.objects.get(key)
            if if_none_match and existing is not None:
                return None
            if if_match is not None and (existing is None or existing.etag != if_match):
                return None
            if append and existing is not None:
                data = existing.data + data
            stored = StoredObject(data=data, etag=self._next_etag(), mtime=time.time())
            self.objects[key] = stored
            return stored

    def get(self, key: str) -> Optional[StoredObject]:
        with self.lock:
            return self.objects.get(key)

    def delete(self, key: str, if_match: Optional[str]) -> int:
        """HTTP status of a delete: 204 done, 404 absent, 412 changed."""
        with self.lock:
            existing = self.objects.get(key)
            if existing is None:
                return 404 if if_match is not None else 204
            if if_match is not None and existing.etag != if_match:
                return 412
            del self.objects[key]
            return 204

    def refresh(self, key: str, if_match: Optional[str]) -> Optional[StoredObject]:
        with self.lock:
            existing = self.objects.get(key)
            if existing is None or (if_match is not None and existing.etag != if_match):
                return None
            existing.etag = self._next_etag()
            existing.mtime = time.time()
            return existing

    def list_keys(
        self, prefix: str, limit: Optional[int] = None, after: str = ""
    ) -> tuple[list[str], bool]:
        """One page of sorted keys under ``prefix``, strictly after ``after``.

        Returns ``(keys, truncated)``: ``truncated`` tells the client to ask
        again with ``after=keys[-1]``.  The effective page size is the
        smaller of the client's ``limit`` and the server's ``max_page`` —
        the server never produces an unbounded response when configured with
        a cap, whatever the client requested.

        The lock is held only for the key snapshot; a truncated page sorts
        just the page (``heapq.nsmallest``), not the whole remaining tail,
        so paging a very large store never stalls concurrent traffic behind
        repeated full sorts.  The per-page O(N) prefix scan is a deliberate
        simplicity trade-off for this reference server (a maintained sorted
        index would buy O(log N + page) pages at the cost of ordered-write
        bookkeeping); the real-S3/GCS transport on the roadmap gets that
        for free from the service.
        """
        with self.lock:
            snapshot = list(self.objects)
        keys = [key for key in snapshot if key.startswith(prefix) and key > after]
        cap = limit
        if self.max_page is not None:
            cap = self.max_page if cap is None else min(cap, self.max_page)
        if cap is None or len(keys) <= cap:
            return sorted(keys), False
        return heapq.nsmallest(cap, keys), True

    def backdate(self, key: str, seconds: float) -> None:
        """Age an object's mtime (tests exercising lease expiry; the POSIX
        equivalent is ``os.utime`` with a past timestamp)."""
        with self.lock:
            self.objects[key].mtime -= seconds


class ResponseHandler(BaseHTTPRequestHandler):
    """How both in-tree HTTP servers (this one and the campaign service's)
    answer a request: HTTP/1.1 keep-alive, silent, never waiting on Nagle."""

    protocol_version = "HTTP/1.1"
    # The stdlib handler writes the header block and the body as two small
    # segments and leaves Nagle on, so on a keep-alive connection the body
    # waits out the client's delayed ACK of the headers: a fixed ~40 ms on
    # every exchange with a small body (measured: 44 ms per 100-byte GET or
    # /list page against 0.15 ms with TCP_NODELAY on the accepted socket;
    # bodiless HEADs and 200 KB shards never showed it).
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # both servers are driven by tests/CI; keep their stderr clean

    def _send(self, status: int, body: bytes = b"", headers: Optional[dict] = None):
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """The request's ``Content-Length``-framed body, or ``None`` for a
        malformed or negative length (the caller answers 400): an escaping
        ``ValueError`` drops the connection with no response, and
        ``read(-1)`` parks the handler thread until the peer closes."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            return None
        return self.rfile.read(length) if length >= 0 else None


class _Handler(ResponseHandler):
    """Request plumbing; all state lives on the :class:`LocalObjectStore`."""

    server: LocalObjectStore

    # ------------------------------------------------------------- plumbing

    def _key(self) -> Optional[str]:
        path = urllib.parse.urlsplit(self.path).path
        if not path.startswith("/k/"):
            return None
        return urllib.parse.unquote(path[len("/k/") :])

    def _query(self) -> dict:
        return dict(urllib.parse.parse_qsl(urllib.parse.urlsplit(self.path).query))

    @staticmethod
    def _object_headers(stored: StoredObject) -> dict:
        return {
            "ETag": stored.etag,
            "X-Object-Mtime": repr(stored.mtime),
            "X-Object-Size": str(len(stored.data)),
        }

    # -------------------------------------------------------------- methods

    def do_GET(self):  # noqa: N802 - stdlib naming
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path == "/healthz":
            self._send(200, b"ok")
            return
        if parsed.path == "/list":
            query = self._query()
            limit: Optional[int] = None
            if "limit" in query:
                try:
                    limit = int(query["limit"])
                    if limit < 1:
                        raise ValueError
                except ValueError:
                    self._send(400, b"limit must be a positive integer")
                    return
            keys, truncated = self.server.list_keys(
                query.get("prefix", ""), limit=limit, after=query.get("after", "")
            )
            body = json.dumps({"keys": keys, "truncated": truncated}).encode("utf-8")
            self._send(200, body, {"Content-Type": "application/json"})
            return
        key = self._key()
        stored = self.server.get(key) if key is not None else None
        if stored is None:
            self._send(404)
            return
        self._send(200, stored.data, self._object_headers(stored))

    def do_HEAD(self):  # noqa: N802
        key = self._key()
        stored = self.server.get(key) if key is not None else None
        if stored is None:
            self._send(404)
            return
        # _send writes Content-Length 0 for the empty body; the real size
        # travels in X-Object-Size so HEAD responses need no body framing.
        self._send(200, b"", self._object_headers(stored))

    def do_PUT(self):  # noqa: N802
        key = self._key()
        if key is None:
            self._send(404)
            return
        data = self._read_body()
        if data is None:
            self._send(400, b"Content-Length must be a non-negative integer")
            return
        stored = self.server.put(
            key,
            data,
            if_none_match=self.headers.get("If-None-Match") == "*",
            if_match=self.headers.get("If-Match"),
            append=self._query().get("append") == "1",
        )
        if stored is None:
            self._send(412)
            return
        self._send(200, b"", self._object_headers(stored))

    def do_POST(self):  # noqa: N802
        key = self._key()
        if key is None or self._query().get("op") != "refresh":
            self._send(404)
            return
        if self.server.get(key) is None:
            self._send(404)
            return
        stored = self.server.refresh(key, self.headers.get("If-Match"))
        if stored is None:
            self._send(412)
            return
        self._send(200, b"", self._object_headers(stored))

    def do_DELETE(self):  # noqa: N802
        key = self._key()
        if key is None:
            self._send(404)
            return
        self._send(self.server.delete(key, self.headers.get("If-Match")))


def serve(
    host: str = "127.0.0.1", port: int = 8383, max_page: Optional[int] = None
) -> LocalObjectStore:
    """Blocking standalone server (the ``repro.cli objstore`` entry point)."""
    server = LocalObjectStore((host, port), max_page=max_page)
    print(f"object store listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return server
