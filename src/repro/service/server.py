"""The campaign service: a stateless HTTP control plane over the engine.

A stdlib :class:`ThreadingHTTPServer` (same dependency-free idiom as
:mod:`repro.core.objstore`) exposing the versioned JSON API::

    POST   /v1/campaigns            submit a CampaignSpec document
    GET    /v1/campaigns            list known campaigns + live progress
    GET    /v1/campaigns/{id}       the canonical inspect --json document
    GET    /v1/campaigns/{id}/status   live slices/leases/record counts
    GET    /v1/campaigns/{id}/tables   the paper's tables as JSON
    DELETE /v1/campaigns/{id}       cooperative cancellation
    GET    /healthz                 process liveness
    GET    /readyz                  200 once rehydration finished

Statelessness is by construction, not by discipline: a campaign's identity
is its spec fingerprint (which includes the store URL), every result byte
lives in the transport-backed shard store, and the only thing the service
persists is a tiny ``campaigns/<id>.json`` index record written through the
same :class:`~repro.core.transport.ShardTransport` contract the stores
use.  A restarted — or replicated — service lists that index,
rebuilds its registry, and resumes any campaign whose store is incomplete;
the resume replays zero experiments because that is the store's guarantee,
so the final digest is byte-identical to an uninterrupted run.

Each campaign's coordinator is a child process (:mod:`repro.service.run`).
A per-service quota caps *concurrently running* campaigns; submissions
beyond it get ``429`` with a ``Retry-After`` header rather than queueing
unboundedly — the client owns the retry policy.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from http.server import ThreadingHTTPServer
from multiprocessing.process import BaseProcess
from typing import Optional

from repro.core.distributed import SliceLeases
from repro.core.objstore import ResponseHandler
from repro.core.transport import (
    TransportError,
    TransportKeyError,
    resolve_store_url,
    transport_for,
)
from repro.service import run
from repro.service.spec import CampaignSpec, SpecError
from repro.service.storeview import StoreView

#: Default cap on concurrently running campaigns per service process.
DEFAULT_MAX_CAMPAIGNS = 4

#: Seconds suggested to a 429'd client before retrying.
DEFAULT_RETRY_AFTER = 5


class ServiceQuotaError(RuntimeError):
    """The per-service concurrent-campaign quota is exhausted (HTTP 429)."""


class UnknownCampaignError(KeyError):
    """No campaign with the requested id exists (HTTP 404)."""


class ManagedCampaign:
    """One campaign the service knows about: its index record, its
    coordinator process, and the view every read of its store goes through."""

    def __init__(self, record: dict, spec: CampaignSpec, idle_state: str):
        if not spec.store_url:
            raise SpecError("a managed campaign needs a store_url: its store is its only state")
        self.record = record
        self.spec = spec
        #: None while ``idle_state``: pending (admitted, not yet started),
        #: or complete/cancelled (rehydrated with nothing left to run).
        self.child: Optional[BaseProcess] = None
        self.idle_state = idle_state
        self.view = StoreView(spec.store_url)

    @property
    def campaign_id(self) -> str:
        return self.record["id"]

    @property
    def state(self) -> str:
        """From the coordinator's exit code and the index record: a
        SIGKILLed or crashed coordinator is "failed"."""
        if self.child is None:
            return self.idle_state
        code = run.exit_code(self.child)
        if code is None:
            return "running"
        if code == 0:
            return "complete"
        return "cancelled" if self.record.get("cancelled") else "failed"

    def summary(self, **extra) -> dict:
        """What the campaign list and ``status`` both report, plus ``extra``."""
        info = {
            "id": self.campaign_id,
            "fingerprint": self.record["fingerprint"],
            "store_url": self.spec.store_url,
            "backend": self.spec.backend,
            "state": self.state,
            "cancelled": bool(self.record.get("cancelled")),
            **extra,
        }
        if info["state"] == "failed":
            info["error"] = f"coordinator exited with code {self.child and run.exit_code(self.child)}"
        info.update(self.view.progress())
        return info


class CampaignService:
    """Registry + execution policy behind the HTTP handler (and tests)."""

    # Guarded by self._lock (enforced by mutiny-lint MUT004): the registry
    # is mutated by every handler thread plus the rehydration pass.
    _lock_guarded = ("_campaigns",)

    def __init__(
        self,
        state_root: str,
        max_campaigns: int = DEFAULT_MAX_CAMPAIGNS,
        retry_after: int = DEFAULT_RETRY_AFTER,
    ):
        if max_campaigns < 1:
            raise ValueError(
                f"invalid --max-campaigns value {max_campaigns!r}: must be an integer >= 1"
            )
        self.state_root = resolve_store_url(state_root, option="--state")
        self.transport = transport_for(self.state_root)
        self.max_campaigns = max_campaigns
        self.retry_after = retry_after
        self._campaigns: dict[str, ManagedCampaign] = {}
        self._lock = threading.Lock()
        self._ready = threading.Event()

    # ------------------------------------------------------------- readiness

    @property
    def ready(self) -> bool:
        return self._ready.is_set()

    def rehydrate(self) -> int:
        """Rebuild the registry from the persisted index (startup / restart).

        Campaigns whose stores are already complete (or that were cancelled)
        come back as terminal records with no coordinator; anything in
        flight when the previous process died gets a fresh coordinator and
        *resumes* — the store scan skips every completed shard, so nothing
        replays.  Returns the number of campaigns recovered.
        """
        recovered = 0
        for key in self.transport.list(run.CAMPAIGN_INDEX_PREFIX):
            if not key.endswith(".json"):
                continue
            try:
                record = json.loads(self.transport.get(key))
                # summary(), _response() and status() index both keys.
                campaign_id, _ = record["id"], record["fingerprint"]
                managed = ManagedCampaign(record, run.spec_of(record), "pending")
            except (TransportKeyError, SpecError, KeyError, ValueError):
                continue  # a torn or foreign record must not block startup
            # The completeness probe reads the campaign's store — transport
            # round-trips that must not run under the registry lock (every
            # handler thread would stall behind startup I/O).  It also warms
            # the view, so the first poll after a restart downloads nothing.
            if record.get("cancelled") or managed.view.complete():
                managed.idle_state = "cancelled" if record.get("cancelled") else "complete"
            with self._lock:
                if campaign_id in self._campaigns:
                    continue
                self._campaigns[campaign_id] = managed
            if managed.idle_state == "pending":
                self._launch(managed)
            recovered += 1
        self._ready.set()
        return recovered

    # ------------------------------------------------------------ operations

    def submit(self, data: dict) -> tuple[int, dict]:
        """Admit a spec document; returns ``(http_status, response_body)``.

        Identity is content-derived, so resubmitting the same document is
        idempotent (200 with the existing campaign); a terminal failed or
        cancelled campaign is restarted by resubmission.  Raises
        :class:`SpecError` (400) or :class:`ServiceQuotaError` (429).
        """
        spec = CampaignSpec.from_dict(data)
        if not spec.store_url:
            raise SpecError(
                "service campaigns require store_url — the service is stateless "
                "and a campaign's results must live in a transport-backed store"
            )
        campaign_id = spec.campaign_id()
        # Admission and registry mutation happen under the lock so quota
        # accounting and idempotency stay atomic; the index-record transport
        # round-trip and the coordinator's start happen *after* release
        # (mutiny-lint MUT007): no handler waits behind the state store.
        with self._lock:
            existing = self._campaigns.get(campaign_id)
            if existing is not None:
                if existing.state not in ("failed", "cancelled"):
                    return 200, self._response(existing)
                self._admit_locked()
                existing.record["cancelled"] = False
                existing.child, existing.idle_state = None, "pending"
                managed, status, created = existing, 200, False
            else:
                self._admit_locked()
                record = {
                    "id": campaign_id,
                    "fingerprint": spec.fingerprint(),
                    "spec": spec.to_dict(),
                    "submitted_at": time.time(),
                    "cancelled": False,
                }
                managed = ManagedCampaign(record, spec, "pending")
                self._campaigns[campaign_id] = managed
                status, created = 201, True
        try:
            # Written before the coordinator, which reads its spec from it.
            # Restarts overwrite their own record; fresh submissions defer
            # to a replica that indexed the same content-derived id first.
            self._persist_record(managed.record, overwrite=not created)
        except TransportError:
            # Un-admit: a campaign the index cannot name would be orphaned
            # by the next rehydration, so free the quota slot and surface
            # the store failure to the client.
            with self._lock:
                managed.idle_state = "failed"
                if created:
                    self._campaigns.pop(campaign_id, None)
            raise
        self._launch(managed)
        return status, self._response(managed)

    def _launch(self, managed: ManagedCampaign) -> None:
        """Start the coordinator of a pending campaign; a cancel that landed
        while it was pending stops it at once."""
        try:
            child = run.start(self.state_root, managed.campaign_id)
        except BaseException:
            managed.idle_state = "failed"
            raise
        with self._lock:
            managed.child = child
            cancelled = bool(managed.record.get("cancelled"))
        if cancelled:
            child.terminate()

    def _admit_locked(self) -> None:
        running = sum(1 for campaign in self._campaigns.values() if campaign.state in ("pending", "running"))
        if running >= self.max_campaigns:
            raise ServiceQuotaError(
                f"campaign quota exhausted: {running} of {self.max_campaigns} "
                f"concurrent campaigns running; retry after {self.retry_after}s"
            )

    def _persist_record(self, record: dict, overwrite: bool) -> None:
        key = run.index_key(record["id"])
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        if overwrite:
            self.transport.put(key, payload)
        elif not self.transport.put_if_absent(key, payload):
            # A replica (or a predecessor of this process) indexed the same
            # campaign first; its record is authoritative.
            record.update(json.loads(self.transport.get(key)))

    def _response(self, managed: ManagedCampaign) -> dict:
        base = f"/v1/campaigns/{managed.campaign_id}"
        return {
            "id": managed.campaign_id,
            "fingerprint": managed.record["fingerprint"],
            "spec": managed.spec.to_dict(),
            "state": managed.state,
            "submitted_at": managed.record.get("submitted_at"),
            "links": {
                "self": base,
                "status": f"{base}/status",
                "tables": f"{base}/tables",
            },
        }

    def _get(self, campaign_id: str) -> ManagedCampaign:
        with self._lock:
            managed = self._campaigns.get(campaign_id)
        if managed is None:
            raise UnknownCampaignError(campaign_id)
        return managed

    def list_campaigns(self) -> dict:
        with self._lock:
            campaigns = list(self._campaigns.values())
        campaigns.sort(key=lambda managed: (managed.record.get("submitted_at") or 0.0))
        return {"campaigns": [each.summary(submitted_at=each.record.get("submitted_at")) for each in campaigns]}

    def describe(self, campaign_id: str) -> dict:
        return self._response(self._get(campaign_id))

    def cancel(self, campaign_id: str) -> dict:
        """Request cancellation and persist the intent, so a restarted
        service will not resurrect the campaign.  The coordinator gets
        SIGTERM and stops at its next batch or poll round."""
        managed = self._get(campaign_id)
        with self._lock:
            managed.record["cancelled"] = True
            child = managed.child
        if child is not None:
            child.terminate()
        # Persist the intent off-lock: the registry flip above is what other
        # handler threads need, and the index write is a transport
        # round-trip that must not hold them up (mutiny-lint MUT007).
        self._persist_record(managed.record, overwrite=True)
        return {"id": campaign_id, "state": managed.state, "cancelled": True}

    def close(self) -> None:
        """Stop every coordinator as this process's death would (a restart
        resumes them); multiprocessing joins them at interpreter exit."""
        with self._lock:
            children = [managed.child for managed in self._campaigns.values()]
        for child in filter(None, children):
            child.terminate()

    def document_bytes(self, campaign_id: str) -> Optional[bytes]:
        """The campaign's canonical inspect document, or ``None`` while the
        store has no manifest yet (the HTTP layer answers 503 then)."""
        return self._get(campaign_id).view.document()

    def tables(self, campaign_id: str) -> Optional[dict]:
        return self._get(campaign_id).view.tables()

    def status(self, campaign_id: str) -> dict:
        """Live distributed-run introspection: what ``inspect`` prints as
        provenance, as JSON — slices done, leases outstanding, counts."""
        managed = self._get(campaign_id)
        info = managed.summary()
        if managed.child is not None:
            info["cancel_requested"] = info["cancelled"]
        plan = managed.view.plan_summary()
        if plan is not None:
            info["plan"] = plan
        leases = SliceLeases(managed.view.root)
        info["slices_done"] = leases.done_records()
        info["outstanding_leases"] = [
            {
                "slice": lease.slice_id,
                "worker": lease.worker,
                "age": lease.age,
                "ttl": lease.ttl,
                "expired": lease.expired,
            }
            for lease in leases.outstanding()
        ]
        return info


# --------------------------------------------------------------------------
# HTTP layer
# --------------------------------------------------------------------------


class CampaignServiceServer(ThreadingHTTPServer):
    """HTTP front of a :class:`CampaignService` (in-process or standalone)."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: CampaignService):
        super().__init__(address, _Handler)
        self.service = service
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self, rehydrate: bool = True) -> "CampaignServiceServer":
        """Serve in a daemon thread; rehydration runs on its own thread so
        the listener (and ``/healthz``) is up immediately — ``/readyz``
        flips to 200 once the registry is rebuilt."""
        if rehydrate:
            threading.Thread(target=self.service.rehydrate, daemon=True).start()
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.server_close()
        self.service.close()


class _Handler(ResponseHandler):
    """Routing and JSON plumbing; all state lives on the service."""

    server: CampaignServiceServer

    @property
    def service(self) -> CampaignService:
        return self.server.service

    def _send_json(self, status: int, payload: dict, headers: Optional[dict] = None):
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self._send(status, body, {"Content-Type": "application/json", **(headers or {})})

    def _send_error(self, status: int, message: str, headers: Optional[dict] = None):
        self._send_json(status, {"error": message}, headers)

    def _route(self) -> tuple[str, Optional[str], Optional[str]]:
        """``(path, campaign_id, subresource)`` of the request URL."""
        path = urllib.parse.urlsplit(self.path).path.rstrip("/") or "/"
        parts = path.split("/")
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "campaigns":
            campaign_id = urllib.parse.unquote(parts[3])
            subresource = parts[4] if len(parts) == 5 else None
            return path, campaign_id, subresource
        return path, None, None

    # -------------------------------------------------------------- methods

    def do_GET(self):  # noqa: N802 - stdlib naming
        path, campaign_id, subresource = self._route()
        try:
            if path == "/healthz":
                self._send(200, b"ok", {"Content-Type": "text/plain"})
            elif path == "/readyz":
                if self.service.ready:
                    self._send(200, b"ready", {"Content-Type": "text/plain"})
                else:
                    self._send_error(503, "rehydrating", {"Retry-After": "1"})
            elif path == "/v1/campaigns":
                self._send_json(200, self.service.list_campaigns())
            elif campaign_id is not None and subresource is None:
                document = self.service.document_bytes(campaign_id)
                if document is None:
                    self._send_error(
                        503,
                        f"campaign {campaign_id} has no stored results yet",
                        {"Retry-After": "1"},
                    )
                else:
                    self._send(200, document, {"Content-Type": "application/json"})
            elif campaign_id is not None and subresource == "status":
                self._send_json(200, self.service.status(campaign_id))
            elif campaign_id is not None and subresource == "tables":
                tables = self.service.tables(campaign_id)
                if tables is None:
                    self._send_error(
                        503,
                        f"campaign {campaign_id} has no stored results yet",
                        {"Retry-After": "1"},
                    )
                else:
                    self._send_json(200, tables)
            else:
                self._send_error(404, f"unknown resource {path!r}")
        except UnknownCampaignError:
            self._send_error(404, f"unknown campaign {campaign_id!r}")
        except TransportError as error:
            self._send_error(502, f"store unreachable: {error}")

    def do_POST(self):  # noqa: N802
        path, _, _ = self._route()
        if path != "/v1/campaigns":
            self._send_error(404, f"unknown resource {path!r}")
            return
        raw = self._read_body()
        if raw is None:
            self._send_error(400, "Content-Length must be a non-negative integer")
            return
        try:
            data = json.loads((raw or b"{}").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._send_error(400, f"request body is not valid JSON: {error}")
            return
        try:
            status, payload = self.service.submit(data)
        except SpecError as error:
            self._send_error(400, str(error))
        except ServiceQuotaError as error:
            self._send_error(429, str(error), {"Retry-After": str(self.service.retry_after)})
        except TransportError as error:
            self._send_error(502, f"store unreachable: {error}")
        else:
            self._send_json(status, payload)

    def do_DELETE(self):  # noqa: N802
        path, campaign_id, subresource = self._route()
        if campaign_id is None or subresource is not None:
            self._send_error(404, f"unknown resource {path!r}")
            return
        try:
            self._send_json(200, self.service.cancel(campaign_id))
        except UnknownCampaignError:
            self._send_error(404, f"unknown campaign {campaign_id!r}")
        except TransportError as error:
            self._send_error(502, f"store unreachable: {error}")


def serve(
    host: str = "127.0.0.1",
    port: int = 8484,
    state_root: str = "campaign-service-state",
    max_campaigns: int = DEFAULT_MAX_CAMPAIGNS,
) -> CampaignServiceServer:
    """Blocking standalone service (the ``repro.cli serve`` entry point)."""
    service = CampaignService(state_root, max_campaigns=max_campaigns)
    server = CampaignServiceServer((host, port), service)
    print(
        f"campaign service listening on {server.url} "
        f"(state: {service.state_root}, quota: {max_campaigns})",
        flush=True,
    )
    threading.Thread(target=service.rehydrate, daemon=True).start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return server
