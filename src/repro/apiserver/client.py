"""Component-side API client.

Every control-plane and node component (Kcm, Scheduler, Kubelets, kube-proxy,
the kbench workload driver) talks to the Apiserver through an
:class:`APIClient`.  The client serializes requests before "sending" them,
which gives the Mutiny injector its second channel: messages from a component
to the Apiserver can be corrupted *before* they undergo validation and
admission — the propagation experiments of paper §V-C4 (Table VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.apiserver.apiserver import APIServer, RequestRecord
from repro.apiserver.errors import ApiError, InvalidObjectError
from repro.serialization import DecodeError, decode, encode


@dataclass
class RequestContext:
    """Metadata describing one component→Apiserver request."""

    component: str
    kind: str
    operation: str
    name: str
    namespace: Optional[str]


#: Request hook signature: receives the request context and serialized bytes;
#: returns possibly-modified bytes, or None to drop the request client-side.
RequestHook = Callable[[RequestContext, bytes], Optional[bytes]]


class APIClient:
    """A component's handle on the Apiserver."""

    def __init__(self, apiserver: APIServer, component: str):
        self.apiserver = apiserver
        self.component = component
        self._request_hook: Optional[RequestHook] = None
        self.requests_sent = 0
        self.requests_failed = 0

    def set_request_hook(self, hook: Optional[RequestHook]) -> None:
        """Install (or clear) the hook used to corrupt outgoing requests."""
        self._request_hook = hook

    # ------------------------------------------------------------------ reads

    def get(
        self, kind: str, name: str, namespace: Optional[str] = "default", copy: bool = True
    ) -> dict:
        """Fetch a resource instance.

        ``copy=False`` returns a read-only reference into the apiserver's
        watch cache (the informer contract): cheaper, but the caller must
        never mutate the result.
        """
        return self.apiserver.get(kind, name, namespace=namespace, copy=copy)

    def list(
        self,
        kind: str,
        namespace: Optional[str] = None,
        label_selector: Optional[dict[str, str]] = None,
        field_selector: Optional[dict[str, object]] = None,
        copy: bool = True,
    ) -> list[dict]:
        """List resource instances (``copy=False``: read-only cache refs)."""
        return self.apiserver.list(
            kind,
            namespace=namespace,
            label_selector=label_selector,
            field_selector=field_selector,
            copy=copy,
        )

    # ----------------------------------------------------------------- writes

    def create(self, kind: str, obj: dict) -> dict:
        """Create a resource instance through the (hookable) request channel."""
        return self._send(kind, obj, "create")

    def update(self, kind: str, obj: dict) -> dict:
        """Update a resource instance through the (hookable) request channel."""
        return self._send(kind, obj, "update")

    def update_status(self, kind: str, obj: dict) -> dict:
        """Update a resource's status through the (hookable) request channel."""
        return self._send(kind, obj, "status")

    def delete(self, kind: str, name: str, namespace: Optional[str] = "default") -> bool:
        """Delete a resource instance."""
        self.requests_sent += 1
        try:
            return self.apiserver.delete(kind, name, namespace=namespace, actor=self.component)
        except ApiError:
            self.requests_failed += 1
            raise

    # -------------------------------------------------------------- internals

    def _send(self, kind: str, obj: dict, operation: str) -> dict:
        self.requests_sent += 1
        metadata = obj.get("metadata", {}) if isinstance(obj, dict) else {}
        context = RequestContext(
            component=self.component,
            kind=kind,
            operation=operation,
            name=str(metadata.get("name", "<unknown>")),
            namespace=metadata.get("namespace") if isinstance(metadata, dict) else None,
        )
        payload = obj
        if self._request_hook is not None:
            data = encode(obj)
            data = self._request_hook(context, data)
            if data is None:
                # The request is silently dropped before it leaves the
                # component (message-drop fault on this channel).
                return obj
            try:
                payload = decode(data)
            except DecodeError as exc:
                # A corrupted request that no longer parses is rejected by the
                # Apiserver exactly as an unparseable HTTP body would be.
                self.requests_failed += 1
                self.apiserver.request_log.append(
                    RequestRecord(
                        time=self.apiserver.sim.now,
                        actor=self.component,
                        operation=operation,
                        kind=kind,
                        name=context.name,
                        namespace=context.namespace,
                        error=f"BadRequest: undecodable request body ({exc})",
                    )
                )
                raise InvalidObjectError(f"request body could not be decoded: {exc}") from exc
        try:
            if operation == "create":
                return self.apiserver.create(kind, payload, actor=self.component)
            if operation == "update":
                return self.apiserver.update(kind, payload, actor=self.component)
            return self.apiserver.update_status(kind, payload, actor=self.component)
        except ApiError:
            self.requests_failed += 1
            raise
