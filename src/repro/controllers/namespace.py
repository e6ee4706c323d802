"""Namespace controller.

Deleting a Namespace deletes everything inside it.  The paper's FFDA lists
erroneous namespace deletion among the human mistakes that caused real-world
cluster outages; the controller implements the cascade so that those
scenarios can be reproduced.
"""

from __future__ import annotations

from repro.apiserver.errors import ApiError
from repro.controllers.base import Controller
from repro.objects.kinds import KINDS

#: Namespaces that always exist and are never garbage collected.
SYSTEM_NAMESPACES = ("default", "kube-system", "kube-node-lease", "kube-public")


class NamespaceController(Controller):
    """Delete the contents of namespaces that no longer exist."""

    name = "namespace"
    # Level-triggered: the pass reads every namespaced kind, Lease included,
    # and the node heartbeat renewals move the Lease revision on every tick.
    watches = ()

    def __init__(self, sim, client):
        super().__init__(sim, client)
        self.cascaded_deletes = 0

    def reconcile_all(self) -> None:
        namespaces = {
            namespace.get("metadata", {}).get("name")
            for namespace in self.client.list("Namespace", copy=False)
            if isinstance(namespace.get("metadata"), dict)
        }
        namespaces.update(SYSTEM_NAMESPACES)

        for kind, info in KINDS.items():
            if not info["namespaced"] or kind == "Event":
                continue
            try:
                objects = self.client.list(kind, copy=False)
            except ApiError:
                continue
            for obj in objects:
                metadata = obj.get("metadata", {})
                if not isinstance(metadata, dict):
                    continue
                namespace = metadata.get("namespace")
                if namespace in namespaces or not isinstance(namespace, str):
                    continue
                self.cascaded_deletes += 1
                try:
                    self.client.delete(kind, metadata.get("name", ""), namespace=namespace)
                except ApiError:
                    continue
