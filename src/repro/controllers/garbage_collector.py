"""Garbage collector.

Deletes objects whose controller owner no longer exists (cascading deletion
through owner references).  Owner references are the second half of the
dependency-tracking machinery the paper's F2 finding identifies as critical:
corrupting an ``ownerReferences`` entry can either orphan an object (so it is
never cleaned up — a More Resources failure) or, if the corrupted UID points
at nothing, cause the garbage collector to delete a live object.
"""

from __future__ import annotations

from repro.apiserver.errors import ApiError
from repro.controllers.base import Controller
from repro.objects.kinds import KINDS
from repro.objects.meta import controller_owner


class GarbageCollector(Controller):
    """Cascade deletion through controller owner references."""

    name = "garbage-collector"
    # Level-triggered: the pass reads every kind, Lease included, and the
    # component leader and node heartbeat renewals move the Lease revision on
    # every tick.
    watches = ()

    def __init__(self, sim, client):
        super().__init__(sim, client)
        self.collected = 0

    def reconcile_all(self) -> None:
        all_objects: list[tuple[str, dict]] = []
        known_uids: set[str] = set()
        for kind, info in KINDS.items():
            if kind == "Event":
                continue
            try:
                # Read-only refs (informer contract): the collector only
                # inspects owner references and issues deletes through the API.
                objects = self.client.list(kind, copy=False)
            except ApiError:
                continue
            for obj in objects:
                metadata = obj.get("metadata", {})
                if isinstance(metadata, dict) and isinstance(metadata.get("uid"), str):
                    known_uids.add(metadata["uid"])
                all_objects.append((kind, obj))

        for kind, obj in all_objects:
            owner = controller_owner(obj)
            if owner is None:
                continue
            owner_uid = owner.get("uid")
            if not isinstance(owner_uid, str) or owner_uid in known_uids:
                continue
            metadata = obj.get("metadata", {})
            if not isinstance(metadata, dict):
                continue
            self.collected += 1
            try:
                self.client.delete(
                    kind, metadata.get("name", ""), namespace=metadata.get("namespace", "default")
                )
            except ApiError:
                continue
