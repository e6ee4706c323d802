"""ReplicaSet controller.

Ensures that the number of Pods matching a ReplicaSet's label selector equals
``spec.replicas``.  Pods are associated with their ReplicaSet through two
mechanisms the paper calls out as critical (finding F2): label selectors and
owner references.  If either side of that relationship is corrupted, the
controller stops "seeing" the pods it already created and keeps spawning
replacements — the uncontrolled-replication pattern.
"""

from __future__ import annotations

from typing import Optional

from repro.apiserver.errors import ApiError
from repro.controllers.base import Controller
from repro.objects.kinds import make_pod
from repro.objects.meta import (
    controller_owner,
    deep_copy,
    make_owner_reference,
    object_key,
    owner_uids,
)
from repro.objects.selectors import matches_selector

#: Maximum number of pods created for one ReplicaSet in a single sync pass
#: (Kubernetes' slow-start batch behaviour).  The cap bounds the per-sync
#: burst, not the total: a broken selector still grows without limit.
BURST_CREATES = 10


def pod_is_active(pod: dict) -> bool:
    """True if the pod counts toward the replica total (not finished or terminating)."""
    status = pod.get("status", {})
    metadata = pod.get("metadata", {})
    phase = status.get("phase") if isinstance(status, dict) else None
    deletion = metadata.get("deletionTimestamp") if isinstance(metadata, dict) else None
    return phase not in ("Succeeded", "Failed") and deletion is None


def pod_is_ready(pod: dict) -> bool:
    """True if the pod is running and passing its readiness checks."""
    status = pod.get("status", {})
    if not isinstance(status, dict):
        return False
    return status.get("phase") == "Running" and bool(status.get("ready"))


class ReplicaSetController(Controller):
    """Reconcile ReplicaSets against the Pods that match their selectors."""

    name = "replicaset"
    watches = ("ReplicaSet", "Pod")

    def __init__(self, sim, client, pod_name_suffix_source=None):
        super().__init__(sim, client)
        self._suffix_counter = 0
        self.pods_created = 0

    def reconcile_all(self) -> None:
        # Read-only refs (informer contract); the adoption and status-update
        # paths copy before they mutate.
        replicasets = self.client.list("ReplicaSet", copy=False)
        pods = self.client.list("Pod", copy=False)
        for replicaset in replicasets:
            key = object_key(replicaset)
            if self.key_backoff_active(key):
                continue
            try:
                self._reconcile_one(replicaset, pods)
                self.record_key_success(key)
            except ApiError:
                self.record_key_failure(key)

    # ------------------------------------------------------------------ logic

    def _reconcile_one(self, replicaset: dict, all_pods: list[dict]) -> None:
        metadata = replicaset.get("metadata", {})
        spec = replicaset.get("spec", {})
        if not isinstance(metadata, dict) or not isinstance(spec, dict):
            return
        namespace = metadata.get("namespace", "default")
        rs_uid = metadata.get("uid")
        selector = spec.get("selector")
        desired = self.safe_int(spec.get("replicas"), default=0)

        namespace_pods = [
            pod
            for pod in all_pods
            if isinstance(pod.get("metadata"), dict)
            and pod["metadata"].get("namespace") == namespace
        ]
        managed = self._claim_pods(replicaset, rs_uid, selector, namespace_pods)
        active = [pod for pod in managed if pod_is_active(pod)]

        diff = desired - len(active)
        if diff > 0:
            for _ in range(min(diff, BURST_CREATES)):
                self._create_pod(replicaset)
        elif diff < 0:
            for victim in self._pods_to_delete(active, -diff):
                self._delete_pod(victim)

        self._update_status(replicaset, active)

    def _claim_pods(self, replicaset, rs_uid, selector, namespace_pods) -> list[dict]:
        """Return the pods this ReplicaSet manages, adopting matching orphans."""
        managed = []
        for pod in namespace_pods:
            if not matches_selector(selector, pod):
                continue
            owners = owner_uids(pod)
            if rs_uid in owners:
                managed.append(pod)
                continue
            if controller_owner(pod) is None:
                adopted = self._adopt(replicaset, pod)
                if adopted is not None:
                    managed.append(adopted)
        return managed

    def _adopt(self, replicaset: dict, pod: dict) -> Optional[dict]:
        pod = deep_copy(pod)  # listed refs are read-only
        pod["metadata"].setdefault("ownerReferences", [])
        if not isinstance(pod["metadata"]["ownerReferences"], list):
            pod["metadata"]["ownerReferences"] = []
        pod["metadata"]["ownerReferences"].append(make_owner_reference(replicaset))
        try:
            return self.client.update("Pod", pod)
        except ApiError:
            return None

    def _create_pod(self, replicaset: dict) -> None:
        metadata = replicaset["metadata"]
        spec = replicaset["spec"]
        template = spec.get("template", {})
        template_meta = template.get("metadata", {}) if isinstance(template, dict) else {}
        template_spec = template.get("spec", {}) if isinstance(template, dict) else {}
        labels = template_meta.get("labels", {}) if isinstance(template_meta, dict) else {}
        self._suffix_counter += 1
        pod = make_pod(
            name=f"{metadata.get('name', 'replicaset')}-{self._suffix_counter:05d}",
            namespace=metadata.get("namespace", "default"),
            labels=labels if isinstance(labels, dict) else {},
            containers=template_spec.get("containers") if isinstance(template_spec, dict) else None,
            priority=self.safe_int(
                template_spec.get("priority") if isinstance(template_spec, dict) else 0
            ),
            tolerations=template_spec.get("tolerations") if isinstance(template_spec, dict) else None,
            volumes=template_spec.get("volumes") if isinstance(template_spec, dict) else None,
            owner_references=[make_owner_reference(replicaset)],
        )
        self.pods_created += 1
        self.client.create("Pod", pod)

    def _delete_pod(self, pod: dict) -> None:
        metadata = pod.get("metadata", {})
        self.client.delete(
            "Pod", metadata.get("name", ""), namespace=metadata.get("namespace", "default")
        )

    @staticmethod
    def _pods_to_delete(active: list[dict], count: int) -> list[dict]:
        """Choose which pods to scale down: not-ready pods first, then newest."""

        def sort_key(pod: dict):
            ready = pod_is_ready(pod)
            created = pod.get("metadata", {}).get("creationTimestamp") or 0.0
            return (ready, -created if isinstance(created, (int, float)) else 0.0)

        return sorted(active, key=sort_key)[:count]

    def _update_status(self, replicaset: dict, active: list[dict]) -> None:
        status = replicaset.get("status", {})
        if not isinstance(status, dict):
            return
        ready = sum(1 for pod in active if pod_is_ready(pod))
        new_status = {
            "replicas": len(active),
            "readyReplicas": ready,
            "availableReplicas": ready,
            "observedGeneration": replicaset.get("metadata", {}).get("generation", 1),
        }
        if all(status.get(key) == value for key, value in new_status.items()):
            return
        replicaset = deep_copy(replicaset)  # listed refs are read-only
        updated = replicaset.setdefault("status", {})
        if isinstance(updated, dict):
            updated.update(new_status)
        try:
            self.client.update_status("ReplicaSet", replicaset)
        except ApiError:
            pass
