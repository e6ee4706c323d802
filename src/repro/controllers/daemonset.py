"""DaemonSet controller.

A DaemonSet keeps exactly one Pod per eligible Node.  The networking manager
(flannel in the paper's testbed) and other node agents are DaemonSets, and
their pods run with system-node-critical priority.  That combination is what
turns a corrupted selector or template label into the paper's flagship
failure: the controller stops recognising its pods, spawns replacements in a
loop, and the high-priority replacements preempt every application pod.
"""

from __future__ import annotations

from repro.apiserver.errors import ApiError
from repro.controllers.base import Controller
from repro.controllers.replicaset import pod_is_active, pod_is_ready
from repro.objects.kinds import PRIORITY_SYSTEM_NODE_CRITICAL, make_pod
from repro.objects.meta import (
    controller_owner,
    deep_copy,
    make_owner_reference,
    object_key,
    owner_uids,
)
from repro.objects.selectors import matches_selector

#: Per-sync creation cap per DaemonSet (slow-start batch), mirroring
#: :data:`repro.controllers.replicaset.BURST_CREATES`.
BURST_CREATES = 10


def toleration_matches(toleration: dict, taint: dict) -> bool:
    """True if a single toleration tolerates a single taint."""
    if not isinstance(toleration, dict) or not isinstance(taint, dict):
        return False
    if toleration.get("operator") == "Exists" and "key" not in toleration:
        return True
    if toleration.get("key") != taint.get("key"):
        return False
    effect = toleration.get("effect")
    if effect and effect != taint.get("effect"):
        return False
    if toleration.get("operator") == "Exists":
        return True
    return toleration.get("value") == taint.get("value")


def tolerates_taints(pod_spec: dict, taints: list) -> bool:
    """True if the pod spec tolerates every NoSchedule/NoExecute taint in the list."""
    if not isinstance(taints, list) or not taints:
        return True
    tolerations = pod_spec.get("tolerations", []) if isinstance(pod_spec, dict) else []
    if not isinstance(tolerations, list):
        tolerations = []
    for taint in taints:
        if not isinstance(taint, dict):
            continue
        if taint.get("effect") not in ("NoSchedule", "NoExecute"):
            continue
        if not any(toleration_matches(toleration, taint) for toleration in tolerations):
            return False
    return True


class DaemonSetController(Controller):
    """Reconcile DaemonSets: one matching Pod per eligible Node."""

    name = "daemonset"
    watches = ("DaemonSet", "Node", "Pod")

    def __init__(self, sim, client):
        super().__init__(sim, client)
        self._suffix_counter = 0
        self.pods_created = 0

    def reconcile_all(self) -> None:
        # Read-only refs (informer contract); the status-update path copies
        # before it mutates.
        daemonsets = self.client.list("DaemonSet", copy=False)
        nodes = self.client.list("Node", copy=False)
        pods = self.client.list("Pod", copy=False)
        for daemonset in daemonsets:
            key = object_key(daemonset)
            if self.key_backoff_active(key):
                continue
            try:
                self._reconcile_one(daemonset, nodes, pods)
                self.record_key_success(key)
            except ApiError:
                self.record_key_failure(key)

    # ------------------------------------------------------------------ logic

    def _reconcile_one(self, daemonset: dict, nodes: list[dict], all_pods: list[dict]) -> None:
        metadata = daemonset.get("metadata", {})
        spec = daemonset.get("spec", {})
        if not isinstance(metadata, dict) or not isinstance(spec, dict):
            return
        namespace = metadata.get("namespace", "kube-system")
        ds_uid = metadata.get("uid")
        selector = spec.get("selector")
        template = spec.get("template", {})
        template_spec = template.get("spec", {}) if isinstance(template, dict) else {}

        eligible = {
            node["metadata"]["name"]
            for node in nodes
            if isinstance(node.get("metadata"), dict)
            and isinstance(node.get("spec"), dict)
            and not node["spec"].get("unschedulable")
            and tolerates_taints(template_spec, node["spec"].get("taints", []))
        }

        namespace_pods = [
            pod
            for pod in all_pods
            if isinstance(pod.get("metadata"), dict)
            and pod["metadata"].get("namespace") == namespace
        ]
        managed = [
            pod
            for pod in namespace_pods
            if matches_selector(selector, pod)
            and (ds_uid in owner_uids(pod) or controller_owner(pod) is None)
        ]

        pods_by_node: dict[str, list[dict]] = {}
        for pod in managed:
            node_name = pod.get("spec", {}).get("nodeName")
            if isinstance(node_name, str):
                pods_by_node.setdefault(node_name, []).append(pod)

        created = 0
        ready_count = 0
        scheduled_count = 0
        for node_name in sorted(eligible):
            node_pods = [pod for pod in pods_by_node.get(node_name, []) if pod_is_active(pod)]
            if not node_pods:
                if created < BURST_CREATES:
                    self._create_pod(daemonset, node_name)
                    created += 1
                continue
            scheduled_count += 1
            ready_count += sum(1 for pod in node_pods if pod_is_ready(pod))
            for extra in node_pods[1:]:
                self._delete_pod(extra)

        # Pods on nodes that are no longer eligible are removed.
        for node_name, node_pods in pods_by_node.items():
            if node_name in eligible:
                continue
            for pod in node_pods:
                if pod_is_active(pod):
                    self._delete_pod(pod)

        self._update_status(daemonset, len(eligible), scheduled_count, ready_count)

    def _create_pod(self, daemonset: dict, node_name: str) -> None:
        metadata = daemonset["metadata"]
        spec = daemonset["spec"]
        template = spec.get("template", {})
        template_meta = template.get("metadata", {}) if isinstance(template, dict) else {}
        template_spec = template.get("spec", {}) if isinstance(template, dict) else {}
        labels = template_meta.get("labels", {}) if isinstance(template_meta, dict) else {}
        self._suffix_counter += 1
        pod = make_pod(
            name=f"{metadata.get('name', 'daemonset')}-{node_name}-{self._suffix_counter:05d}",
            namespace=metadata.get("namespace", "kube-system"),
            labels=labels if isinstance(labels, dict) else {},
            containers=template_spec.get("containers") if isinstance(template_spec, dict) else None,
            node_name=node_name,
            priority=self.safe_int(
                template_spec.get("priority") if isinstance(template_spec, dict) else None,
                PRIORITY_SYSTEM_NODE_CRITICAL,
            ),
            tolerations=template_spec.get("tolerations") if isinstance(template_spec, dict) else None,
            owner_references=[make_owner_reference(daemonset)],
        )
        self.pods_created += 1
        self.client.create("Pod", pod)

    def _delete_pod(self, pod: dict) -> None:
        metadata = pod.get("metadata", {})
        try:
            self.client.delete(
                "Pod", metadata.get("name", ""), namespace=metadata.get("namespace", "kube-system")
            )
        except ApiError:
            pass

    def _update_status(self, daemonset, desired, scheduled, ready) -> None:
        status = daemonset.get("status", {})
        if not isinstance(status, dict):
            return
        new_status = {
            "desiredNumberScheduled": desired,
            "currentNumberScheduled": scheduled,
            "numberReady": ready,
            "observedGeneration": daemonset.get("metadata", {}).get("generation", 1),
        }
        if all(status.get(key) == value for key, value in new_status.items()):
            return
        daemonset = deep_copy(daemonset)  # listed refs are read-only
        updated = daemonset.setdefault("status", {})
        if isinstance(updated, dict):
            updated.update(new_status)
        try:
            self.client.update_status("DaemonSet", daemonset)
        except ApiError:
            pass
