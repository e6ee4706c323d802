"""Deployment controller.

A Deployment manages ReplicaSets: it keeps one ReplicaSet per pod-template
revision and moves replicas from old ReplicaSets to the newest one within the
``maxUnavailable`` / ``maxSurge`` bounds of its rolling-update strategy.
Those bounds are one of the resiliency strategies the paper lists: they limit
the blast radius of a bad template update.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.apiserver.errors import ApiError
from repro.controllers.base import Controller
from repro.objects.kinds import make_replicaset
from repro.objects.meta import make_owner_reference, object_key, owner_uids


def template_hash(template: dict) -> str:
    """Return a stable short hash of a pod template (labels + spec)."""
    try:
        payload = json.dumps(template, sort_keys=True, default=str)
    except (TypeError, ValueError):
        payload = repr(template)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]


class DeploymentController(Controller):
    """Reconcile Deployments by managing their ReplicaSets."""

    name = "deployment"
    watches = ("Deployment", "ReplicaSet")

    def reconcile_all(self) -> None:
        deployments = self.client.list("Deployment")
        replicasets = self.client.list("ReplicaSet")
        for deployment in deployments:
            key = object_key(deployment)
            if self.key_backoff_active(key):
                continue
            try:
                self._reconcile_one(deployment, replicasets)
                self.record_key_success(key)
            except ApiError:
                self.record_key_failure(key)

    # ------------------------------------------------------------------ logic

    def _reconcile_one(self, deployment: dict, all_replicasets: list[dict]) -> None:
        metadata = deployment.get("metadata", {})
        spec = deployment.get("spec", {})
        if not isinstance(metadata, dict) or not isinstance(spec, dict):
            return
        namespace = metadata.get("namespace", "default")
        deploy_uid = metadata.get("uid")
        desired = self.safe_int(spec.get("replicas"), default=0)
        template = spec.get("template", {})
        current_hash = template_hash(template if isinstance(template, dict) else {})

        owned = [
            replicaset
            for replicaset in all_replicasets
            if isinstance(replicaset.get("metadata"), dict)
            and replicaset["metadata"].get("namespace") == namespace
            and deploy_uid in owner_uids(replicaset)
        ]
        new_rs = self._find_new_replicaset(owned, current_hash)
        old_rs = [replicaset for replicaset in owned if replicaset is not new_rs]

        if new_rs is None:
            new_rs = self._create_replicaset(deployment, current_hash, desired if not owned else 0)
            if new_rs is None:
                return

        strategy = spec.get("strategy", {}) if isinstance(spec.get("strategy"), dict) else {}
        rolling = strategy.get("rollingUpdate", {}) if isinstance(strategy, dict) else {}
        max_surge = self.safe_int(rolling.get("maxSurge") if isinstance(rolling, dict) else 1, 1)
        max_unavailable = self.safe_int(
            rolling.get("maxUnavailable") if isinstance(rolling, dict) else 0, 0
        )

        self._scale(deployment, new_rs, old_rs, desired, max_surge, max_unavailable)
        self._update_status(deployment, new_rs, old_rs)

    @staticmethod
    def _find_new_replicaset(owned: list[dict], current_hash: str) -> Optional[dict]:
        for replicaset in owned:
            metadata = replicaset.get("metadata", {})
            labels = metadata.get("labels", {}) if isinstance(metadata, dict) else {}
            if isinstance(labels, dict) and labels.get("pod-template-hash") == current_hash:
                return replicaset
        return None

    def _create_replicaset(self, deployment: dict, current_hash: str, replicas: int) -> Optional[dict]:
        metadata = deployment["metadata"]
        spec = deployment["spec"]
        template = spec.get("template", {})
        selector = spec.get("selector", {})
        rs_labels = dict(metadata.get("labels", {})) if isinstance(metadata.get("labels"), dict) else {}
        rs_labels["pod-template-hash"] = current_hash
        replicaset = make_replicaset(
            name=f"{metadata.get('name', 'deployment')}-{current_hash}",
            namespace=metadata.get("namespace", "default"),
            replicas=replicas,
            labels=rs_labels,
            selector=selector if isinstance(selector, dict) else None,
            template=template if isinstance(template, dict) else None,
            owner_references=[make_owner_reference(deployment)],
        )
        # The ReplicaSet's own labels carry the template hash, but its selector
        # and template are taken verbatim from the Deployment spec.
        try:
            return self.client.create("ReplicaSet", replicaset)
        except ApiError:
            return None

    def _scale(self, deployment, new_rs, old_rs, desired, max_surge, max_unavailable) -> None:
        new_spec = new_rs.get("spec", {})
        if not isinstance(new_spec, dict):
            return
        old_total = sum(
            self.safe_int(rs.get("spec", {}).get("replicas"), 0)
            for rs in old_rs
            if isinstance(rs.get("spec"), dict)
        )
        current_new = self.safe_int(new_spec.get("replicas"), 0)

        if not old_rs or old_total == 0:
            target_new = desired
        else:
            # Rolling update: the total may exceed the desired count by at
            # most maxSurge, and the number of ready replicas may fall below
            # the desired count by at most maxUnavailable.
            allowed_total = desired + max_surge
            target_new = min(desired, max(current_new, allowed_total - old_total))

        if target_new != current_new:
            new_spec["replicas"] = target_new
            self.client.update("ReplicaSet", new_rs)

        if old_rs:
            ready_new = self.safe_int(new_rs.get("status", {}).get("readyReplicas"), 0)
            ready_old = sum(
                self.safe_int(rs.get("status", {}).get("readyReplicas"), 0) for rs in old_rs
            )
            # Old replicas may be removed as long as the total number of ready
            # replicas stays at or above (desired - maxUnavailable).
            min_available = max(0, desired - max_unavailable)
            budget = min(old_total, max(0, ready_new + ready_old - min_available))
            for replicaset in sorted(old_rs, key=lambda rs: object_key(rs)):
                if budget <= 0:
                    break
                spec_old = replicaset.get("spec", {})
                if not isinstance(spec_old, dict):
                    continue
                current = self.safe_int(spec_old.get("replicas"), 0)
                if current == 0:
                    continue
                reduce_by = min(current, budget)
                spec_old["replicas"] = current - reduce_by
                budget -= reduce_by
                try:
                    self.client.update("ReplicaSet", replicaset)
                except ApiError:
                    continue

    def _update_status(self, deployment, new_rs, old_rs) -> None:
        status = deployment.setdefault("status", {})
        if not isinstance(status, dict):
            return
        all_rs = [new_rs] + list(old_rs)
        replicas = sum(self.safe_int(rs.get("status", {}).get("replicas"), 0) for rs in all_rs)
        ready = sum(self.safe_int(rs.get("status", {}).get("readyReplicas"), 0) for rs in all_rs)
        new_status = {
            "replicas": replicas,
            "readyReplicas": ready,
            "availableReplicas": ready,
            "updatedReplicas": self.safe_int(new_rs.get("status", {}).get("replicas"), 0),
            "observedGeneration": deployment.get("metadata", {}).get("generation", 1),
        }
        if all(status.get(key) == value for key, value in new_status.items()):
            return
        status.update(new_status)
        try:
            self.client.update_status("Deployment", deployment)
        except ApiError:
            pass
