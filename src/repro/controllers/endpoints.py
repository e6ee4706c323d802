"""Endpoints controller.

For every Service, the controller publishes the set of ready Pod IPs that
match the Service's selector.  kube-proxy instances load-balance client
requests over exactly this list, so a corrupted Service selector, a corrupted
pod label, or a corrupted Endpoints object translates directly into the
paper's Service Network (Net) failures: the right number of pods is running
but traffic no longer reaches them.
"""

from __future__ import annotations

from repro.apiserver.errors import ApiError, NotFoundError
from repro.controllers.base import Controller
from repro.controllers.replicaset import pod_is_ready
from repro.objects.kinds import make_endpoints
from repro.objects.meta import make_owner_reference, object_key
from repro.objects.selectors import labels_subset


class EndpointsController(Controller):
    """Reconcile Endpoints objects from Services and ready Pods."""

    name = "endpoints"
    watches = ("Service", "Pod", "Endpoints")

    def reconcile_all(self) -> None:
        # Read-only refs (informer contract): the desired Endpoints object is
        # built from scratch; only the fetched ``existing`` copy is mutated.
        services = self.client.list("Service", copy=False)
        pods = self.client.list("Pod", copy=False)
        for service in services:
            key = object_key(service)
            if self.key_backoff_active(key):
                continue
            try:
                self._reconcile_one(service, pods)
                self.record_key_success(key)
            except ApiError:
                self.record_key_failure(key)

    def _reconcile_one(self, service: dict, all_pods: list[dict]) -> None:
        metadata = service.get("metadata", {})
        spec = service.get("spec", {})
        if not isinstance(metadata, dict) or not isinstance(spec, dict):
            return
        namespace = metadata.get("namespace", "default")
        name = metadata.get("name")
        selector = spec.get("selector")
        if not isinstance(name, str):
            return
        if not isinstance(selector, dict) or not selector:
            # Services without a (valid) selector manage their endpoints
            # manually; the controller leaves whatever is stored in place.
            # After a selector corruption this means the endpoints go stale.
            return

        addresses = []
        for pod in all_pods:
            pod_meta = pod.get("metadata", {})
            if not isinstance(pod_meta, dict) or pod_meta.get("namespace") != namespace:
                continue
            labels = pod_meta.get("labels", {})
            if not labels_subset(selector, labels if isinstance(labels, dict) else {}):
                continue
            if not pod_is_ready(pod):
                continue
            pod_ip = pod.get("status", {}).get("podIP")
            if not isinstance(pod_ip, str) or not pod_ip:
                continue
            addresses.append(
                {
                    "ip": pod_ip,
                    "nodeName": pod.get("spec", {}).get("nodeName"),
                    "targetRef": {
                        "kind": "Pod",
                        "name": pod_meta.get("name"),
                        "uid": pod_meta.get("uid"),
                    },
                }
            )
        addresses.sort(key=lambda entry: entry["ip"])

        ports = spec.get("ports", [])
        target_port = 8080
        if isinstance(ports, list) and ports and isinstance(ports[0], dict):
            candidate = ports[0].get("targetPort")
            if isinstance(candidate, int) and not isinstance(candidate, bool):
                target_port = candidate

        try:
            existing = self.client.get("Endpoints", name, namespace=namespace)
        except NotFoundError:
            existing = None

        if existing is None:
            endpoints = make_endpoints(
                name,
                namespace=namespace,
                addresses=addresses,
                port=target_port,
                owner_references=[make_owner_reference(service)],
            )
            self.client.create("Endpoints", endpoints)
            return

        subsets = existing.get("subsets")
        desired_subsets = [
            {"addresses": addresses, "ports": [{"port": target_port, "protocol": "TCP"}]}
        ]
        if subsets == desired_subsets:
            return
        existing["subsets"] = desired_subsets
        self.client.update("Endpoints", existing)
