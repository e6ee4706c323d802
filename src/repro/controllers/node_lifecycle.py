"""Node lifecycle controller.

Tracks node health through the heartbeat Leases the kubelets renew, marks
nodes NotReady when heartbeats stop, and evicts the pods of nodes that stay
unhealthy past the eviction timeout.  It also implements the two behaviours
the paper's outage analysis hinges on:

* **Full disruption mode** — when *every* node looks unhealthy the controller
  stops evicting, because the problem is more likely in the heartbeat path
  (e.g. the Apiserver) than in all nodes at once.  The GKE outage of
  Figure 2 is what happens on a managed platform without this guard.
* **NoExecute taints** — pods that do not tolerate a node's NoExecute taint
  are evicted, which is how the failover workload simulates a node failure.
"""

from __future__ import annotations

from typing import Optional

from repro.apiserver.errors import ApiError
from repro.controllers.base import Controller
from repro.controllers.daemonset import tolerates_taints
from repro.objects.meta import controller_owner, deep_copy

#: Seconds without a heartbeat before a node is marked NotReady
#: (kube-controller-manager's default node-monitor-grace-period).
NODE_GRACE_PERIOD = 40.0

#: Seconds a node may stay NotReady before its pods are evicted.  The
#: Kubernetes default is 300 s; the simulated clusters use a shorter value so
#: that eviction storms fit inside an experiment window.
POD_EVICTION_TIMEOUT = 60.0


class NodeLifecycleController(Controller):
    """Mark unhealthy nodes and evict their pods."""

    name = "node-lifecycle"
    # Level-triggered: heartbeat freshness compares Lease ``renewTime`` with
    # ``sim.now``, so the pass's output moves with the clock alone.
    watches = ()

    def __init__(
        self,
        sim,
        client,
        grace_period: float = NODE_GRACE_PERIOD,
        eviction_timeout: float = POD_EVICTION_TIMEOUT,
    ):
        super().__init__(sim, client)
        self.grace_period = grace_period
        self.eviction_timeout = eviction_timeout
        self._not_ready_since: dict[str, float] = {}
        self.evictions = 0
        self.full_disruption_mode = False

    def reconcile_all(self) -> None:
        # Read-only refs (informer contract): evictions go through the API and
        # ``_set_ready_condition`` copies the one node whose condition flips.
        nodes = self.client.list("Node", copy=False)
        if not nodes:
            return
        leases = {
            lease.get("metadata", {}).get("name"): lease
            for lease in self.client.list("Lease", namespace="kube-node-lease", copy=False)
            if isinstance(lease.get("metadata"), dict)
        }
        pods = self.client.list("Pod", copy=False)

        unhealthy = []
        for node in nodes:
            healthy = self._node_heartbeat_fresh(node, leases)
            self._set_ready_condition(node, healthy)
            name = node.get("metadata", {}).get("name")
            if not isinstance(name, str):
                continue
            if healthy:
                self._not_ready_since.pop(name, None)
            else:
                self._not_ready_since.setdefault(name, self.sim.now)
                unhealthy.append(node)

        # Full disruption mode: every node unhealthy → do not evict anything.
        self.full_disruption_mode = bool(nodes) and len(unhealthy) == len(nodes)
        if not self.full_disruption_mode:
            for node in unhealthy:
                name = node.get("metadata", {}).get("name")
                since = self._not_ready_since.get(name, self.sim.now)
                if self.sim.now - since >= self.eviction_timeout:
                    self._evict_node_pods(name, pods)

        # NoExecute taint manager: evict pods that do not tolerate the taints
        # of the node they run on.
        self._enforce_noexecute_taints(nodes, pods)

    # ------------------------------------------------------------------ logic

    def _node_heartbeat_fresh(self, node: dict, leases: dict) -> bool:
        name = node.get("metadata", {}).get("name")
        lease = leases.get(name)
        if lease is None:
            # Fall back to the Ready condition's heartbeat timestamp.
            conditions = node.get("status", {}).get("conditions", [])
            if isinstance(conditions, list):
                for condition in conditions:
                    if isinstance(condition, dict) and condition.get("type") == "Ready":
                        heartbeat = condition.get("lastHeartbeatTime")
                        if isinstance(heartbeat, (int, float)) and not isinstance(heartbeat, bool):
                            return self.sim.now - heartbeat <= self.grace_period
            return False
        spec = lease.get("spec", {})
        renew = spec.get("renewTime") if isinstance(spec, dict) else None
        if not isinstance(renew, (int, float)) or isinstance(renew, bool):
            return False
        return self.sim.now - renew <= self.grace_period

    @staticmethod
    def _ready_condition(status: dict) -> Optional[dict]:
        conditions = status.get("conditions")
        if isinstance(conditions, list):
            for condition in conditions:
                if isinstance(condition, dict) and condition.get("type") == "Ready":
                    return condition
        return None

    def _set_ready_condition(self, node: dict, healthy: bool) -> None:
        if not isinstance(node.get("status"), dict):
            return
        new_value = "True" if healthy else "False"
        ready = self._ready_condition(node["status"])
        if ready is not None and ready.get("status") == new_value:
            return
        node = deep_copy(node)  # listed refs are read-only
        status = node["status"]
        ready = self._ready_condition(status)
        if ready is None:
            if not isinstance(status.get("conditions"), list):
                status["conditions"] = []
            ready = {"type": "Ready", "status": "Unknown", "lastHeartbeatTime": 0.0}
            status["conditions"].append(ready)
        ready["status"] = new_value
        try:
            self.client.update_status("Node", node)
        except ApiError:
            pass

    def _evict_node_pods(self, node_name: str, pods: list[dict]) -> None:
        for pod in pods:
            spec = pod.get("spec", {})
            if not isinstance(spec, dict) or spec.get("nodeName") != node_name:
                continue
            owner = controller_owner(pod)
            if owner is not None and owner.get("kind") == "DaemonSet":
                # DaemonSet pods are not evicted from unhealthy nodes.
                continue
            metadata = pod.get("metadata", {})
            self.evictions += 1
            try:
                self.client.delete(
                    "Pod", metadata.get("name", ""), namespace=metadata.get("namespace", "default")
                )
            except ApiError:
                continue

    def _enforce_noexecute_taints(self, nodes: list[dict], pods: list[dict]) -> None:
        taints_by_node = {}
        for node in nodes:
            name = node.get("metadata", {}).get("name")
            taints = node.get("spec", {}).get("taints", [])
            if isinstance(name, str) and isinstance(taints, list):
                noexecute = [
                    taint
                    for taint in taints
                    if isinstance(taint, dict) and taint.get("effect") == "NoExecute"
                ]
                if noexecute:
                    taints_by_node[name] = noexecute
        if not taints_by_node:
            return
        for pod in pods:
            spec = pod.get("spec", {})
            if not isinstance(spec, dict):
                continue
            node_name = spec.get("nodeName")
            if node_name not in taints_by_node:
                continue
            if tolerates_taints(spec, taints_by_node[node_name]):
                continue
            metadata = pod.get("metadata", {})
            self.evictions += 1
            try:
                self.client.delete(
                    "Pod", metadata.get("name", ""), namespace=metadata.get("namespace", "default")
                )
            except ApiError:
                continue
