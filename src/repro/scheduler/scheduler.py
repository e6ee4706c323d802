"""Pod scheduler.

The scheduling loop mirrors the real scheduler's structure: filter the nodes
that can run the pod (readiness, schedulability, taints, resource fit), score
the survivors (least-allocated), bind the pod by writing ``spec.nodeName``,
and fall back to preemption when nothing fits but lower-priority victims
exist.  Preemption is what turns the uncontrolled replication of
system-priority DaemonSet pods into a cluster outage.
"""

from __future__ import annotations

from typing import Optional

from repro.apiserver.apiserver import APIServer
from repro.apiserver.client import APIClient
from repro.apiserver.errors import ApiError
from repro.controllers.base import ChangeGate
from repro.controllers.daemonset import tolerates_taints
from repro.controllers.leaderelection import LeaderElector
from repro.objects.meta import deep_copy
from repro.objects.quantities import node_allocatable, pod_resource_request
from repro.sim.engine import Simulation

#: Period of the scheduling loop in simulated seconds.
SCHEDULE_PERIOD = 0.5

#: Delay before a restarted scheduler replica re-acquires leadership
#: (paper: "after a new leader Scheduler is elected (after 20 seconds)").
RESTART_REELECTION_DELAY = 20.0


class Scheduler:
    """Assign pending pods to nodes."""

    def __init__(self, sim: Simulation, apiserver: APIServer, identity: str = "scheduler-0"):
        self.sim = sim
        self.identity = identity
        self.client = APIClient(apiserver, component="kube-scheduler")
        self.elector = LeaderElector(
            sim, self.client, lease_name="kube-scheduler", identity=identity
        )
        #: Assumed bindings: pod uid -> node name, the scheduler's cache.
        self._assumed: dict[str, str] = {}
        self.restart_count = 0
        self._restarting_until = 0.0
        self.pods_scheduled = 0
        self.preemptions = 0
        self.unschedulable_pods = 0
        self._task = None
        #: Skips a pass when no Pod or Node changed since one that sent nothing.
        self.gate = ChangeGate(self.client, ("Pod", "Node"))

    # ---------------------------------------------------------------- control

    def start(self, period: float = SCHEDULE_PERIOD) -> None:
        """Start the periodic scheduling loop."""
        self._task = self.sim.call_every(period, self.tick, delay=period, label="scheduler")

    def restart(self, reelection_delay: float = RESTART_REELECTION_DELAY) -> None:
        """Restart the scheduler: drop the cache and leadership, pause scheduling."""
        self.restart_count += 1
        self._assumed.clear()
        self.elector.release()
        self._restarting_until = self.sim.now + reelection_delay

    # ------------------------------------------------------------------- loop

    def tick(self) -> None:
        """Renew leadership, then one scheduling pass over all pending pods
        unless no Pod or Node changed since a pass that sent nothing."""
        if self.sim.now < self._restarting_until:
            return
        if not self.elector.try_acquire_or_renew():
            return
        try:
            # The assumed-binding cache is the pass's one input besides the
            # store; it changes only by a bind (a request) or a restart.
            self.gate.run(self._schedule_pending, extra=(self.restart_count,))
        except ApiError:
            return

    def _schedule_pending(self) -> None:
        # Read-only refs (informer contract); pending pods are copied below
        # because binding mutates ``spec.nodeName``.
        pods = self.client.list("Pod", copy=False)
        nodes = self.client.list("Node", copy=False)
        self._check_cache_consistency(pods, nodes)

        pending = [deep_copy(pod) for pod in pods if self._is_pending(pod)]
        # Highest priority first, then oldest first.
        pending.sort(key=lambda pod: (-self._priority(pod), self._creation_time(pod)))
        bound = [pod for pod in pods if not self._is_pending(pod)]
        for pod in pending:
            node_name = self._schedule_one(pod, nodes, bound)
            if node_name is not None:
                bound.append(pod)

    # ---------------------------------------------------------- cache checks

    def _check_cache_consistency(self, pods: list[dict], nodes: list[dict]) -> None:
        """Restart if the store disagrees with the scheduler's assumed bindings.

        This reproduces the paper's timing-failure example: an injection that
        rewrites a bound pod's ``nodeName`` to a non-existent node makes the
        scheduler assume its own cache is corrupted and restart.
        """
        node_names = {
            node.get("metadata", {}).get("name")
            for node in nodes
            if isinstance(node.get("metadata"), dict)
        }
        for pod in pods:
            metadata = pod.get("metadata", {})
            spec = pod.get("spec", {})
            if not isinstance(metadata, dict) or not isinstance(spec, dict):
                continue
            uid = metadata.get("uid")
            stored_node = spec.get("nodeName")
            if not isinstance(uid, str):
                continue
            assumed_node = self._assumed.get(uid)
            if assumed_node is None:
                continue
            mismatch = stored_node != assumed_node
            unknown_node = isinstance(stored_node, str) and stored_node not in node_names
            if mismatch or unknown_node:
                self.restart()
                return

    # ------------------------------------------------------------- scheduling

    @staticmethod
    def _is_pending(pod: dict) -> bool:
        spec = pod.get("spec", {})
        status = pod.get("status", {})
        metadata = pod.get("metadata", {})
        if not isinstance(spec, dict) or not isinstance(status, dict):
            return False
        if isinstance(metadata, dict) and metadata.get("deletionTimestamp") is not None:
            return False
        return not spec.get("nodeName") and status.get("phase") in (None, "Pending")

    @staticmethod
    def _priority(pod: dict) -> int:
        spec = pod.get("spec", {})
        priority = spec.get("priority", 0) if isinstance(spec, dict) else 0
        if isinstance(priority, bool) or not isinstance(priority, int):
            return 0
        return priority

    @staticmethod
    def _creation_time(pod: dict) -> float:
        metadata = pod.get("metadata", {})
        created = metadata.get("creationTimestamp") if isinstance(metadata, dict) else 0.0
        if isinstance(created, bool) or not isinstance(created, (int, float)):
            return 0.0
        return float(created)

    def _schedule_one(
        self, pod: dict, nodes: list[dict], bound_pods: list[dict]
    ) -> Optional[str]:
        feasible = []
        for node in nodes:
            if self._node_fits(pod, node, bound_pods):
                feasible.append(node)
        if not feasible:
            victim_node = self._try_preempt(pod, nodes, bound_pods)
            if victim_node is None:
                self.unschedulable_pods += 1
                return None
            return self._bind(pod, victim_node)
        # Least-allocated scoring: pick the node with the most free CPU.
        best = max(feasible, key=lambda node: self._free_cpu(node, bound_pods))
        return self._bind(pod, best.get("metadata", {}).get("name"))

    def _node_fits(self, pod: dict, node: dict, bound_pods: list[dict]) -> bool:
        metadata = node.get("metadata", {})
        spec = node.get("spec", {})
        status = node.get("status", {})
        if not isinstance(metadata, dict) or not isinstance(spec, dict) or not isinstance(status, dict):
            return False
        if spec.get("unschedulable"):
            return False
        if not self._node_ready(node):
            return False
        pod_spec = pod.get("spec", {})
        if not tolerates_taints(pod_spec if isinstance(pod_spec, dict) else {}, spec.get("taints", [])):
            return False
        node_name = metadata.get("name")
        cpu_alloc, mem_alloc = node_allocatable(node)
        cpu_used, mem_used, pod_count = self._node_usage(node_name, bound_pods)
        cpu_req, mem_req = pod_resource_request(pod)
        max_pods = status.get("allocatable", {}).get("pods", 110)
        if isinstance(max_pods, bool) or not isinstance(max_pods, int):
            max_pods = 110
        return (
            cpu_used + cpu_req <= cpu_alloc
            and mem_used + mem_req <= mem_alloc
            and pod_count + 1 <= max_pods
        )

    @staticmethod
    def _node_ready(node: dict) -> bool:
        conditions = node.get("status", {}).get("conditions", [])
        if not isinstance(conditions, list):
            return False
        for condition in conditions:
            if isinstance(condition, dict) and condition.get("type") == "Ready":
                return condition.get("status") == "True"
        return False

    @staticmethod
    def _node_usage(node_name, bound_pods: list[dict]) -> tuple[float, int, int]:
        cpu_used = 0.0
        mem_used = 0
        count = 0
        for pod in bound_pods:
            spec = pod.get("spec", {})
            status = pod.get("status", {})
            if not isinstance(spec, dict) or spec.get("nodeName") != node_name:
                continue
            if isinstance(status, dict) and status.get("phase") in ("Succeeded", "Failed"):
                continue
            cpu, mem = pod_resource_request(pod)
            cpu_used += cpu
            mem_used += mem
            count += 1
        return cpu_used, mem_used, count

    def _free_cpu(self, node: dict, bound_pods: list[dict]) -> float:
        cpu_alloc, _ = node_allocatable(node)
        cpu_used, _, _ = self._node_usage(node.get("metadata", {}).get("name"), bound_pods)
        return cpu_alloc - cpu_used

    def _try_preempt(
        self, pod: dict, nodes: list[dict], bound_pods: list[dict]
    ) -> Optional[str]:
        """Evict lower-priority pods to make room for a higher-priority pod."""
        pod_priority = self._priority(pod)
        cpu_req, mem_req = pod_resource_request(pod)
        for node in nodes:
            metadata = node.get("metadata", {})
            if not isinstance(metadata, dict) or not self._node_ready(node):
                continue
            node_name = metadata.get("name")
            victims = [
                candidate
                for candidate in bound_pods
                if isinstance(candidate.get("spec"), dict)
                and candidate["spec"].get("nodeName") == node_name
                and self._priority(candidate) < pod_priority
            ]
            if not victims:
                continue
            victims.sort(key=self._priority)
            cpu_alloc, mem_alloc = node_allocatable(node)
            cpu_used, mem_used, _ = self._node_usage(node_name, bound_pods)
            freed_cpu = 0.0
            freed_mem = 0
            chosen = []
            for victim in victims:
                if (
                    cpu_used - freed_cpu + cpu_req <= cpu_alloc
                    and mem_used - freed_mem + mem_req <= mem_alloc
                ):
                    break
                victim_cpu, victim_mem = pod_resource_request(victim)
                freed_cpu += victim_cpu
                freed_mem += victim_mem
                chosen.append(victim)
            if (
                cpu_used - freed_cpu + cpu_req <= cpu_alloc
                and mem_used - freed_mem + mem_req <= mem_alloc
            ):
                for victim in chosen:
                    victim_meta = victim.get("metadata", {})
                    try:
                        self.client.delete(
                            "Pod",
                            victim_meta.get("name", ""),
                            namespace=victim_meta.get("namespace", "default"),
                        )
                        self.preemptions += 1
                    except ApiError:
                        continue
                return node_name
        return None

    def _bind(self, pod: dict, node_name: Optional[str]) -> Optional[str]:
        if not isinstance(node_name, str):
            return None
        pod["spec"]["nodeName"] = node_name
        try:
            updated = self.client.update("Pod", pod)
        except ApiError:
            return None
        uid = updated.get("metadata", {}).get("uid")
        if isinstance(uid, str):
            self._assumed[uid] = node_name
        self.pods_scheduled += 1
        return node_name

    def stats(self) -> dict:
        """Return scheduling counters."""
        return {
            "syncs": self.gate.passes,
            "skipped": self.gate.skipped,
            "scheduled": self.pods_scheduled,
            "preemptions": self.preemptions,
            "unschedulable": self.unschedulable_pods,
            "restarts": self.restart_count,
            "is_leader": self.elector.is_leader,
        }
