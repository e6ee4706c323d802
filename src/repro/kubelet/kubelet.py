"""Per-node agent.

The kubelet is the component that turns desired state ("this pod is bound to
this node") into observed state ("its containers are running and ready and
report this IP").  The behaviours that matter for the paper's failure modes
are modelled explicitly:

* heartbeats through the node Lease — losing them marks the node NotReady
  and can trigger eviction storms;
* admission against allocatable resources with priority-based preemption —
  this is what lets runaway system-priority pods terminate application pods;
* container start latency, image-pull failures and the crash-restart backoff
  circuit breaker;
* status reporting (phase, readiness, podIP) that overwrites corrupted
  values with correct ones — one of the natural recovery paths the paper
  observes (e.g. PodIP corruption is healed by the kubelet's next update).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apiserver.apiserver import APIServer
from repro.apiserver.client import APIClient
from repro.apiserver.errors import ApiError, NotFoundError
from repro.objects.kinds import make_lease
from repro.objects.meta import deep_copy
from repro.objects.quantities import node_allocatable, pod_resource_request
from repro.sim.engine import Simulation

#: Kubelet heartbeat period (node lease renewal), seconds.
HEARTBEAT_PERIOD = 10.0

#: Pod sync loop period, seconds.
POD_SYNC_PERIOD = 1.0

#: Simulated container start latency, seconds.
CONTAINER_START_DELAY = 2.0

#: Simulated readiness delay after the container starts, seconds.
READINESS_DELAY = 1.0

#: Initial crash-restart backoff, doubled on every restart up to the cap.
RESTART_BACKOFF_BASE = 2.0
RESTART_BACKOFF_MAX = 60.0

#: Period of the unconditional pod status re-report.  Real kubelets refresh
#: pod status on the same cadence as their sync loop; the periodic write is
#: what keeps Pod messages flowing on the Apiserver→etcd channel (and it is
#: also how corrupted status fields, e.g. the PodIP, get healed).
STATUS_REPORT_PERIOD = 10.0


@dataclass
class LocalPodState:
    """The kubelet's local bookkeeping for one pod."""

    uid: str
    name: str
    namespace: str
    state: str = "admitted"  # admitted | starting | running | crashloop | failed | terminating
    ready: bool = False
    pod_ip: Optional[str] = None
    restart_count: int = 0
    next_restart_at: float = 0.0
    started_at: Optional[float] = None
    last_status_report: float = -1.0


class Kubelet:
    """Simulated kubelet for a single node."""

    def __init__(
        self,
        sim: Simulation,
        apiserver: APIServer,
        node_name: str,
        node_index: int,
        failure_registry: Optional[dict] = None,
    ):
        self.sim = sim
        self.node_name = node_name
        self.node_index = node_index
        self.client = APIClient(apiserver, component=f"kubelet-{node_name}")
        self._local: dict[str, LocalPodState] = {}
        self._ip_counter = 0
        #: Shared registry the workloads use to inject container-level
        #: failures (e.g. a crashing image) keyed by image name.
        self.failure_registry = failure_registry if failure_registry is not None else {}
        self.pods_admitted = 0
        self.pods_rejected = 0
        self.pods_preempted = 0
        self._tasks = []

    # ---------------------------------------------------------------- control

    def start(self) -> None:
        """Start the heartbeat and pod-sync loops."""
        self._tasks.append(
            self.sim.call_every(
                HEARTBEAT_PERIOD, self.heartbeat, delay=0.5, label=f"heartbeat-{self.node_name}"
            )
        )
        self._tasks.append(
            self.sim.call_every(
                POD_SYNC_PERIOD, self.sync_pods, delay=1.0, label=f"podsync-{self.node_name}"
            )
        )

    def stop(self) -> None:
        """Stop the kubelet loops (node failure)."""
        for task in self._tasks:
            task.stop()
        self._tasks.clear()

    # -------------------------------------------------------------- heartbeat

    def heartbeat(self) -> None:
        """Renew the node Lease and the Ready condition heartbeat timestamp."""
        lease_name = self.node_name
        try:
            try:
                lease = self.client.get("Lease", lease_name, namespace="kube-node-lease")
            except NotFoundError:
                lease = self.client.create(
                    "Lease", make_lease(lease_name, namespace="kube-node-lease", holder=self.node_name)
                )
            spec = lease.get("spec")
            if isinstance(spec, dict):
                spec["holderIdentity"] = self.node_name
                spec["renewTime"] = self.sim.now
                self.client.update("Lease", lease)
        except ApiError:
            pass
        try:
            node = self.client.get("Node", self.node_name, namespace=None)
            conditions = node.get("status", {}).get("conditions", [])
            if isinstance(conditions, list):
                for condition in conditions:
                    if isinstance(condition, dict) and condition.get("type") == "Ready":
                        condition["lastHeartbeatTime"] = self.sim.now
            self.client.update_status("Node", node)
        except ApiError:
            pass

    # --------------------------------------------------------------- pod sync

    def sync_pods(self) -> None:
        """Reconcile the pods bound to this node with local container state."""
        try:
            # Field-selected list, as the real kubelet does: the apiserver
            # filters to this node's pods (and can serve them from one small
            # cached snapshot).  Listed refs are read-only: the one pod a
            # sync writes is copied by ``_report_status``.
            bound = self.client.list(
                "Pod", field_selector={"spec.nodeName": self.node_name}, copy=False
            )
        except ApiError:
            return

        bound_uids = set()
        for pod in bound:
            uid = pod.get("metadata", {}).get("uid")
            if not isinstance(uid, str):
                continue
            bound_uids.add(uid)
            self._sync_one(pod, bound)

        # Drop local state for pods that no longer exist (deleted from the store).
        for uid in list(self._local):
            if uid not in bound_uids:
                del self._local[uid]

    def _sync_one(self, pod: dict, bound: list[dict]) -> None:
        metadata = pod.get("metadata", {})
        uid = metadata.get("uid")
        local = self._local.get(uid)

        if metadata.get("deletionTimestamp") is not None:
            self._terminate(pod, local)
            return

        if local is None:
            self._admit(pod, bound)
            return

        if local.state == "starting" and local.started_at is not None:
            if self.sim.now >= local.started_at + CONTAINER_START_DELAY:
                self._start_containers(pod, local)
        elif local.state == "running":
            if not local.ready and local.started_at is not None:
                if self.sim.now >= local.started_at + CONTAINER_START_DELAY + READINESS_DELAY:
                    local.ready = True
                    pod = self._report_status(pod, local)
            self._run_probes(pod, local)
        elif local.state == "crashloop":
            if self.sim.now >= local.next_restart_at:
                local.state = "starting"
                local.started_at = self.sim.now
                self._report_status(pod, local, phase="Pending")

    # -------------------------------------------------------------- admission

    def _admit(self, pod: dict, bound: list[dict]) -> None:
        metadata = pod.get("metadata", {})
        uid = metadata.get("uid")
        name = metadata.get("name", "")
        namespace = metadata.get("namespace", "default")
        if not isinstance(uid, str):
            return

        if not self._image_valid(pod):
            self._local[uid] = LocalPodState(
                uid=uid, name=name, namespace=namespace, state="failed"
            )
            self._report_status(pod, self._local[uid], phase="Pending", reason="ImagePullBackOff")
            return

        if not self._fits(pod, bound):
            if not self._preempt_for(pod, bound):
                self.pods_rejected += 1
                self._report_status(
                    pod,
                    LocalPodState(uid=uid, name=name, namespace=namespace),
                    phase="Pending",
                    reason="OutOfcpu",
                )
                return

        if not self._volumes_available(pod):
            self._local[uid] = LocalPodState(
                uid=uid, name=name, namespace=namespace, state="admitted"
            )
            self._report_status(
                pod, self._local[uid], phase="Pending", reason="ContainerCreating"
            )
            return

        self.pods_admitted += 1
        local = LocalPodState(
            uid=uid,
            name=name,
            namespace=namespace,
            state="starting",
            started_at=self.sim.now,
        )
        self._local[uid] = local

    def _fits(self, pod: dict, bound: list[dict]) -> bool:
        try:
            node = self.client.get("Node", self.node_name, namespace=None)
        except ApiError:
            return True
        cpu_alloc, mem_alloc = node_allocatable(node)
        cpu_used = 0.0
        mem_used = 0
        for other in bound:
            other_uid = other.get("metadata", {}).get("uid")
            if other_uid == pod.get("metadata", {}).get("uid"):
                continue
            if other_uid not in self._local:
                continue
            if self._local[other_uid].state not in ("starting", "running", "crashloop"):
                continue
            cpu, mem = pod_resource_request(other)
            cpu_used += cpu
            mem_used += mem
        cpu_req, mem_req = pod_resource_request(pod)
        return cpu_used + cpu_req <= cpu_alloc and mem_used + mem_req <= mem_alloc

    def _preempt_for(self, pod: dict, bound: list[dict]) -> bool:
        """Evict lower-priority local pods to admit a higher-priority one."""
        priority = self._pod_priority(pod)
        victims = []
        for other in bound:
            other_uid = other.get("metadata", {}).get("uid")
            if other_uid == pod.get("metadata", {}).get("uid") or other_uid not in self._local:
                continue
            if self._pod_priority(other) < priority:
                victims.append(other)
        if not victims:
            return False
        victims.sort(key=self._pod_priority)
        evicted_any = False
        for victim in victims:
            victim_meta = victim.get("metadata", {})
            try:
                self.client.delete(
                    "Pod", victim_meta.get("name", ""), namespace=victim_meta.get("namespace", "default")
                )
                self.pods_preempted += 1
                evicted_any = True
            except ApiError:
                continue
            victim_uid = victim_meta.get("uid")
            if isinstance(victim_uid, str):
                self._local.pop(victim_uid, None)
            remaining = [p for p in bound if p.get("metadata", {}).get("uid") != victim_uid]
            if self._fits(pod, remaining):
                return True
        return evicted_any and self._fits(pod, [p for p in bound if p.get("metadata", {}).get("uid") in self._local])

    @staticmethod
    def _pod_priority(pod: dict) -> int:
        spec = pod.get("spec", {})
        priority = spec.get("priority", 0) if isinstance(spec, dict) else 0
        if isinstance(priority, bool) or not isinstance(priority, int):
            return 0
        return priority

    def _image_valid(self, pod: dict) -> bool:
        spec = pod.get("spec", {})
        containers = spec.get("containers", []) if isinstance(spec, dict) else []
        if not isinstance(containers, list) or not containers:
            return False
        for container in containers:
            if not isinstance(container, dict):
                return False
            image = container.get("image")
            if not isinstance(image, str) or not image:
                return False
            if self.failure_registry.get(("image_pull_error", image)):
                return False
        return True

    def _volumes_available(self, pod: dict) -> bool:
        spec = pod.get("spec", {})
        volumes = spec.get("volumes", []) if isinstance(spec, dict) else []
        if not isinstance(volumes, list):
            return True
        for volume in volumes:
            if not isinstance(volume, dict):
                continue
            config_map = volume.get("configMap")
            if isinstance(config_map, dict):
                name = config_map.get("name")
                namespace = pod.get("metadata", {}).get("namespace", "default")
                if not isinstance(name, str):
                    return False
                try:
                    self.client.get("ConfigMap", name, namespace=namespace)
                except ApiError:
                    return False
        return True

    # ------------------------------------------------------------- containers

    def _start_containers(self, pod: dict, local: LocalPodState) -> None:
        crashing = False
        spec = pod.get("spec", {})
        containers = spec.get("containers", []) if isinstance(spec, dict) else []
        if isinstance(containers, list):
            for container in containers:
                if isinstance(container, dict) and self.failure_registry.get(
                    ("crash", container.get("image"))
                ):
                    crashing = True
                command = container.get("command") if isinstance(container, dict) else None
                if command is not None and not isinstance(command, list):
                    crashing = True
        if crashing:
            local.restart_count += 1
            backoff = min(
                RESTART_BACKOFF_BASE * (2 ** (local.restart_count - 1)), RESTART_BACKOFF_MAX
            )
            local.state = "crashloop"
            local.ready = False
            local.next_restart_at = self.sim.now + backoff
            self._report_status(pod, local, phase="Pending", reason="CrashLoopBackOff")
            return
        local.state = "running"
        if local.pod_ip is None:
            self._ip_counter += 1
            local.pod_ip = f"10.244.{self.node_index}.{self._ip_counter}"
        self._report_status(pod, local, phase="Running")

    def _run_probes(self, pod: dict, local: LocalPodState) -> None:
        """Liveness/readiness checks; also heal status fields corrupted in the store."""
        status = pod.get("status", {})
        if not isinstance(status, dict):
            return
        needs_update = False
        if status.get("phase") != "Running":
            needs_update = True
        if bool(status.get("ready")) != local.ready:
            needs_update = True
        if status.get("podIP") != local.pod_ip:
            # The stored podIP was corrupted (or never set); the kubelet's
            # periodic status update overwrites it with the correct value.
            needs_update = True
        if self.sim.now - local.last_status_report >= STATUS_REPORT_PERIOD:
            needs_update = True
        if needs_update:
            self._report_status(pod, local, phase="Running")

    def _terminate(self, pod: dict, local: Optional[LocalPodState]) -> None:
        metadata = pod.get("metadata", {})
        uid = metadata.get("uid")
        if isinstance(uid, str):
            self._local.pop(uid, None)
        try:
            self.client.delete(
                "Pod", metadata.get("name", ""), namespace=metadata.get("namespace", "default")
            )
        except ApiError:
            pass

    def _report_status(
        self,
        pod: dict,
        local: LocalPodState,
        phase: Optional[str] = None,
        reason: Optional[str] = None,
    ) -> dict:
        """Write the pod's status from local state; returns the written copy
        (``pod`` may be a read-only listed ref and is left untouched)."""
        pod = deep_copy(pod)
        status = pod.setdefault("status", {})
        if not isinstance(status, dict):
            pod["status"] = status = {}
        if phase is not None:
            status["phase"] = phase
        status["ready"] = local.ready and local.state == "running"
        status["podIP"] = local.pod_ip
        status["hostIP"] = f"192.168.0.{self.node_index + 10}"
        status["restartCount"] = local.restart_count
        if local.started_at is not None:
            status["startTime"] = local.started_at
        if reason is not None:
            status["reason"] = reason
        else:
            status.pop("reason", None)
        local.last_status_report = self.sim.now
        try:
            self.client.update_status("Pod", pod)
        except ApiError:
            pass
        return pod

    # ------------------------------------------------------------------ stats

    def local_pods(self) -> list[LocalPodState]:
        """Return the kubelet's local pod bookkeeping (for tests)."""
        return list(self._local.values())
