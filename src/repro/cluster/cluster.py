"""A complete simulated Kubernetes cluster.

The default configuration mirrors the paper's experimental setup (§V-A):
one control-plane node and four worker nodes, each with 8 CPUs and 4 GiB of
memory, a flannel-like network manager deployed as a DaemonSet, coreDNS
deployed as a two-replica Deployment, and the default resiliency strategies
(leader election, heartbeats, eviction timeouts, restart backoff, rolling
update bounds) enabled.
"""

from __future__ import annotations

from typing import Optional

from repro.apiserver.admission import AdmissionChain
from repro.apiserver.apiserver import APIServer
from repro.apiserver.client import APIClient
from repro.cluster.config import ClusterConfig
from repro.controllers.manager import ControllerManager
from repro.etcd.raft import RaftGroup
from repro.etcd.store import EtcdStore
from repro.kubelet.kubelet import Kubelet
from repro.monitoring.metrics import MetricsCollector
from repro.network.network import NETWORK_CONFIGMAP, ClusterNetwork
from repro.objects.kinds import (
    PRIORITY_SYSTEM_CLUSTER_CRITICAL,
    make_configmap,
    make_container,
    make_daemonset,
    make_deployment,
    make_namespace,
    make_node,
    make_service,
)
from repro.objects.meta import reset_uid_counter
from repro.scheduler.scheduler import Scheduler
from repro.sim.engine import Simulation
from repro.sim.rng import DeterministicRNG


class Cluster:
    """A running simulated cluster."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config if config is not None else ClusterConfig()
        reset_uid_counter()
        self.sim = Simulation(rng=DeterministicRNG(self.config.seed))
        self.store = EtcdStore(quota_bytes=self.config.etcd_quota_bytes)
        member_names = [f"etcd-{index}" for index in range(self.config.control_plane_nodes)]
        self.raft = RaftGroup(member_names)
        self.apiserver = APIServer(
            self.sim,
            self.store,
            raft=self.raft,
            admission=AdmissionChain(),
            serve_from_cache=self.config.apiserver_cache,
        )
        self.kcm = ControllerManager(
            self.sim,
            self.apiserver,
            identity="kcm-0",
            eviction_timeout=self.config.pod_eviction_timeout,
        )
        self.scheduler = Scheduler(self.sim, self.apiserver, identity="scheduler-0")
        self.network = ClusterNetwork(self.sim, self.apiserver)
        self.metrics = MetricsCollector(self.sim, self.apiserver)
        self.failure_registry: dict = {}
        self.kubelets: list[Kubelet] = []
        self.node_names: list[str] = []
        self._booted = False

        self._admin = APIClient(self.apiserver, component="cluster-admin")

    # ------------------------------------------------------------------- boot

    def boot(self, stabilization_seconds: float = 30.0) -> None:
        """Create system objects, start all component loops, and let the
        cluster reach a steady state."""
        if self._booted:
            raise RuntimeError("cluster already booted")
        self._booted = True

        self._create_namespaces()
        self._create_nodes()
        self._create_system_workloads()

        self.kcm.start()
        self.scheduler.start()
        self.network.start()
        self.metrics.start()
        for kubelet in self.kubelets:
            kubelet.start()

        self.sim.run_for(stabilization_seconds)

    def _create_namespaces(self) -> None:
        for name in ("default", "kube-system", "kube-node-lease", "kube-public"):
            self._admin.create("Namespace", make_namespace(name))

    def _create_nodes(self) -> None:
        index = 0
        for cp_index in range(self.config.control_plane_nodes):
            name = "control-plane" if cp_index == 0 else f"control-plane-{cp_index + 1}"
            self._register_node(name, index, role="control-plane")
            index += 1
        for worker_index in range(self.config.worker_nodes):
            name = f"worker-{worker_index + 1}"
            self._register_node(name, index, role="worker")
            index += 1

    def _register_node(self, name: str, index: int, role: str) -> None:
        node = make_node(
            name,
            cpu=self.config.node_cpu,
            memory=self.config.node_memory,
            max_pods=self.config.max_pods_per_node,
            role=role,
            pod_cidr=f"10.244.{index}.0/24",
        )
        self._admin.create("Node", node)
        kubelet = Kubelet(
            self.sim,
            self.apiserver,
            node_name=name,
            node_index=index,
            failure_registry=self.failure_registry,
        )
        self.kubelets.append(kubelet)
        self.node_names.append(name)

    def _create_system_workloads(self) -> None:
        # Network manager (flannel-like) configuration and DaemonSet.
        self._admin.create(
            "ConfigMap",
            make_configmap(
                NETWORK_CONFIGMAP,
                namespace="kube-system",
                data={"network": "10.244.0.0/16", "backend": "vxlan"},
            ),
        )
        network_manager = make_daemonset(
            "kube-network-manager",
            namespace="kube-system",
            labels={"app": "kube-network-manager"},
            containers=[
                make_container(
                    name="network-manager",
                    image="repro/network-manager:1.1.2",
                    cpu_request="100m",
                    memory_request="64Mi",
                )
            ],
        )
        self._admin.create("DaemonSet", network_manager)

        # coreDNS Deployment and Service.
        dns = make_deployment(
            "coredns",
            namespace="kube-system",
            replicas=self.config.dns_replicas,
            labels={"k8s-app": "kube-dns"},
            containers=[
                make_container(
                    name="coredns",
                    image="repro/coredns:1.10",
                    cpu_request="100m",
                    memory_request="70Mi",
                    port=53,
                )
            ],
        )
        dns["spec"]["template"]["spec"]["priority"] = PRIORITY_SYSTEM_CLUSTER_CRITICAL
        self._admin.create("Deployment", dns)
        self._admin.create(
            "Service",
            make_service(
                "kube-dns",
                namespace="kube-system",
                selector={"k8s-app": "kube-dns"},
                port=53,
                target_port=53,
                cluster_ip="10.96.0.10",
            ),
        )

    # -------------------------------------------------------------- accessors

    @property
    def client(self) -> APIClient:
        """An administrative API client (the cluster operator's kubectl)."""
        return self._admin

    def user_client(self, name: str = "user") -> APIClient:
        """Return an API client acting as a cluster user (kbench)."""
        return APIClient(self.apiserver, component=name)

    def worker_node_names(self) -> list[str]:
        """Names of the worker nodes."""
        return [name for name in self.node_names if name.startswith("worker-")]

    def kubelet_for(self, node_name: str) -> Optional[Kubelet]:
        """Return the kubelet running on the given node."""
        for kubelet in self.kubelets:
            if kubelet.node_name == node_name:
                return kubelet
        return None

    def run_for(self, seconds: float, max_events: Optional[int] = None) -> None:
        """Advance the simulation by the given number of seconds."""
        self.sim.run_for(seconds, max_events=max_events)

    def close(self) -> None:
        """Break the reference cycles the cluster is built from (the
        engine's pending events and the store's watches), so that dropping
        the last reference frees it at once.  What a run reads afterwards — the
        store's data, the request log, the metric samples — stays; a closed
        cluster is never run again."""
        self.sim.close()
        self.store.close()
