"""Virtual cluster network.

The :class:`ClusterNetwork` models three cooperating mechanisms:

* **Route programming (CNI / network manager).**  A node's pod routes are
  programmed only while a ready network-manager DaemonSet pod runs on that
  node *and* the network manager's ConfigMap is intact.  Routes are sticky:
  pods that were programmed keep working if the network manager later fails
  (a Stall), but a cluster-wide teardown (ConfigMap corruption, DaemonSet
  deletion) drops every route (an Outage).
* **Service load balancing (kube-proxy).**  Requests to a Service are spread
  round-robin over the addresses in its Endpoints object.
* **DNS (coreDNS).**  Name resolution works while at least one ready DNS pod
  is reachable.  The paper's benchmark application does not use DNS, so DNS
  failures are an orchestrator-level outage that may leave client traffic
  untouched — reproduced here by making DNS resolution optional per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apiserver.apiserver import APIServer
from repro.apiserver.client import APIClient
from repro.apiserver.errors import ApiError, NotFoundError
from repro.controllers.replicaset import pod_is_ready
from repro.sim.engine import Simulation
from repro.sim.rng import DeterministicRNG

#: Period of the network reconciliation loop, seconds.
NETWORK_SYNC_PERIOD = 1.0

#: Label identifying network-manager (flannel-like) pods.
NETWORK_MANAGER_LABEL = ("app", "kube-network-manager")

#: Label identifying DNS pods.
DNS_LABEL = ("k8s-app", "kube-dns")

#: Name of the ConfigMap holding the network manager's configuration.
NETWORK_CONFIGMAP = "kube-network-cfg"

#: The RNG stream of request latency jitter: the only stream a simulated run
#: draws from (docs/INVARIANTS.md, "The seed draws only client latency").
LATENCY_STREAM = "network-latency"


def jittered(rng: DeterministicRNG, service_time: float) -> float:
    """A successful request's latency: its service time plus one jitter draw.

    The one place the expression lives, so a replayed client computes the
    very float a simulated request did."""
    return service_time + rng.uniform(LATENCY_STREAM, 0.0, 0.01)


@dataclass
class RequestOutcome:
    """Result of one simulated client request."""

    success: bool
    latency: float
    error: Optional[str] = None
    backend_ip: Optional[str] = None
    #: The seed-free part of ``latency``: base service time times load
    #: factor, before the jitter draw.
    service_time: float = 0.0


class ClusterNetwork:
    """Reconciles and evaluates cluster networking state."""

    def __init__(self, sim: Simulation, apiserver: APIServer):
        self.sim = sim
        self.client = APIClient(apiserver, component="kube-proxy")
        #: Pod UIDs whose routes have been programmed (sticky until teardown).
        self._programmed_pods: set[str] = set()
        #: Nodes whose routes have been programmed at least once.
        self._programmed_nodes: set[str] = set()
        self._round_robin: dict[str, int] = {}
        self.teardowns = 0
        self._task = None
        #: Bumped whenever the programmed-route state may have changed; part
        #: of the memo key below.
        self._routes_epoch = 0
        #: ``(service, namespace) -> (state_key, backends)`` memo — exact
        #: while the store revision, route state and apiserver health are
        #: unchanged (reads have no side effects at an unchanged revision:
        #: any purge-on-read already happened on the first, uncached call).
        self._backends_memo: dict[tuple[str, str], tuple[tuple, list]] = {}

    # ---------------------------------------------------------------- control

    def start(self, period: float = NETWORK_SYNC_PERIOD) -> None:
        """Start the periodic route-programming loop."""
        self._task = self.sim.call_every(period, self.sync, delay=0.5, label="network-sync")

    # ------------------------------------------------------------------- sync

    def _state_key(self) -> tuple:
        """Identity of everything the evaluation reads can depend on."""
        apiserver = self.client.apiserver
        raft = apiserver.raft
        return (
            apiserver.store.revision,
            self._routes_epoch,
            apiserver.healthy,
            raft.has_quorum() if raft is not None else True,
        )

    def sync(self) -> None:
        """Program routes for pods on nodes with a healthy network manager."""
        self._routes_epoch += 1
        try:
            # Read-only refs (informer contract): the network never mutates
            # the objects it observes.
            pods = self.client.list("Pod", copy=False)
        except ApiError:
            return

        if not self._network_config_intact():
            # Cluster-wide network teardown: every route is dropped and no new
            # routes are programmed until the configuration is restored.
            if self._programmed_pods or self._programmed_nodes:
                self.teardowns += 1
            self._programmed_pods.clear()
            self._programmed_nodes.clear()
            return

        manager_ready_nodes = self._network_manager_nodes(pods)
        self._programmed_nodes.update(manager_ready_nodes)

        current_uids = set()
        for pod in pods:
            metadata = pod.get("metadata", {})
            spec = pod.get("spec", {})
            if not isinstance(metadata, dict) or not isinstance(spec, dict):
                continue
            uid = metadata.get("uid")
            node_name = spec.get("nodeName")
            if not isinstance(uid, str) or not isinstance(node_name, str):
                continue
            current_uids.add(uid)
            if uid in self._programmed_pods:
                continue
            if not pod_is_ready(pod):
                continue
            if node_name in manager_ready_nodes:
                self._programmed_pods.add(uid)

        # Routes of pods that no longer exist are withdrawn.
        self._programmed_pods &= current_uids

    def _network_config_intact(self) -> bool:
        try:
            config = self.client.get(
                "ConfigMap", NETWORK_CONFIGMAP, namespace="kube-system", copy=False
            )
        except NotFoundError:
            return False
        except ApiError:
            # The apiserver being unavailable does not tear down programmed routes.
            return True
        data = config.get("data")
        if not isinstance(data, dict):
            return False
        network = data.get("network")
        return isinstance(network, str) and network.count(".") >= 2 and "/" in network

    def _network_manager_nodes(self, pods: list[dict]) -> set[str]:
        key, value = NETWORK_MANAGER_LABEL
        nodes = set()
        for pod in pods:
            metadata = pod.get("metadata", {})
            spec = pod.get("spec", {})
            if not isinstance(metadata, dict) or not isinstance(spec, dict):
                continue
            labels = metadata.get("labels", {})
            if not isinstance(labels, dict) or labels.get(key) != value:
                continue
            if not pod_is_ready(pod):
                continue
            node_name = spec.get("nodeName")
            if isinstance(node_name, str):
                nodes.add(node_name)
        return nodes

    # ------------------------------------------------------------ evaluation

    def pod_reachable(self, pod: dict) -> bool:
        """True if traffic from another node can reach this pod."""
        metadata = pod.get("metadata", {})
        status = pod.get("status", {})
        if not isinstance(metadata, dict) or not isinstance(status, dict):
            return False
        uid = metadata.get("uid")
        if not isinstance(uid, str) or uid not in self._programmed_pods:
            return False
        return pod_is_ready(pod) and isinstance(status.get("podIP"), str)

    def dns_available(self) -> bool:
        """True if at least one ready DNS pod is reachable."""
        key, value = DNS_LABEL
        try:
            pods = self.client.list("Pod", namespace="kube-system", copy=False)
        except ApiError:
            return False
        for pod in pods:
            labels = pod.get("metadata", {}).get("labels", {})
            if isinstance(labels, dict) and labels.get(key) == value and self.pod_reachable(pod):
                return True
        return False

    def service_backends(self, service_name: str, namespace: str = "default") -> list[dict]:
        """Return the reachable backend pods behind a Service."""
        state = self._state_key()
        memo_key = (service_name, namespace)
        memo = self._backends_memo.get(memo_key)
        if memo is not None and memo[0] == state:
            return list(memo[1])
        backends = self._service_backends_uncached(service_name, namespace)
        if len(self._backends_memo) >= 256:
            self._backends_memo.clear()
        self._backends_memo[memo_key] = (state, backends)
        return list(backends)

    def _service_backends_uncached(self, service_name: str, namespace: str) -> list[dict]:
        try:
            endpoints = self.client.get("Endpoints", service_name, namespace=namespace, copy=False)
        except ApiError:
            return []
        subsets = endpoints.get("subsets", [])
        if not isinstance(subsets, list):
            return []
        addresses = []
        for subset in subsets:
            if not isinstance(subset, dict):
                continue
            entries = subset.get("addresses", [])
            if isinstance(entries, list):
                addresses.extend(entry for entry in entries if isinstance(entry, dict))

        try:
            pods = self.client.list("Pod", namespace=namespace, copy=False)
        except ApiError:
            pods = []
        pods_by_ip = {}
        for pod in pods:
            status = pod.get("status", {})
            ip = status.get("podIP") if isinstance(status, dict) else None
            if isinstance(ip, str):
                pods_by_ip[ip] = pod

        backends = []
        for entry in addresses:
            ip = entry.get("ip")
            pod = pods_by_ip.get(ip)
            if pod is not None and self.pod_reachable(pod):
                backends.append(pod)
        return backends

    def request(
        self,
        service_name: str,
        namespace: str = "default",
        use_dns: bool = False,
        base_latency: float = 0.05,
        expected_backends: int = 1,
    ) -> RequestOutcome:
        """Simulate one client request to a Service.

        The latency model is intentionally simple: a base service time that
        grows when fewer backends than expected share the load, plus a small
        deterministic jitter from the simulation RNG.  Requests fail when DNS
        (if used) is down, when the service has no reachable backends, or
        when the service object itself is gone.
        """
        if use_dns and not self.dns_available():
            return RequestOutcome(success=False, latency=0.0, error="dns-resolution-failed")
        try:
            self.client.get("Service", service_name, namespace=namespace, copy=False)
        except ApiError:
            return RequestOutcome(success=False, latency=0.0, error="service-not-found")
        backends = self.service_backends(service_name, namespace=namespace)
        if not backends:
            return RequestOutcome(success=False, latency=0.0, error="no-endpoints")

        index = self._round_robin.get(service_name, 0)
        backend = backends[index % len(backends)]
        self._round_robin[service_name] = index + 1

        load_factor = max(1.0, float(expected_backends) / float(len(backends)))
        service_time = base_latency * load_factor
        backend_ip = backend.get("status", {}).get("podIP")
        return RequestOutcome(
            success=True,
            latency=jittered(self.sim.rng, service_time),
            backend_ip=backend_ip,
            service_time=service_time,
        )
