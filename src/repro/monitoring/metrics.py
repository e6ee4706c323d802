"""Cluster metrics sampling.

The collector scrapes the Apiserver on a fixed period and appends one
:class:`MetricsSample` per scrape.  Samples are cheap, plain data — the
classification layer computes failure verdicts from them after the
experiment finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apiserver.apiserver import APIServer
from repro.apiserver.client import APIClient
from repro.apiserver.errors import ApiError
from repro.controllers.replicaset import pod_is_ready
from repro.sim.engine import Simulation

#: Scrape period, matching the paper's 3-second sampling of replica counts.
SCRAPE_PERIOD = 3.0


@dataclass
class MetricsSample:
    """One scrape of cluster state."""

    time: float
    #: namespace/name -> (ready replicas, desired replicas) for ReplicaSets.
    replicasets: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: namespace/name -> (ready replicas, desired replicas) for Deployments.
    deployments: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: namespace/name -> number of endpoint addresses for Services.
    endpoints: dict[str, int] = field(default_factory=dict)
    #: Total pods by phase.
    pods_by_phase: dict[str, int] = field(default_factory=dict)
    #: Total number of pod objects in the store.
    total_pods: int = 0
    #: Number of pods created since the previous sample (cumulative counter).
    pods_created_cumulative: int = 0
    #: Number of Ready nodes / total nodes.
    nodes_ready: int = 0
    nodes_total: int = 0
    #: Whether DNS pods are ready, network manager pods ready per node count.
    dns_ready_pods: int = 0
    network_manager_ready_pods: int = 0
    #: Data-store statistics.
    etcd_keys: int = 0
    etcd_alarm: bool = False
    #: Whether the scrape itself failed (control plane unreachable).
    scrape_failed: bool = False


class MetricsCollector:
    """Periodically scrape cluster state from the Apiserver."""

    def __init__(self, sim: Simulation, apiserver: APIServer):
        self.sim = sim
        self.apiserver = apiserver
        self.client = APIClient(apiserver, component="kube-state-metrics")
        self.samples: list[MetricsSample] = []
        self._pods_seen_uids: set[str] = set()
        self._task = None

    def start(self, period: float = SCRAPE_PERIOD) -> None:
        """Start the scrape loop."""
        self._task = self.sim.call_every(period, self.scrape, delay=period, label="metrics-scrape")

    def scrape(self) -> MetricsSample:
        """Take one sample of cluster state and append it to the series."""
        sample = MetricsSample(time=self.sim.now)
        try:
            self._scrape_into(sample)
        except ApiError:
            sample.scrape_failed = True
        self.samples.append(sample)
        return sample

    # ------------------------------------------------------------------ guts

    def _scrape_into(self, sample: MetricsSample) -> None:
        # All reads below take read-only cache refs (informer contract):
        # scraping only aggregates counters, it never mutates objects.
        replicasets = self.client.list("ReplicaSet", copy=False)
        for replicaset in replicasets:
            key = self._key(replicaset)
            status = replicaset.get("status", {})
            spec = replicaset.get("spec", {})
            ready = status.get("readyReplicas", 0) if isinstance(status, dict) else 0
            desired = spec.get("replicas", 0) if isinstance(spec, dict) else 0
            sample.replicasets[key] = (self._int(ready), self._int(desired))

        deployments = self.client.list("Deployment", copy=False)
        for deployment in deployments:
            key = self._key(deployment)
            status = deployment.get("status", {})
            spec = deployment.get("spec", {})
            ready = status.get("readyReplicas", 0) if isinstance(status, dict) else 0
            desired = spec.get("replicas", 0) if isinstance(spec, dict) else 0
            sample.deployments[key] = (self._int(ready), self._int(desired))

        for endpoints in self.client.list("Endpoints", copy=False):
            key = self._key(endpoints)
            count = 0
            subsets = endpoints.get("subsets", [])
            if isinstance(subsets, list):
                for subset in subsets:
                    if isinstance(subset, dict) and isinstance(subset.get("addresses"), list):
                        count += len(subset["addresses"])
            sample.endpoints[key] = count

        pods = self.client.list("Pod", copy=False)
        sample.total_pods = len(pods)
        for pod in pods:
            status = pod.get("status", {})
            phase = status.get("phase", "Unknown") if isinstance(status, dict) else "Unknown"
            if not isinstance(phase, str):
                phase = "Unknown"
            sample.pods_by_phase[phase] = sample.pods_by_phase.get(phase, 0) + 1
            uid = pod.get("metadata", {}).get("uid")
            if isinstance(uid, str):
                self._pods_seen_uids.add(uid)
            labels = pod.get("metadata", {}).get("labels", {})
            if isinstance(labels, dict):
                if labels.get("k8s-app") == "kube-dns" and pod_is_ready(pod):
                    sample.dns_ready_pods += 1
                if labels.get("app") == "kube-network-manager" and pod_is_ready(pod):
                    sample.network_manager_ready_pods += 1
        sample.pods_created_cumulative = len(self._pods_seen_uids)

        nodes = self.client.list("Node", copy=False)
        sample.nodes_total = len(nodes)
        for node in nodes:
            conditions = node.get("status", {}).get("conditions", [])
            if isinstance(conditions, list):
                for condition in conditions:
                    if (
                        isinstance(condition, dict)
                        and condition.get("type") == "Ready"
                        and condition.get("status") == "True"
                    ):
                        sample.nodes_ready += 1
                        break

        store_stats = self.apiserver.store.stats()
        sample.etcd_keys = store_stats["keys"]
        sample.etcd_alarm = store_stats["alarm_active"]

    @staticmethod
    def _key(obj: dict) -> str:
        metadata = obj.get("metadata", {})
        if not isinstance(metadata, dict):
            return "<corrupted>"
        return f"{metadata.get('namespace', 'default')}/{metadata.get('name', '<unnamed>')}"

    @staticmethod
    def _int(value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            return 0
        return value

    # ------------------------------------------------------------- accessors

    def last_sample(self) -> Optional[MetricsSample]:
        """Return the most recent sample, if any."""
        return self.samples[-1] if self.samples else None
