"""Replay of the Figure 2 cluster-outage pattern: heartbeat loss at scale.

Paper Figure 2 describes a real-world GKE outage in which an intermittent
Apiserver failure prevented Kubelets from reporting node health, which made
the platform treat every node as unhealthy.  This example reproduces the
propagation chain on the simulated cluster, and shows the resiliency
strategy that contains it: the node-lifecycle controller's *full disruption
mode* stops evictions when every node looks unhealthy at once, while losing
heartbeats on a single node leads to that node's pods being evicted and
respawned elsewhere.

Run with::

    python examples/outage_scenario.py
"""

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.workloads.scenario import ServiceApplication


def node_ready_counts(cluster):
    ready = 0
    nodes = cluster.client.list("Node")
    for node in nodes:
        for condition in node["status"]["conditions"]:
            if condition["type"] == "Ready" and condition["status"] == "True":
                ready += 1
    return ready, len(nodes)


def main() -> None:
    cluster = Cluster(ClusterConfig(seed=5, pod_eviction_timeout=30.0))
    print("Booting the cluster...")
    cluster.boot(stabilization_seconds=30.0)
    user = cluster.user_client()
    application = ServiceApplication(user)
    application.create_shared_objects()
    application.create_deployments(count=3, replicas=2)
    cluster.run_for(20.0)

    print("\n--- Scenario A: one node stops reporting health ---")
    victim = cluster.kubelet_for("worker-3")
    victim.stop()
    for _ in range(5):
        cluster.run_for(30.0)
        ready, total = node_ready_counts(cluster)
        pods = cluster.client.list("Pod", namespace="default")
        on_victim = sum(1 for pod in pods if pod["spec"].get("nodeName") == "worker-3")
        print(
            f"t={cluster.sim.now:6.1f}s  ready nodes={ready}/{total}  "
            f"application pods={len(pods)}  still bound to worker-3={on_victim}"
        )
    print("The failed node's pods were evicted and respawned on healthy nodes.")

    print("\n--- Scenario B: every node stops reporting health (Figure 2 pattern) ---")
    cluster_b = Cluster(ClusterConfig(seed=6, pod_eviction_timeout=30.0))
    cluster_b.boot(stabilization_seconds=30.0)
    user_b = cluster_b.user_client()
    application_b = ServiceApplication(user_b)
    application_b.create_shared_objects()
    application_b.create_deployments(count=3, replicas=2)
    cluster_b.run_for(20.0)
    for kubelet in cluster_b.kubelets:
        kubelet.stop()
    controller = next(c for c in cluster_b.kcm.controllers if c.name == "node-lifecycle")
    for _ in range(4):
        cluster_b.run_for(30.0)
        ready, total = node_ready_counts(cluster_b)
        pods = cluster_b.client.list("Pod", namespace="default")
        print(
            f"t={cluster_b.sim.now:6.1f}s  ready nodes={ready}/{total}  "
            f"application pods={len(pods)}  full-disruption mode={controller.full_disruption_mode}"
        )
    print(
        "With every node unhealthy the controller suspends evictions: the pods "
        "stay bound instead of being mass-deleted, which is exactly the guard "
        "the managed platform in the paper's Figure 2 incident lacked."
    )


if __name__ == "__main__":
    main()
