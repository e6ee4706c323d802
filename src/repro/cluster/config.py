"""The simulated cluster's parameters, importable without the simulator.

Result stores, plans and campaign specs carry a :class:`ClusterConfig`, so
the processes that only move or serve results load this module and not
:mod:`repro.cluster.cluster`, which wires every component together.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The data-store quota the cluster runs with unless configured otherwise;
#: it is :attr:`repro.etcd.store.EtcdStore.DEFAULT_QUOTA_BYTES`.
DEFAULT_ETCD_QUOTA_BYTES = 8 * 1024 * 1024


@dataclass
class ClusterConfig:
    """Parameters of the simulated cluster."""

    #: Number of worker nodes (the paper uses 4, one reserved for monitoring).
    worker_nodes: int = 4
    #: Number of control-plane nodes (1 by default, 3 for the HA rerun).
    control_plane_nodes: int = 1
    #: Node size (the paper's VMs: 8 CPUs, 4 GiB RAM).
    node_cpu: str = "8"
    node_memory: str = "4Gi"
    max_pods_per_node: int = 110
    #: Data-store quota; small enough that runaway replication fills it.
    etcd_quota_bytes: int = DEFAULT_ETCD_QUOTA_BYTES
    #: Seconds a NotReady node keeps its pods before eviction.
    pod_eviction_timeout: float = 60.0
    #: Seed for all stochastic behaviour in the simulation.
    seed: int = 0
    #: Number of coreDNS replicas.
    dns_replicas: int = 2
    #: Serve Apiserver reads from its watch cache (Kubernetes default).
    apiserver_cache: bool = True
