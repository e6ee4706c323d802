"""Cluster assembly.

Wires the substrates into a running simulated cluster equivalent to the
paper's testbed: one (or three) control-plane nodes, four worker nodes, the
default system workloads (network-manager DaemonSet, coreDNS Deployment and
Service), and all component loops started.

The names below are imported on first access, so loading
:class:`ClusterConfig` does not load the simulator.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(
    globals(),
    {
        "Cluster": "repro.cluster.cluster",
        "ClusterConfig": "repro.cluster.config",
    },
)

__all__ = ["Cluster", "ClusterConfig"]
