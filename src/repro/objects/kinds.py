"""Constructors for the resource kinds handled by the simulated cluster.

The kinds mirror the subset of the Kubernetes API that the paper's
experiments exercise: Pod, ReplicaSet, Deployment, DaemonSet, Service,
Endpoints, Node, Namespace, ConfigMap and Lease.  Every constructor returns a
plain dictionary manifest so that field-level fault injection addresses the
exact structure stored in the data store.
"""

from __future__ import annotations

from typing import Optional

from repro.objects.meta import make_object_meta

#: Registry of supported kinds: plural resource name and whether namespaced.
KINDS: dict[str, dict] = {
    "Pod": {"plural": "pods", "namespaced": True},
    "ReplicaSet": {"plural": "replicasets", "namespaced": True},
    "Deployment": {"plural": "deployments", "namespaced": True},
    "DaemonSet": {"plural": "daemonsets", "namespaced": True},
    "Service": {"plural": "services", "namespaced": True},
    "Endpoints": {"plural": "endpoints", "namespaced": True},
    "ConfigMap": {"plural": "configmaps", "namespaced": True},
    "Lease": {"plural": "leases", "namespaced": True},
    "Event": {"plural": "events", "namespaced": True},
    "Node": {"plural": "nodes", "namespaced": False},
    "Namespace": {"plural": "namespaces", "namespaced": False},
}

#: Priority values (mirrors Kubernetes priority classes).
PRIORITY_DEFAULT = 0
PRIORITY_SYSTEM_NODE_CRITICAL = 2_000_001_000
PRIORITY_SYSTEM_CLUSTER_CRITICAL = 2_000_000_000


def make_container(
    name: str,
    image: str,
    command: Optional[list[str]] = None,
    cpu_request: str = "100m",
    memory_request: str = "64Mi",
    cpu_limit: Optional[str] = None,
    memory_limit: Optional[str] = None,
    port: Optional[int] = None,
) -> dict:
    """Build a container spec entry."""
    container = {
        "name": name,
        "image": image,
        "command": list(command) if command else [],
        "resources": {
            "requests": {"cpu": cpu_request, "memory": memory_request},
            "limits": {
                "cpu": cpu_limit if cpu_limit is not None else cpu_request,
                "memory": memory_limit if memory_limit is not None else memory_request,
            },
        },
        "ports": [],
    }
    if port is not None:
        container["ports"].append({"containerPort": port, "protocol": "TCP"})
    return container


def make_pod(
    name: str,
    namespace: str = "default",
    labels: Optional[dict[str, str]] = None,
    containers: Optional[list[dict]] = None,
    node_name: Optional[str] = None,
    priority: int = PRIORITY_DEFAULT,
    tolerations: Optional[list[dict]] = None,
    owner_references: Optional[list[dict]] = None,
    volumes: Optional[list[dict]] = None,
) -> dict:
    """Build a Pod manifest."""
    if containers is None:
        containers = [make_container(name="app", image="repro/flask-app:1.0", port=8080)]
    return {
        "kind": "Pod",
        "metadata": make_object_meta(
            name, namespace=namespace, labels=labels, owner_references=owner_references
        ),
        "spec": {
            "nodeName": node_name,
            "containers": containers,
            "priority": priority,
            "restartPolicy": "Always",
            "dnsPolicy": "ClusterFirst",
            "tolerations": list(tolerations) if tolerations else [],
            "volumes": list(volumes) if volumes else [],
            "terminationGracePeriodSeconds": 30,
        },
        "status": {
            "phase": "Pending",
            "podIP": None,
            "hostIP": None,
            "ready": False,
            "restartCount": 0,
            "startTime": None,
            "conditions": [],
        },
    }


def make_pod_template(
    labels: dict[str, str],
    containers: Optional[list[dict]] = None,
    priority: int = PRIORITY_DEFAULT,
    tolerations: Optional[list[dict]] = None,
    volumes: Optional[list[dict]] = None,
) -> dict:
    """Build the pod template embedded in workload controllers."""
    if containers is None:
        containers = [make_container(name="app", image="repro/flask-app:1.0", port=8080)]
    return {
        "metadata": {"labels": dict(labels), "annotations": {}},
        "spec": {
            "containers": containers,
            "priority": priority,
            "restartPolicy": "Always",
            "dnsPolicy": "ClusterFirst",
            "tolerations": list(tolerations) if tolerations else [],
            "volumes": list(volumes) if volumes else [],
            "terminationGracePeriodSeconds": 30,
        },
    }


def make_replicaset(
    name: str,
    namespace: str = "default",
    replicas: int = 1,
    labels: Optional[dict[str, str]] = None,
    selector: Optional[dict] = None,
    template: Optional[dict] = None,
    owner_references: Optional[list[dict]] = None,
) -> dict:
    """Build a ReplicaSet manifest."""
    pod_labels = labels if labels else {"app": name}
    return {
        "kind": "ReplicaSet",
        "metadata": make_object_meta(
            name, namespace=namespace, labels=dict(pod_labels), owner_references=owner_references
        ),
        "spec": {
            "replicas": replicas,
            "selector": selector if selector else {"matchLabels": dict(pod_labels)},
            "template": template if template else make_pod_template(pod_labels),
        },
        "status": {
            "replicas": 0,
            "readyReplicas": 0,
            "availableReplicas": 0,
            "observedGeneration": 0,
        },
    }


def make_deployment(
    name: str,
    namespace: str = "default",
    replicas: int = 1,
    labels: Optional[dict[str, str]] = None,
    containers: Optional[list[dict]] = None,
    max_unavailable: int = 0,
    max_surge: int = 1,
) -> dict:
    """Build a Deployment manifest with a RollingUpdate strategy."""
    pod_labels = labels if labels else {"app": name}
    return {
        "kind": "Deployment",
        "metadata": make_object_meta(name, namespace=namespace, labels=dict(pod_labels)),
        "spec": {
            "replicas": replicas,
            "selector": {"matchLabels": dict(pod_labels)},
            "template": make_pod_template(pod_labels, containers=containers),
            "strategy": {
                "type": "RollingUpdate",
                "rollingUpdate": {"maxUnavailable": max_unavailable, "maxSurge": max_surge},
            },
            "revisionHistoryLimit": 10,
        },
        "status": {
            "replicas": 0,
            "readyReplicas": 0,
            "availableReplicas": 0,
            "updatedReplicas": 0,
            "observedGeneration": 0,
        },
    }


def make_daemonset(
    name: str,
    namespace: str = "kube-system",
    labels: Optional[dict[str, str]] = None,
    containers: Optional[list[dict]] = None,
    priority: int = PRIORITY_SYSTEM_NODE_CRITICAL,
    tolerations: Optional[list[dict]] = None,
) -> dict:
    """Build a DaemonSet manifest (one Pod per eligible Node).

    DaemonSet pods default to the system-node-critical priority and tolerate
    every taint — which is why the paper's uncontrolled-replication example
    ends with DaemonSet pods preempting all application pods.
    """
    pod_labels = labels if labels else {"app": name}
    if tolerations is None:
        tolerations = [{"operator": "Exists"}]
    return {
        "kind": "DaemonSet",
        "metadata": make_object_meta(name, namespace=namespace, labels=dict(pod_labels)),
        "spec": {
            "selector": {"matchLabels": dict(pod_labels)},
            "template": make_pod_template(
                pod_labels, containers=containers, priority=priority, tolerations=tolerations
            ),
            "updateStrategy": {"type": "RollingUpdate"},
        },
        "status": {
            "desiredNumberScheduled": 0,
            "currentNumberScheduled": 0,
            "numberReady": 0,
            "observedGeneration": 0,
        },
    }


def make_service(
    name: str,
    namespace: str = "default",
    selector: Optional[dict[str, str]] = None,
    port: int = 80,
    target_port: int = 8080,
    cluster_ip: Optional[str] = None,
) -> dict:
    """Build a Service manifest (ClusterIP load balancer over selected Pods)."""
    return {
        "kind": "Service",
        "metadata": make_object_meta(name, namespace=namespace, labels={"app": name}),
        "spec": {
            "selector": dict(selector) if selector else {"app": name},
            "ports": [{"port": port, "targetPort": target_port, "protocol": "TCP"}],
            "clusterIP": cluster_ip,
            "type": "ClusterIP",
        },
        "status": {},
    }


def make_endpoints(
    name: str,
    namespace: str = "default",
    addresses: Optional[list[dict]] = None,
    port: int = 8080,
    owner_references: Optional[list[dict]] = None,
) -> dict:
    """Build an Endpoints manifest listing the ready backends of a Service."""
    return {
        "kind": "Endpoints",
        "metadata": make_object_meta(name, namespace=namespace, owner_references=owner_references),
        "subsets": [
            {
                "addresses": list(addresses) if addresses else [],
                "ports": [{"port": port, "protocol": "TCP"}],
            }
        ],
    }


def make_node(
    name: str,
    cpu: str = "8",
    memory: str = "4Gi",
    max_pods: int = 110,
    role: str = "worker",
    pod_cidr: Optional[str] = None,
) -> dict:
    """Build a Node manifest with allocatable resources and a Ready condition."""
    labels = {"kubernetes.io/hostname": name, "node-role.kubernetes.io/" + role: ""}
    return {
        "kind": "Node",
        "metadata": make_object_meta(name, namespace="", labels=labels),
        "spec": {
            "taints": [],
            "unschedulable": False,
            "podCIDR": pod_cidr,
        },
        "status": {
            "allocatable": {"cpu": cpu, "memory": memory, "pods": max_pods},
            "capacity": {"cpu": cpu, "memory": memory, "pods": max_pods},
            "conditions": [
                {"type": "Ready", "status": "True", "lastHeartbeatTime": 0.0},
            ],
            "addresses": [{"type": "InternalIP", "address": None}],
            "nodeInfo": {"kubeletVersion": "v1.27.4-sim", "osImage": "repro-linux"},
        },
    }


def make_namespace(name: str) -> dict:
    """Build a Namespace manifest."""
    return {
        "kind": "Namespace",
        "metadata": make_object_meta(name, namespace=""),
        "spec": {"finalizers": ["kubernetes"]},
        "status": {"phase": "Active"},
    }


def make_configmap(
    name: str, namespace: str = "kube-system", data: Optional[dict[str, str]] = None
) -> dict:
    """Build a ConfigMap manifest."""
    return {
        "kind": "ConfigMap",
        "metadata": make_object_meta(name, namespace=namespace),
        "data": dict(data) if data else {},
    }


def make_lease(
    name: str,
    namespace: str = "kube-node-lease",
    holder: Optional[str] = None,
    duration_seconds: int = 40,
) -> dict:
    """Build a Lease manifest (node heartbeats and leader election)."""
    return {
        "kind": "Lease",
        "metadata": make_object_meta(name, namespace=namespace),
        "spec": {
            "holderIdentity": holder,
            "leaseDurationSeconds": duration_seconds,
            "renewTime": None,
            "acquireTime": None,
            "leaseTransitions": 0,
        },
    }
