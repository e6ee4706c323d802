"""Integration tests: a full booted cluster and the orchestration workloads."""


from repro.cluster.cluster import Cluster, ClusterConfig
from repro.controllers.replicaset import pod_is_ready
from repro.etcd.store import EtcdStore
from repro.workloads.appclient import ApplicationClient
from repro.workloads.scenario import SERVICE_NAME, ServiceApplication
from repro.workloads.workload import KbenchDriver, WorkloadKind

# ----------------------------------------------------------------- boot


def test_cluster_config_defaults_to_the_etcd_store_quota():
    # ClusterConfig lives apart from the components; its copy of the
    # default must not drift from the store's own.
    assert ClusterConfig().etcd_quota_bytes == EtcdStore.DEFAULT_QUOTA_BYTES


def test_boot_creates_nodes_and_system_namespaces(booted_cluster):
    nodes = booted_cluster.client.list("Node")
    assert len(nodes) == 5
    namespaces = {ns["metadata"]["name"] for ns in booted_cluster.client.list("Namespace")}
    assert {"default", "kube-system", "kube-node-lease"} <= namespaces
    assert booted_cluster.worker_node_names() == ["worker-1", "worker-2", "worker-3", "worker-4"]


def test_boot_runs_network_manager_on_every_node(booted_cluster):
    pods = booted_cluster.client.list("Pod", namespace="kube-system")
    manager_nodes = {
        pod["spec"]["nodeName"]
        for pod in pods
        if pod["metadata"]["labels"].get("app") == "kube-network-manager"
    }
    assert manager_nodes == set(booted_cluster.node_names)
    assert all(
        pod_is_ready(pod)
        for pod in pods
        if pod["metadata"]["labels"].get("app") == "kube-network-manager"
    )


def test_boot_runs_dns_and_dns_is_available(booted_cluster):
    dns_pods = [
        pod
        for pod in booted_cluster.client.list("Pod", namespace="kube-system")
        if pod["metadata"]["labels"].get("k8s-app") == "kube-dns"
    ]
    assert len(dns_pods) == 2
    assert booted_cluster.network.dns_available()


def test_boot_elects_leaders_and_heartbeats_nodes(booted_cluster):
    assert booted_cluster.kcm.is_leader
    assert booted_cluster.scheduler.elector.is_leader
    for node in booted_cluster.client.list("Node"):
        ready = [c for c in node["status"]["conditions"] if c["type"] == "Ready"][0]
        assert ready["status"] == "True"


def test_metrics_are_collected_during_boot(booted_cluster):
    assert booted_cluster.metrics.samples
    last = booted_cluster.metrics.last_sample()
    assert last.nodes_ready == 5
    assert last.network_manager_ready_pods == 5


def test_ha_cluster_uses_three_etcd_members():
    cluster = Cluster(ClusterConfig(seed=3, control_plane_nodes=3, worker_nodes=2))
    cluster.boot(stabilization_seconds=25.0)
    assert len(cluster.raft.members) == 3
    assert cluster.raft.has_quorum()
    assert len(cluster.client.list("Node")) == 5


# ------------------------------------------------------------- workloads


def _run_workload(kind: WorkloadKind, seed=11):
    cluster = Cluster(ClusterConfig(seed=seed))
    cluster.boot(stabilization_seconds=25.0)
    user = cluster.user_client("user")
    application = ServiceApplication(user)
    driver = KbenchDriver(cluster.sim, user, application, kind, taint_node="worker-2")
    driver.setup_scenario()
    cluster.run_for(20.0)
    client = ApplicationClient(cluster.sim, cluster.network, expected_backends=6)
    client.start()
    driver.start()
    cluster.run_for(60.0)
    return cluster, driver, client


def test_deploy_workload_reaches_steady_state():
    cluster, driver, client = _run_workload(WorkloadKind.DEPLOY)
    deployments = cluster.client.list("Deployment", namespace="default")
    assert len(deployments) == 3
    ready = sum(d["status"]["readyReplicas"] for d in deployments)
    assert ready == 6
    endpoints = cluster.client.get("Endpoints", SERVICE_NAME, namespace="default")
    assert len(endpoints["subsets"][0]["addresses"]) == 6
    assert not driver.failed_requests()
    assert client.availability() > 0.5


def test_scale_workload_reaches_ten_replicas():
    cluster, driver, client = _run_workload(WorkloadKind.SCALE_UP)
    deployments = cluster.client.list("Deployment", namespace="default")
    assert len(deployments) == 2
    assert sum(d["spec"]["replicas"] for d in deployments) == 10
    assert sum(d["status"]["readyReplicas"] for d in deployments) == 10
    assert client.availability() > 0.9


def test_failover_workload_respawns_pods_on_other_nodes():
    cluster, driver, client = _run_workload(WorkloadKind.FAILOVER)
    pods = cluster.client.list("Pod", namespace="default")
    nodes_used = {pod["spec"]["nodeName"] for pod in pods}
    assert "worker-2" not in nodes_used
    deployments = cluster.client.list("Deployment", namespace="default")
    assert sum(d["status"]["readyReplicas"] for d in deployments) == 6
    assert client.availability() > 0.8


def test_application_client_time_series_has_expected_length():
    _, _, client = _run_workload(WorkloadKind.FAILOVER, seed=12)
    assert len(client.samples) == 600
    assert len(client.time_series()) == 600
