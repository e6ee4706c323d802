"""Unit tests for the virtual cluster network and the metrics collector."""


from repro.monitoring.metrics import MetricsCollector
from repro.network.network import NETWORK_CONFIGMAP, ClusterNetwork
from repro.objects.kinds import (
    make_configmap,
    make_deployment,
    make_endpoints,
    make_node,
    make_pod,
    make_replicaset,
    make_service,
)


def _running_pod(api, name, labels, node, ip, namespace="default"):
    pod = make_pod(name, namespace=namespace, labels=labels, node_name=node)
    pod["status"]["phase"] = "Running"
    pod["status"]["ready"] = True
    pod["status"]["podIP"] = ip
    return api.create("Pod", pod, actor="test")


def _network_fixture(control_plane, nodes=("worker-1",)):
    api = control_plane.apiserver
    api.create(
        "ConfigMap",
        make_configmap(NETWORK_CONFIGMAP, namespace="kube-system", data={"network": "10.244.0.0/16"}),
        actor="test",
    )
    for index, node in enumerate(nodes):
        api.create("Node", make_node(node), actor="test")
        _running_pod(
            api,
            f"net-{node}",
            {"app": "kube-network-manager"},
            node,
            f"10.244.{index}.2",
            namespace="kube-system",
        )
    network = ClusterNetwork(control_plane.sim, api)
    network.sync()
    return api, network


def test_pods_programmed_only_with_network_manager_present(control_plane):
    api, network = _network_fixture(control_plane, nodes=("worker-1", "worker-2"))
    _running_pod(api, "app-1", {"app": "web"}, "worker-1", "10.244.0.10")
    network.sync()
    assert network.pod_reachable(api.get("Pod", "app-1"))
    # A pod on a node with no network manager never gets routes.
    api.create("Node", make_node("worker-3"), actor="test")
    _running_pod(api, "app-2", {"app": "web"}, "worker-3", "10.244.3.10")
    network.sync()
    assert not network.pod_reachable(api.get("Pod", "app-2"))


def test_existing_routes_survive_network_manager_failure(control_plane):
    # Stall semantics: already-programmed pods keep working, new ones do not.
    api, network = _network_fixture(control_plane)
    _running_pod(api, "old", {"app": "web"}, "worker-1", "10.244.0.10")
    network.sync()
    api.delete("Pod", "net-worker-1", namespace="kube-system", actor="test")
    _running_pod(api, "new", {"app": "web"}, "worker-1", "10.244.0.11")
    network.sync()
    assert network.pod_reachable(api.get("Pod", "old"))
    assert not network.pod_reachable(api.get("Pod", "new"))


def test_configmap_corruption_tears_down_all_routes(control_plane):
    # Outage semantics: a corrupted network configuration drops every route.
    api, network = _network_fixture(control_plane)
    _running_pod(api, "app-1", {"app": "web"}, "worker-1", "10.244.0.10")
    network.sync()
    assert network.pod_reachable(api.get("Pod", "app-1"))
    config = api.get("ConfigMap", NETWORK_CONFIGMAP, namespace="kube-system")
    config["data"]["network"] = ""
    api.update("ConfigMap", config, actor="mutiny")
    network.sync()
    assert not network.pod_reachable(api.get("Pod", "app-1"))
    assert network.teardowns == 1


def test_dns_availability_follows_dns_pods(control_plane):
    api, network = _network_fixture(control_plane)
    assert not network.dns_available()
    _running_pod(
        api, "coredns-1", {"k8s-app": "kube-dns"}, "worker-1", "10.244.0.53", namespace="kube-system"
    )
    network.sync()
    assert network.dns_available()
    api.delete("Pod", "coredns-1", namespace="kube-system", actor="test")
    network.sync()
    assert not network.dns_available()


def test_service_requests_load_balance_over_reachable_backends(control_plane):
    api, network = _network_fixture(control_plane)
    api.create("Service", make_service("webapp", selector={"app": "web"}), actor="test")
    _running_pod(api, "w1", {"app": "web"}, "worker-1", "10.244.0.10")
    _running_pod(api, "w2", {"app": "web"}, "worker-1", "10.244.0.11")
    api.create(
        "Endpoints",
        make_endpoints("webapp", addresses=[{"ip": "10.244.0.10"}, {"ip": "10.244.0.11"}]),
        actor="test",
    )
    network.sync()
    outcomes = [network.request("webapp", expected_backends=2) for _ in range(4)]
    assert all(outcome.success for outcome in outcomes)
    assert {outcome.backend_ip for outcome in outcomes} == {"10.244.0.10", "10.244.0.11"}


def test_service_request_fails_without_endpoints_or_service(control_plane):
    api, network = _network_fixture(control_plane)
    assert network.request("missing").error == "service-not-found"
    api.create("Service", make_service("webapp", selector={"app": "web"}), actor="test")
    assert network.request("webapp").error == "no-endpoints"


def test_request_latency_grows_when_backends_are_missing(control_plane):
    api, network = _network_fixture(control_plane)
    api.create("Service", make_service("webapp", selector={"app": "web"}), actor="test")
    _running_pod(api, "w1", {"app": "web"}, "worker-1", "10.244.0.10")
    api.create("Endpoints", make_endpoints("webapp", addresses=[{"ip": "10.244.0.10"}]), actor="test")
    network.sync()
    normal = network.request("webapp", expected_backends=1)
    degraded = network.request("webapp", expected_backends=4)
    assert degraded.latency > normal.latency


def test_dns_requirement_fails_requests_when_dns_down(control_plane):
    api, network = _network_fixture(control_plane)
    api.create("Service", make_service("webapp", selector={"app": "web"}), actor="test")
    outcome = network.request("webapp", use_dns=True)
    assert not outcome.success
    assert outcome.error == "dns-resolution-failed"


# ------------------------------------------------------------------ metrics


def test_metrics_collector_scrapes_cluster_state(control_plane):
    api = control_plane.apiserver
    collector = MetricsCollector(control_plane.sim, api)
    api.create("Deployment", make_deployment("web", replicas=2), actor="test")
    replicaset = make_replicaset("web-1", replicas=2, labels={"app": "web"})
    replicaset["status"]["readyReplicas"] = 1
    api.create("ReplicaSet", replicaset, actor="test")
    api.create("Node", make_node("worker-1"), actor="test")
    _running_pod(api, "p1", {"app": "web"}, "worker-1", "10.244.0.10")
    api.create(
        "Endpoints", make_endpoints("web", addresses=[{"ip": "10.244.0.10"}]), actor="test"
    )
    sample = collector.scrape()
    assert sample.replicasets["default/web-1"] == (1, 2)
    assert sample.deployments["default/web"] == (0, 2)
    assert sample.endpoints["default/web"] == 1
    assert sample.total_pods == 1
    assert sample.nodes_ready == 1
    assert sample.pods_by_phase.get("Running") == 1


def test_metrics_collector_counts_cumulative_pod_creations(control_plane):
    api = control_plane.apiserver
    collector = MetricsCollector(control_plane.sim, api)
    api.create("Node", make_node("worker-1"), actor="test")
    _running_pod(api, "a", {"app": "web"}, "worker-1", "10.244.0.10")
    collector.scrape()
    api.delete("Pod", "a", actor="test")
    _running_pod(api, "b", {"app": "web"}, "worker-1", "10.244.0.11")
    sample = collector.scrape()
    assert sample.total_pods == 1
    assert sample.pods_created_cumulative == 2


def test_metrics_collector_marks_scrape_failure_when_apiserver_down(control_plane):
    api = control_plane.apiserver
    collector = MetricsCollector(control_plane.sim, api)
    api.healthy = False
    sample = collector.scrape()
    assert sample.scrape_failed
    api.healthy = True
