"""Unit tests for the individual controllers, driven by hand against a
minimal control plane (no other component loops running)."""


from repro.apiserver.client import APIClient
from repro.controllers.base import backoff_delay
from repro.controllers.daemonset import DaemonSetController, tolerates_taints
from repro.controllers.deployment import DeploymentController, template_hash
from repro.controllers.endpoints import EndpointsController
from repro.controllers.garbage_collector import GarbageCollector
from repro.controllers.leaderelection import LeaderElector
from repro.controllers.namespace import NamespaceController
from repro.controllers.node_lifecycle import NodeLifecycleController
from repro.controllers.replicaset import ReplicaSetController, pod_is_active, pod_is_ready
from repro.objects.kinds import (
    make_daemonset,
    make_deployment,
    make_lease,
    make_namespace,
    make_node,
    make_pod,
    make_replicaset,
    make_service,
)
from repro.objects.meta import make_owner_reference


def _client(control_plane, name="kube-controller-manager"):
    return APIClient(control_plane.apiserver, component=name)


def _mark_running(api, pod, ip="10.244.1.1"):
    pod["status"]["phase"] = "Running"
    pod["status"]["ready"] = True
    pod["status"]["podIP"] = ip
    api.update_status("Pod", pod)


def _write_corrupted(apiserver, kind, obj, mutate):
    """Create an object while corrupting it on the Apiserver→etcd channel.

    This is how Mutiny introduces values that the validation layer would
    otherwise reject: the corruption happens after validation, on the way to
    the store.
    """
    from repro.serialization import decode, encode

    def hook(context, data):
        decoded = decode(data)
        mutate(decoded)
        return encode(decoded)

    apiserver.set_etcd_write_hook(hook)
    try:
        return apiserver.create(kind, obj, actor="test")
    finally:
        apiserver.set_etcd_write_hook(None)


# ------------------------------------------------------------------ backoff


def test_backoff_doubles_caps_and_resets_on_success(control_plane):
    controller = ReplicaSetController(control_plane.sim, _client(control_plane))
    observed = []
    for _ in range(7):
        controller.record_key_failure("k")
        observed.append(controller._skip_until["k"] - control_plane.sim.now)
    assert observed == [1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]
    assert [backoff_delay(n) for n in (1, 2, 6)] == [1.0, 2.0, 30.0]
    controller.record_key_success("k")
    assert "k" not in controller._skip_until
    controller.record_key_failure("k")
    assert controller._skip_until["k"] - control_plane.sim.now == 1.0
    assert controller.error_count == 8


def test_backoff_key_active_until_expiry_exactly(control_plane):
    controller = ReplicaSetController(control_plane.sim, _client(control_plane))
    control_plane.sim.run_for(10.0)
    controller.record_key_failure("k")
    controller.record_key_failure("k")
    assert controller.key_backoff_active("k")
    control_plane.sim.run_for(1.5)
    assert controller.key_backoff_active("k")
    control_plane.sim.run_for(0.5)
    # Expired at exactly now + 2 s, but remembered until the key reconciles.
    assert not controller.key_backoff_active("k")
    assert "k" in controller._skip_until


# ---------------------------------------------------------- leader election


def test_leader_election_acquire_renew_release(control_plane):
    client = _client(control_plane)
    elector = LeaderElector(control_plane.sim, client, "kube-controller-manager", identity="kcm-a")
    assert elector.try_acquire_or_renew()
    assert elector.is_leader
    other = LeaderElector(control_plane.sim, client, "kube-controller-manager", identity="kcm-b")
    assert not other.try_acquire_or_renew()
    elector.release()
    assert other.try_acquire_or_renew()


def test_leader_election_takes_over_expired_lease(control_plane):
    client = _client(control_plane)
    first = LeaderElector(
        control_plane.sim, client, "kube-scheduler", identity="a", lease_duration=15.0
    )
    first.try_acquire_or_renew()
    control_plane.sim.run_for(20.0)
    second = LeaderElector(control_plane.sim, client, "kube-scheduler", identity="b")
    assert second.try_acquire_or_renew()


def test_leader_election_blocked_by_corrupted_lease(control_plane):
    client = _client(control_plane)
    elector = LeaderElector(control_plane.sim, client, "kube-controller-manager", identity="a")
    elector.try_acquire_or_renew()
    lease = client.get("Lease", "kube-controller-manager", namespace="kube-system")
    lease["spec"]["holderIdentity"] = "someone-else"
    lease["spec"]["renewTime"] = control_plane.sim.now + 10_000.0
    client.update("Lease", lease)
    # The lease now looks held by another identity far into the future:
    # leadership cannot be (re)acquired — a Stall cause in the paper.
    assert not elector.try_acquire_or_renew()


# --------------------------------------------------------------- replicaset


def test_replicaset_scales_up_to_desired(control_plane):
    client = _client(control_plane)
    controller = ReplicaSetController(control_plane.sim, client)
    client.create("ReplicaSet", make_replicaset("web", replicas=3, labels={"app": "web"}))
    controller.sync()
    pods = client.list("Pod")
    assert len(pods) == 3
    assert all(pod["metadata"]["labels"]["app"] == "web" for pod in pods)
    assert all(pod["metadata"]["ownerReferences"] for pod in pods)


def test_replicaset_scales_down_excess_pods(control_plane):
    client = _client(control_plane)
    controller = ReplicaSetController(control_plane.sim, client)
    replicaset = client.create("ReplicaSet", make_replicaset("web", replicas=1, labels={"app": "web"}))
    for index in range(3):
        pod = make_pod(
            f"web-extra-{index}",
            labels={"app": "web"},
            owner_references=[make_owner_reference(replicaset)],
        )
        client.create("Pod", pod)
    controller.sync()
    assert len(client.list("Pod")) == 1


def test_replicaset_adopts_matching_orphans(control_plane):
    client = _client(control_plane)
    controller = ReplicaSetController(control_plane.sim, client)
    client.create("ReplicaSet", make_replicaset("web", replicas=1, labels={"app": "web"}))
    client.create("Pod", make_pod("orphan", labels={"app": "web"}))
    controller.sync()
    pods = client.list("Pod")
    assert len(pods) == 1
    assert pods[0]["metadata"]["ownerReferences"]


def test_replicaset_corrupted_template_labels_spawn_unbounded(control_plane):
    # The uncontrolled-replication mechanism (finding F2): the selector no
    # longer matches the pods created from the template, so every sync
    # creates another batch.
    client = _client(control_plane)
    controller = ReplicaSetController(control_plane.sim, client)
    replicaset = make_replicaset("web", replicas=2, labels={"app": "web"})

    def corrupt(obj):
        obj["spec"]["template"]["metadata"]["labels"]["app"] = "wrong"

    _write_corrupted(control_plane.apiserver, "ReplicaSet", replicaset, corrupt)
    for _ in range(4):
        controller.sync()
    assert len(client.list("Pod")) >= 4 * 2
    assert controller.pods_created >= 8


def test_replicaset_corrupted_replica_value_treated_as_zero(control_plane):
    client = _client(control_plane)
    controller = ReplicaSetController(control_plane.sim, client)
    replicaset = make_replicaset("web", replicas=2, labels={"app": "web"})

    def corrupt(obj):
        obj["spec"]["replicas"] = "two"  # corrupted to a non-integer

    _write_corrupted(control_plane.apiserver, "ReplicaSet", replicaset, corrupt)
    controller.sync()
    # The controller does not crash and creates nothing for the unparseable value.
    assert client.list("Pod") == []
    assert controller.error_count == 0


def test_pod_readiness_helpers():
    pod = make_pod("p")
    assert pod_is_active(pod)
    assert not pod_is_ready(pod)
    pod["status"]["phase"] = "Running"
    pod["status"]["ready"] = True
    assert pod_is_ready(pod)
    pod["metadata"]["deletionTimestamp"] = 1.0
    assert not pod_is_active(pod)


# --------------------------------------------------------------- deployment


def test_deployment_creates_replicaset_and_status(control_plane):
    client = _client(control_plane)
    deploy_controller = DeploymentController(control_plane.sim, client)
    rs_controller = ReplicaSetController(control_plane.sim, client)
    client.create("Deployment", make_deployment("web", replicas=2, labels={"app": "web"}))
    deploy_controller.sync()
    replicasets = client.list("ReplicaSet")
    assert len(replicasets) == 1
    assert replicasets[0]["spec"]["replicas"] == 2
    rs_controller.sync()
    assert len(client.list("Pod")) == 2


def test_deployment_scale_up_propagates(control_plane):
    client = _client(control_plane)
    deploy_controller = DeploymentController(control_plane.sim, client)
    client.create("Deployment", make_deployment("web", replicas=2, labels={"app": "web"}))
    deploy_controller.sync()
    deployment = client.get("Deployment", "web")
    deployment["spec"]["replicas"] = 5
    client.update("Deployment", deployment)
    deploy_controller.sync()
    assert client.list("ReplicaSet")[0]["spec"]["replicas"] == 5


def test_deployment_rolling_update_creates_new_replicaset(control_plane):
    client = _client(control_plane)
    deploy_controller = DeploymentController(control_plane.sim, client)
    client.create("Deployment", make_deployment("web", replicas=2, labels={"app": "web"}))
    deploy_controller.sync()
    deployment = client.get("Deployment", "web")
    deployment["spec"]["template"]["spec"]["containers"][0]["image"] = "repro/flask-app:2.0"
    client.update("Deployment", deployment)
    deploy_controller.sync()
    replicasets = client.list("ReplicaSet")
    assert len(replicasets) == 2
    hashes = {rs["metadata"]["labels"].get("pod-template-hash") for rs in replicasets}
    assert template_hash(deployment["spec"]["template"]) in hashes


def test_template_hash_stable_and_sensitive():
    template = make_deployment("d")["spec"]["template"]
    assert template_hash(template) == template_hash(template)
    other = make_deployment("d")["spec"]["template"]
    other["spec"]["containers"][0]["image"] = "different"
    assert template_hash(template) != template_hash(other)


# ---------------------------------------------------------------- daemonset


def test_daemonset_creates_one_pod_per_node(control_plane):
    client = _client(control_plane)
    controller = DaemonSetController(control_plane.sim, client)
    for index in range(3):
        client.create("Node", make_node(f"worker-{index}"))
    client.create("DaemonSet", make_daemonset("net", labels={"app": "net"}))
    controller.sync()
    pods = client.list("Pod", namespace="kube-system")
    assert len(pods) == 3
    assert {pod["spec"]["nodeName"] for pod in pods} == {"worker-0", "worker-1", "worker-2"}


def test_daemonset_ignores_unschedulable_nodes(control_plane):
    client = _client(control_plane)
    controller = DaemonSetController(control_plane.sim, client)
    node = make_node("worker-0")
    node["spec"]["unschedulable"] = True
    client.create("Node", node)
    client.create("Node", make_node("worker-1"))
    client.create("DaemonSet", make_daemonset("net", labels={"app": "net"}))
    controller.sync()
    assert len(client.list("Pod", namespace="kube-system")) == 1


def test_daemonset_corrupted_selector_spawns_every_sync(control_plane):
    client = _client(control_plane)
    controller = DaemonSetController(control_plane.sim, client)
    client.create("Node", make_node("worker-0"))
    daemonset = make_daemonset("net", labels={"app": "net"})

    def corrupt(obj):
        obj["spec"]["selector"]["matchLabels"]["app"] = "wrong"

    _write_corrupted(control_plane.apiserver, "DaemonSet", daemonset, corrupt)
    for _ in range(3):
        controller.sync()
    assert len(client.list("Pod", namespace="kube-system")) == 3


def test_daemonset_deletes_duplicate_pods_and_pods_on_ineligible_nodes(control_plane):
    client = _client(control_plane)
    controller = DaemonSetController(control_plane.sim, client)
    for index in range(2):
        client.create("Node", make_node(f"worker-{index}"))
    client.create("DaemonSet", make_daemonset("net", labels={"app": "net"}))
    controller.sync()
    # An orphan matching the selector is adopted as a second pod on worker-0.
    client.create(
        "Pod", make_pod("net-extra", namespace="kube-system", labels={"app": "net"}, node_name="worker-0")
    )
    node = client.get("Node", "worker-1")
    node["spec"]["unschedulable"] = True
    client.update("Node", node)
    controller.sync()
    pods = client.list("Pod", namespace="kube-system")
    assert [pod["spec"]["nodeName"] for pod in pods] == ["worker-0"]


def test_tolerations_matching():
    taint = {"key": "node.kubernetes.io/unreachable", "effect": "NoExecute"}
    assert tolerates_taints({"tolerations": [{"operator": "Exists"}]}, [taint])
    assert not tolerates_taints({"tolerations": []}, [taint])
    assert tolerates_taints({"tolerations": []}, [])
    assert tolerates_taints({"tolerations": []}, [{"key": "soft", "effect": "PreferNoSchedule"}])
    exists = {"key": taint["key"], "operator": "Exists"}
    assert tolerates_taints({"tolerations": [exists]}, [taint])
    assert not tolerates_taints({"tolerations": [dict(exists, effect="NoSchedule")]}, [taint])
    assert not tolerates_taints({"tolerations": [{"key": "other", "operator": "Exists"}]}, [taint])
    valued = {"key": "dedicated", "value": "infra", "effect": "NoSchedule"}
    assert tolerates_taints({"tolerations": [dict(valued, operator="Equal")]}, [valued])
    assert not tolerates_taints({"tolerations": [dict(valued, value="web")]}, [valued])
    assert not tolerates_taints({"tolerations": "corrupted"}, [taint])


# ---------------------------------------------------------------- endpoints


def test_endpoints_follow_ready_pods(control_plane):
    client = _client(control_plane)
    controller = EndpointsController(control_plane.sim, client)
    client.create("Service", make_service("web", selector={"app": "web"}))
    ready = make_pod("ready", labels={"app": "web"})
    client.create("Pod", ready)
    _mark_running(control_plane.apiserver, client.get("Pod", "ready"), ip="10.244.1.5")
    client.create("Pod", make_pod("not-ready", labels={"app": "web"}))
    client.create("Pod", make_pod("other", labels={"app": "db"}))
    controller.sync()
    endpoints = client.get("Endpoints", "web")
    addresses = endpoints["subsets"][0]["addresses"]
    assert [entry["ip"] for entry in addresses] == ["10.244.1.5"]
    # A pod becoming ready later is added on the next sync.
    _mark_running(control_plane.apiserver, client.get("Pod", "not-ready"), ip="10.244.1.6")
    controller.sync()
    endpoints = client.get("Endpoints", "web")
    assert len(endpoints["subsets"][0]["addresses"]) == 2


def test_endpoints_left_stale_when_selector_corrupted(control_plane):
    client = _client(control_plane)
    controller = EndpointsController(control_plane.sim, client)
    client.create("Service", make_service("web", selector={"app": "web"}))
    client.create("Pod", make_pod("p", labels={"app": "web"}))
    _mark_running(control_plane.apiserver, client.get("Pod", "p"))
    controller.sync()
    assert client.get("Endpoints", "web")["subsets"][0]["addresses"]
    service = client.get("Service", "web")
    service["spec"]["selector"] = None
    client.update("Service", service)
    client.delete("Pod", "p")
    controller.sync()
    # The controller no longer manages the endpoints: the stale address stays.
    assert client.get("Endpoints", "web")["subsets"][0]["addresses"]


# ----------------------------------------------------------- node lifecycle


def _heartbeat(client, node_name, when):
    lease = make_lease(node_name, namespace="kube-node-lease", holder=node_name)
    lease["spec"]["renewTime"] = when
    try:
        existing = client.get("Lease", node_name, namespace="kube-node-lease")
        existing["spec"]["renewTime"] = when
        client.update("Lease", existing)
    except Exception:  # noqa: BLE001
        client.create("Lease", lease)


def test_node_marked_not_ready_without_heartbeat(control_plane):
    client = _client(control_plane)
    controller = NodeLifecycleController(control_plane.sim, client, grace_period=40.0)
    client.create("Node", make_node("worker-0"))
    _heartbeat(client, "worker-0", when=0.0)
    control_plane.sim.run_for(100.0)
    controller.sync()
    node = client.get("Node", "worker-0", namespace=None)
    ready = [c for c in node["status"]["conditions"] if c["type"] == "Ready"][0]
    assert ready["status"] == "False"


def test_pods_evicted_after_eviction_timeout(control_plane):
    client = _client(control_plane)
    controller = NodeLifecycleController(
        control_plane.sim, client, grace_period=10.0, eviction_timeout=20.0
    )
    client.create("Node", make_node("worker-0"))
    client.create("Node", make_node("worker-1"))
    _heartbeat(client, "worker-0", when=0.0)
    pod = make_pod("app", node_name="worker-0")
    client.create("Pod", pod)
    control_plane.sim.run_for(15.0)
    _heartbeat(client, "worker-1", when=control_plane.sim.now)
    controller.sync()  # worker-0 marked NotReady, not yet evicted
    assert client.list("Pod")
    control_plane.sim.run_for(25.0)
    _heartbeat(client, "worker-1", when=control_plane.sim.now)
    controller.sync()
    assert client.list("Pod") == []
    assert controller.evictions == 1


def test_full_disruption_mode_stops_evictions(control_plane):
    client = _client(control_plane)
    controller = NodeLifecycleController(
        control_plane.sim, client, grace_period=10.0, eviction_timeout=20.0
    )
    client.create("Node", make_node("worker-0"))
    client.create("Node", make_node("worker-1"))
    client.create("Pod", make_pod("app", node_name="worker-0"))
    control_plane.sim.run_for(60.0)
    controller.sync()
    controller.sync()
    # Every node is unhealthy (no heartbeats at all): evictions are suspended.
    assert controller.full_disruption_mode
    assert client.list("Pod")


def test_noexecute_taint_evicts_intolerant_pods(control_plane):
    client = _client(control_plane)
    controller = NodeLifecycleController(control_plane.sim, client)
    node = make_node("worker-0")
    node["spec"]["taints"] = [{"key": "failure", "effect": "NoExecute"}]
    client.create("Node", node)
    _heartbeat(client, "worker-0", when=control_plane.sim.now)
    client.create("Pod", make_pod("app", node_name="worker-0"))
    tolerant = make_pod("agent", node_name="worker-0", tolerations=[{"operator": "Exists"}])
    client.create("Pod", tolerant)
    controller.sync()
    remaining = [pod["metadata"]["name"] for pod in client.list("Pod")]
    assert remaining == ["agent"]


# ------------------------------------------------- namespace + garbage collection


def test_namespace_controller_deletes_contents_of_missing_namespace(control_plane):
    client = _client(control_plane)
    controller = NamespaceController(control_plane.sim, client)
    client.create("Namespace", make_namespace("team-a"))
    client.create("Pod", make_pod("p", namespace="team-a"))
    controller.sync()
    assert client.list("Pod", namespace="team-a")
    client.delete("Namespace", "team-a", namespace=None)
    controller.sync()
    assert client.list("Pod", namespace="team-a") == []
    assert controller.cascaded_deletes == 1


def test_namespace_controller_spares_system_namespaces(control_plane):
    client = _client(control_plane)
    controller = NamespaceController(control_plane.sim, client)
    client.create("Pod", make_pod("p", namespace="kube-system"))
    controller.sync()
    assert client.list("Pod", namespace="kube-system")


def test_garbage_collector_removes_orphans_of_deleted_owner(control_plane):
    client = _client(control_plane)
    collector = GarbageCollector(control_plane.sim, client)
    replicaset = client.create("ReplicaSet", make_replicaset("web", replicas=1, labels={"app": "web"}))
    pod = make_pod("web-1", labels={"app": "web"}, owner_references=[make_owner_reference(replicaset)])
    client.create("Pod", pod)
    collector.sync()
    assert client.list("Pod")
    client.delete("ReplicaSet", "web")
    collector.sync()
    assert client.list("Pod") == []
    assert collector.collected == 1


def test_garbage_collector_keeps_objects_with_live_owner_even_if_labels_corrupted(control_plane):
    client = _client(control_plane)
    collector = GarbageCollector(control_plane.sim, client)
    replicaset = client.create("ReplicaSet", make_replicaset("web", replicas=1, labels={"app": "web"}))
    pod = make_pod("web-1", labels={"app": "corrupted"}, owner_references=[make_owner_reference(replicaset)])
    client.create("Pod", pod)
    collector.sync()
    # Corrupted labels orphan the pod from the selector's point of view, but
    # the GC does not remove it because its owner still exists — the extra
    # resource consumption of the paper's MoR failures.
    assert client.list("Pod")
