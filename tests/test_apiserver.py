"""Unit tests for the Apiserver request path, validation, admission and watches."""

import pytest

from repro.apiserver.admission import AdmissionChain
from repro.apiserver.apiserver import APIServer
from repro.apiserver.client import APIClient
from repro.apiserver.errors import (
    AlreadyExistsError,
    ConflictError,
    ForbiddenError,
    InvalidObjectError,
    NotFoundError,
    ServerUnavailableError,
)
from repro.apiserver.registry import (
    UnknownKindError,
    is_namespaced,
    kind_from_key,
    storage_key,
    storage_prefix,
)
from repro.apiserver.validation import validate_object
from repro.etcd.raft import RaftGroup
from repro.etcd.store import EtcdStore
from repro.objects.kinds import make_deployment, make_namespace, make_node, make_pod, make_service
from repro.serialization import encode
from repro.sim.engine import Simulation

# ----------------------------------------------------------------- registry


def test_storage_key_layout():
    assert storage_key("Pod", "ns1", "p") == "/registry/pods/ns1/p"
    assert storage_key("Node", None, "n") == "/registry/nodes/n"
    assert storage_prefix("Deployment") == "/registry/deployments/"
    assert is_namespaced("Pod") and not is_namespaced("Node")


def test_kind_from_key():
    assert kind_from_key("/registry/pods/ns/p") == "Pod"
    assert kind_from_key("/registry/nodes/n") == "Node"
    assert kind_from_key("/other/path") is None
    assert kind_from_key("/registry/unknownkind/ns/x") is None


def test_unknown_kind_rejected():
    with pytest.raises(UnknownKindError):
        storage_key("Widget", "ns", "w")


# --------------------------------------------------------------- validation


def test_validation_accepts_wellformed_objects():
    for kind, obj in (
        ("Pod", make_pod("p")),
        ("Deployment", make_deployment("d")),
        ("Service", make_service("s")),
        ("Node", make_node("n")),
    ):
        assert validate_object(kind, obj, obj["metadata"].get("namespace")).ok


def test_validation_rejects_bad_names():
    pod = make_pod("Bad_Name!")
    assert not validate_object("Pod", pod, "default").ok


def test_validation_rejects_namespace_url_mismatch():
    pod = make_pod("p", namespace="other")
    result = validate_object("Pod", pod, expected_namespace="default")
    assert not result.ok
    assert any("namespace" in error for error in result.errors)


def test_validation_rejects_selector_template_mismatch():
    deployment = make_deployment("d", labels={"app": "d"})
    deployment["spec"]["selector"]["matchLabels"] = {"app": "other"}
    assert not validate_object("Deployment", deployment, "default").ok


def test_validation_rejects_extreme_replicas_but_not_wrong_ones():
    deployment = make_deployment("d", replicas=17)
    # 17 is wrong (user wanted 5) but syntactically valid: accepted.
    assert validate_object("Deployment", deployment, "default").ok
    deployment["spec"]["replicas"] = -1
    assert not validate_object("Deployment", deployment, "default").ok
    deployment["spec"]["replicas"] = 10**9
    assert not validate_object("Deployment", deployment, "default").ok


def test_validation_does_not_catch_valid_but_wrong_label():
    # The paper's F2 weakness: a flipped character is still a valid label.
    deployment = make_deployment("d", labels={"app": "d"})
    deployment["spec"]["template"]["metadata"]["labels"]["app"] = "e"
    deployment["spec"]["selector"]["matchLabels"]["app"] = "e"
    assert validate_object("Deployment", deployment, "default").ok


def test_validation_rejects_missing_containers_and_bad_ports():
    pod = make_pod("p")
    pod["spec"]["containers"] = []
    assert not validate_object("Pod", pod, "default").ok
    service = make_service("s", port=99999)
    assert not validate_object("Service", service, "default").ok


# ---------------------------------------------------------------- admission


def test_admission_defaults_pod_fields():
    chain = AdmissionChain()
    pod = make_pod("p")
    del pod["spec"]["priority"]
    chain.admit("Pod", pod, "create")
    assert pod["spec"]["priority"] == 0


def test_admission_policy_plugin_can_reject():
    def deny_oversized_requests(kind, obj, operation):
        if obj["spec"]["replicas"] > 500:
            raise ForbiddenError("admission: replica count exceeds policy limit 500")

    chain = AdmissionChain()
    chain.add_plugin(deny_oversized_requests)
    deployment = make_deployment("d", replicas=1000)
    with pytest.raises(ForbiddenError):
        chain.admit("Deployment", deployment, "create")


# ---------------------------------------------------------------- apiserver


def _apiserver() -> APIServer:
    return APIServer(Simulation(), EtcdStore())


def test_create_get_list_delete_cycle():
    api = _apiserver()
    created = api.create("Pod", make_pod("p", namespace="default"))
    assert created["metadata"]["resourceVersion"] > 0
    fetched = api.get("Pod", "p", namespace="default")
    assert fetched["metadata"]["name"] == "p"
    assert len(api.list("Pod", namespace="default")) == 1
    assert api.delete("Pod", "p", namespace="default")
    with pytest.raises(NotFoundError):
        api.get("Pod", "p", namespace="default")


def test_create_duplicate_rejected():
    api = _apiserver()
    api.create("Pod", make_pod("p"))
    with pytest.raises(AlreadyExistsError):
        api.create("Pod", make_pod("p"))


def test_update_requires_existing_object_and_matching_resource_version():
    api = _apiserver()
    with pytest.raises(NotFoundError):
        api.update("Pod", make_pod("ghost"))
    created = api.create("Pod", make_pod("p"))
    created["spec"]["priority"] = 10
    api.update("Pod", created)
    stale = dict(created)
    stale["metadata"] = dict(created["metadata"])
    stale["metadata"]["resourceVersion"] = created["metadata"]["resourceVersion"]
    with pytest.raises(ConflictError):
        api.update("Pod", stale)


def test_update_bumps_generation_only_on_spec_change():
    api = _apiserver()
    deployment = api.create("Deployment", make_deployment("d", replicas=1))
    assert deployment["metadata"]["generation"] == 1
    fetched = api.get("Deployment", "d")
    fetched["spec"]["replicas"] = 2
    updated = api.update("Deployment", fetched)
    assert updated["metadata"]["generation"] == 2
    fetched = api.get("Deployment", "d")
    fetched["status"]["readyReplicas"] = 2
    status_updated = api.update_status("Deployment", fetched)
    assert status_updated["metadata"]["generation"] == 2


def test_list_with_label_selector():
    api = _apiserver()
    api.create("Pod", make_pod("a", labels={"app": "web"}))
    api.create("Pod", make_pod("b", labels={"app": "db"}))
    assert len(api.list("Pod", label_selector={"app": "web"})) == 1


def test_invalid_object_rejected_and_logged():
    api = _apiserver()
    pod = make_pod("p")
    pod["spec"]["containers"] = []
    with pytest.raises(InvalidObjectError):
        api.create("Pod", pod)
    assert api.user_errors("user")


def test_unhealthy_apiserver_returns_503():
    api = _apiserver()
    api.healthy = False
    with pytest.raises(ServerUnavailableError):
        api.create("Pod", make_pod("p"))


def test_no_quorum_returns_503():
    raft = RaftGroup(["a", "b", "c"])
    api = APIServer(Simulation(), EtcdStore(), raft=raft)
    raft.fail_member("a")
    raft.fail_member("b")
    with pytest.raises(ServerUnavailableError):
        api.create("Pod", make_pod("p"))


def test_etcd_quota_exhaustion_returns_503():
    api = APIServer(Simulation(), EtcdStore(quota_bytes=600))
    api.create("Namespace", make_namespace("a"))
    with pytest.raises(ServerUnavailableError):
        for index in range(10):
            api.create("Pod", make_pod(f"p{index}"))
    assert any(event["reason"] == "EtcdSpaceExhausted" for event in api.events)


def test_undecodable_object_is_deleted_on_read():
    api = _apiserver()
    api.create("Pod", make_pod("p"))
    key = storage_key("Pod", "default", "p")
    api.store.put(key, b"\xff\xff\xff\xff")
    api.restart()  # drop the cache so the read goes to the corrupted bytes
    with pytest.raises(NotFoundError):
        api.get("Pod", "p")
    assert api.store.get(key) is None
    assert any(event["reason"] == "UndecodableObjectDeleted" for event in api.events)


def test_message_drop_hook_acknowledges_without_persisting():
    api = _apiserver()
    api.set_etcd_write_hook(lambda context, data: None)
    api.create("Pod", make_pod("p"))
    api.set_etcd_write_hook(None)
    # The user got an acknowledgement but the object never reached the store.
    assert api.list("Pod") == []
    assert not api.user_errors("user")


def test_corrupting_hook_persists_corrupted_value():
    api = _apiserver()

    def corrupt(context, data):
        obj = make_pod("p")
        obj["metadata"]["labels"] = {"app": "corrupted"}
        return encode(obj)

    api.set_etcd_write_hook(corrupt)
    api.create("Pod", make_pod("p", labels={"app": "web"}))
    api.set_etcd_write_hook(None)
    stored = api.get("Pod", "p")
    assert stored["metadata"]["labels"]["app"] == "corrupted"


def test_at_rest_corruption_masked_by_cache_until_restart():
    api = _apiserver()
    api.create("Deployment", make_deployment("d", replicas=2))
    key = storage_key("Deployment", "default", "d")
    corrupted = api.get("Deployment", "d")
    corrupted["spec"]["replicas"] = 99
    # Corrupt at rest, bypassing the apiserver and its watch (simulating a
    # direct disk corruption rather than a watched write).
    api.store._data[key].value = encode(corrupted)  # noqa: SLF001 - test reaches into the store
    assert api.get("Deployment", "d")["spec"]["replicas"] == 2
    api.restart()
    assert api.get("Deployment", "d")["spec"]["replicas"] == 99


# ------------------------------------------------------------------- client


def test_client_request_hook_can_corrupt_and_drop():
    api = _apiserver()
    client = APIClient(api, component="kube-controller-manager")

    client.set_request_hook(lambda context, data: None)
    client.create("Pod", make_pod("dropped"))
    assert api.list("Pod") == []

    def corrupt(context, data):
        return data[:-1] + bytes([data[-1] ^ 0xFF])

    client.set_request_hook(corrupt)
    try:
        client.create("Pod", make_pod("maybe"))
    except InvalidObjectError:
        pass
    client.set_request_hook(None)
    client.create("Pod", make_pod("clean"))
    assert any(pod["metadata"]["name"] == "clean" for pod in api.list("Pod"))


def test_client_counts_failures():
    api = _apiserver()
    client = APIClient(api, component="tester")
    client.create("Pod", make_pod("p"))
    with pytest.raises(AlreadyExistsError):
        client.create("Pod", make_pod("p"))
    assert client.requests_sent == 2
    assert client.requests_failed == 1
