"""Edge-triggered controller and scheduler passes (``ChangeGate``).

A pass is skipped only when it provably sends no request, so the skip must be
invisible in the Apiserver's request log: every experiment below is run twice,
once as the product runs it and once with the gate forced to run every pass,
and the two full request logs (time, actor, verb, kind, name, namespace,
error) must be identical.
"""

from __future__ import annotations

import pytest

from repro.apiserver.client import APIClient
from repro.cluster.cluster import ClusterConfig
from repro.controllers.base import ChangeGate
from repro.controllers.deployment import DeploymentController
from repro.controllers.replicaset import ReplicaSetController
from repro.core import experiment
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.objects.kinds import make_deployment, make_pod, make_replicaset, make_service
from repro.workloads.workload import WorkloadKind

LEVEL_TRIGGERED = {"node-lifecycle", "namespace", "garbage-collector"}


def _run(monkeypatch, workload, fault, seed, force=False, config=None, restarts=()):
    """One experiment; returns its cluster.  ``restarts`` are (time, callable
    taking the cluster) pairs scheduled on the simulated clock."""
    clusters = []

    class RecordingCluster(experiment.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)
            for when, action in restarts:
                self.sim.call_at(when, lambda action=action: action(self))

    with monkeypatch.context() as patch:
        patch.setattr(experiment, "Cluster", RecordingCluster)
        if force:
            patch.setattr(ChangeGate, "should_skip", lambda self, token, backed_off: False)
        ExperimentRunner(config).run_experiment(workload, fault, seed=seed)
    return clusters[0]


def _assert_neutral(monkeypatch, workload, fault, seed, **kwargs):
    gated = _run(monkeypatch, workload, fault, seed, **kwargs)
    forced = _run(monkeypatch, workload, fault, seed, force=True, **kwargs)
    assert gated.apiserver.request_log == forced.apiserver.request_log
    return gated


_ETCD_CHANNEL = FaultSpec(
    channel=InjectionChannel.APISERVER_TO_ETCD,
    kind="Deployment",
    field_path="spec.replicas",
    fault_type=FaultType.BIT_FLIP,
)

_CASES = {
    # The benchmark's self-check experiments, one per injection channel.
    "etcd-channel": (WorkloadKind.DEPLOY, _ETCD_CHANNEL, 7, {}),
    "component-channel": (
        WorkloadKind.FAILOVER,
        FaultSpec(
            channel=InjectionChannel.COMPONENT_TO_APISERVER,
            kind="Pod",
            field_path="spec.nodeName",
            component="kube-scheduler",
            fault_type=FaultType.BIT_FLIP,
        ),
        8,
        {},
    ),
    # An acknowledged write that never reaches the store moves no revision.
    "message-drop": (
        WorkloadKind.SCALE_UP,
        FaultSpec(
            channel=InjectionChannel.APISERVER_TO_ETCD,
            kind="ReplicaSet",
            fault_type=FaultType.MESSAGE_DROP,
            occurrence=2,
        ),
        21,
        {},
    ),
    # Seed-3 plan index 9: the ReplicaSet controller's status write fails
    # validation every pass and the failure is swallowed, so no revision
    # moves; only "the pass sent a request" keeps the next pass running.
    "swallowed-status-failure": (
        WorkloadKind.DEPLOY,
        FaultSpec(
            channel=InjectionChannel.APISERVER_TO_ETCD,
            kind="ReplicaSet",
            field_path="spec.template.metadata.labels.app",
            fault_type=FaultType.BIT_FLIP,
            occurrence=3,
        ),
        1010,
        {},
    ),
    "kcm-and-apiserver-restart": (
        WorkloadKind.SCALE_UP,
        _ETCD_CHANNEL,
        22,
        {
            "restarts": (
                (50.0, lambda cluster: cluster.kcm.restart()),
                (80.0, lambda cluster: cluster.apiserver.restart()),
            )
        },
    ),
    "apiserver-cache-off": (
        WorkloadKind.DEPLOY,
        _ETCD_CHANNEL,
        23,
        {"config": ExperimentConfig(cluster=ClusterConfig(apiserver_cache=False))},
    ),
    # Seed-3 campaign plan at 40 experiments per workload, plan index 72: a
    # ReplicaSet update fails at t = 71 s exactly when a key's backoff
    # expires.  A gate that treats an expired backoff as "no backoff" skips
    # that pass and loses the failed update.
    "backoff-boundary": (
        WorkloadKind.SCALE_UP,
        FaultSpec(
            channel=InjectionChannel.APISERVER_TO_ETCD,
            kind="ReplicaSet",
            field_path="spec.selector.matchLabels.app",
            fault_type=FaultType.DATA_TYPE_SET,
            set_value="",
            occurrence=3,
        ),
        1073,
        {},
    ),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_skipped_passes_leave_the_request_log_unchanged(monkeypatch, case):
    workload, fault, seed, kwargs = _CASES[case]
    cluster = _assert_neutral(monkeypatch, workload, fault, seed, **kwargs)
    stats = {entry["name"]: entry for entry in cluster.kcm.stats()["controllers"]}
    # The comparison is only worth something if passes were in fact skipped.
    for name, entry in stats.items():
        assert (entry["skipped"] == 0) == (name in LEVEL_TRIGGERED), name
    assert cluster.scheduler.stats()["skipped"] > 0


def test_backoff_boundary_case_fails_a_write_at_the_expiry_tick(monkeypatch):
    workload, fault, seed, _ = _CASES["backoff-boundary"]
    cluster = _run(monkeypatch, workload, fault, seed)
    failed = [
        (record.time, record.kind, record.operation)
        for record in cluster.apiserver.request_log
        if record.error and record.actor == "kube-controller-manager"
    ]
    assert (71.0, "ReplicaSet", "update") in failed


# ------------------------------------------------------------- gate units


def _client(control_plane):
    return APIClient(control_plane.apiserver, component="kube-controller-manager")


def test_pass_skipped_until_a_watched_kind_is_written(control_plane):
    client = _client(control_plane)
    controller = ReplicaSetController(control_plane.sim, client)
    client.create("ReplicaSet", make_replicaset("web", replicas=1, labels={"app": "web"}))
    controller.sync()  # creates the pod
    controller.sync()  # status update
    controller.sync()  # nothing to do: recorded as quiet
    controller.sync()
    assert (controller.gate.passes, controller.gate.skipped) == (3, 1)
    control_plane.admin.create("Deployment", make_deployment("unwatched"))
    controller.sync()
    assert controller.gate.skipped == 2
    control_plane.admin.create("Pod", make_pod("stray"))
    controller.sync()
    assert controller.stats()["syncs"] == 4 and controller.stats()["skipped"] == 2


def test_pass_that_sent_a_dropped_request_runs_again(control_plane):
    client = _client(control_plane)
    controller = ReplicaSetController(control_plane.sim, client)
    client.create("ReplicaSet", make_replicaset("web", replicas=1, labels={"app": "web"}))
    client.set_request_hook(lambda context, data: None)  # every write dropped
    for _ in range(3):
        controller.sync()
    assert controller.gate.skipped == 0
    assert controller.pods_created == 3


def test_apiserver_restart_forces_a_pass(control_plane):
    controller = DeploymentController(control_plane.sim, _client(control_plane))
    controller.sync()
    controller.sync()
    assert controller.gate.skipped == 1
    control_plane.apiserver.restart()
    controller.sync()
    assert controller.gate.passes == 2


def test_read_token_moves_only_with_its_kinds_and_restarts(control_plane):
    apiserver = control_plane.apiserver
    token = apiserver.read_token(("Pod", "Node"))
    control_plane.admin.create("Service", make_service("s"))
    assert apiserver.read_token(("Pod", "Node")) == token
    control_plane.admin.create("Pod", make_pod("p"))
    moved = apiserver.read_token(("Pod", "Node"))
    assert moved != token
    apiserver.restart()
    assert apiserver.read_token(("Pod", "Node"))[0] == moved[0] + 1
