"""Integration tests: end-to-end injection experiments reproducing the
failure mechanisms described in the paper's results section."""

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.classification import ClientFailure, OrchestratorFailure
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.core.parallel import CampaignExecutor, WorkloadPrep
from repro.network.network import NETWORK_CONFIGMAP
from repro.workloads.workload import WorkloadKind


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(ExperimentConfig())


@pytest.fixture(scope="module")
def deploy_baseline(runner):
    return runner.build_baseline(WorkloadKind.DEPLOY, runs=2, base_seed=300)


def test_golden_run_classifies_as_no_failure(runner, deploy_baseline):
    result = runner.run_golden(WorkloadKind.DEPLOY, seed=333)
    runner.classify(result, deploy_baseline)
    assert result.orchestrator_failure == OrchestratorFailure.NO
    assert result.client_failure == ClientFailure.NSI


def test_uncontrolled_replication_from_template_label_corruption(runner, deploy_baseline):
    # Paper §V-C1, "Example of uncontrolled replication": one bit flipped in
    # the labels linking pods to their controller triggers an unbounded spawn.
    fault = FaultSpec(
        channel=InjectionChannel.APISERVER_TO_ETCD,
        kind="ReplicaSet",
        field_path="spec.template.metadata.labels.app",
        fault_type=FaultType.BIT_FLIP,
        bit_index=0,
        occurrence=1,
    )
    result = runner.run_experiment(WorkloadKind.DEPLOY, fault, baseline=deploy_baseline, seed=301)
    assert result.injected
    assert result.orchestrator_failure in (OrchestratorFailure.STA, OrchestratorFailure.OUT)
    assert result.pods_created > deploy_baseline.pods_created_mean * 5


def test_message_drop_of_deployment_create_underprovisions(runner, deploy_baseline):
    # Dropping the transaction that persists one Deployment leaves the user
    # believing it was created: a Less-Resources failure with no user error.
    fault = FaultSpec(
        channel=InjectionChannel.APISERVER_TO_ETCD,
        kind="Deployment",
        fault_type=FaultType.MESSAGE_DROP,
        occurrence=1,
    )
    result = runner.run_experiment(WorkloadKind.DEPLOY, fault, baseline=deploy_baseline, seed=302)
    assert result.injected and result.dropped
    assert result.orchestrator_failure == OrchestratorFailure.LER
    assert not result.user_received_error


def test_network_configmap_corruption_causes_cluster_outage(runner, deploy_baseline):
    # Corrupting the network manager's configuration tears down every route:
    # the paper's cluster-wide networking outage.
    fault = FaultSpec(
        channel=InjectionChannel.APISERVER_TO_ETCD,
        kind="ConfigMap",
        name=NETWORK_CONFIGMAP,
        namespace="kube-system",
        field_path="data.network",
        fault_type=FaultType.DATA_TYPE_SET,
        set_value="",
        occurrence=1,
    )
    result = runner.run_experiment(WorkloadKind.DEPLOY, fault, baseline=deploy_baseline, seed=303)
    if result.injected:
        assert result.orchestrator_failure in (OrchestratorFailure.STA, OrchestratorFailure.OUT)
    else:
        # The ConfigMap is only rewritten if something touches it during the
        # run; not firing is an acceptable outcome for this occurrence.
        assert result.orchestrator_failure == OrchestratorFailure.NO


def test_replica_count_corruption_changes_provisioning(runner):
    # Flipping a high-order bit of a Deployment's replica count during the
    # scale-up workload temporarily overprovisions the service (the paper's
    # "wrong replica value" → MoR pattern).
    baseline = runner.build_baseline(WorkloadKind.SCALE_UP, runs=2, base_seed=400)
    fault = FaultSpec(
        channel=InjectionChannel.APISERVER_TO_ETCD,
        kind="Deployment",
        name="webapp-1",
        namespace="default",
        field_path="spec.replicas",
        fault_type=FaultType.BIT_FLIP,
        bit_index=4,
        occurrence=1,
    )
    result = runner.run_experiment(WorkloadKind.SCALE_UP, fault, baseline=baseline, seed=401)
    assert result.injected
    assert result.orchestrator_failure in (
        OrchestratorFailure.LER,
        OrchestratorFailure.MOR,
        OrchestratorFailure.TIM,
        OrchestratorFailure.STA,
    )
    assert result.pods_created > baseline.pods_created_mean


def test_replicaset_replica_corruption_is_healed_by_deployment_controller(runner):
    # The same corruption on the ReplicaSet (owned by the Deployment) is
    # overwritten by the Deployment controller before it can take effect —
    # one of the paper's "no effect: value overwritten" recoveries.
    baseline = runner.build_baseline(WorkloadKind.SCALE_UP, runs=2, base_seed=400)
    fault = FaultSpec(
        channel=InjectionChannel.APISERVER_TO_ETCD,
        kind="ReplicaSet",
        field_path="spec.replicas",
        fault_type=FaultType.BIT_FLIP,
        bit_index=4,
        occurrence=2,
    )
    result = runner.run_experiment(WorkloadKind.SCALE_UP, fault, baseline=baseline, seed=402)
    assert result.injected
    assert result.orchestrator_failure in (
        OrchestratorFailure.NO,
        OrchestratorFailure.MOR,
        OrchestratorFailure.TIM,
    )


def test_node_name_corruption_triggers_scheduler_restart(runner, deploy_baseline):
    # Paper's "Example of timing failure": a corrupted nodeName makes the
    # scheduler restart and pay the leader re-election delay.
    fault = FaultSpec(
        channel=InjectionChannel.APISERVER_TO_ETCD,
        kind="Pod",
        field_path="spec.nodeName",
        fault_type=FaultType.BIT_FLIP,
        bit_index=1,
        occurrence=2,
    )
    result = runner.run_experiment(WorkloadKind.DEPLOY, fault, baseline=deploy_baseline, seed=304)
    assert result.injected
    # The corrupted assignment is healed (the pod is recreated or rescheduled);
    # the cost is timing/classification noise, not a system-wide failure.
    assert result.orchestrator_failure in (
        OrchestratorFailure.NO,
        OrchestratorFailure.TIM,
        OrchestratorFailure.LER,
        OrchestratorFailure.MOR,
        OrchestratorFailure.STA,
    )


def test_most_injections_have_no_user_visible_error(runner, deploy_baseline):
    # Finding F4: the user is acknowledged and never told about the failure.
    faults = [
        FaultSpec(
            channel=InjectionChannel.APISERVER_TO_ETCD,
            kind="ReplicaSet",
            field_path="spec.template.metadata.labels.app",
            fault_type=FaultType.BIT_FLIP,
            occurrence=1,
        ),
        FaultSpec(
            channel=InjectionChannel.APISERVER_TO_ETCD,
            kind="Pod",
            field_path="metadata.labels.app",
            fault_type=FaultType.DATA_TYPE_SET,
            set_value="",
            occurrence=1,
        ),
    ]
    for index, fault in enumerate(faults):
        result = runner.run_experiment(
            WorkloadKind.DEPLOY, fault, baseline=deploy_baseline, seed=320 + index
        )
        assert result.injected
        assert not result.user_received_error


def test_propagation_experiments_report_per_component_rows():
    # Table VI: bit-flips on the component→Apiserver channel either propagate
    # to the store or are rejected by validation.
    campaign = Campaign(
        CampaignConfig(workloads=(WorkloadKind.DEPLOY,), golden_runs=1, max_experiments_per_workload=5)
    )
    rows = campaign.run_propagation(components=("kube-scheduler",), fields_per_component=2)
    assert len(rows) == 1
    row = rows[0]
    assert row["component"] == "kube-scheduler"
    assert row["injections"] == row["propagated"] + row["errors"]
    assert row["injections"] >= 1


# ------------------------------------------------------------------ campaign


def _prep_recording(workload, seed):
    """The fields prep's recording run (golden run 0 at ``seed``) records."""
    ((_, recorded, _),) = CampaignExecutor(workers=1).prepare_workloads(
        [WorkloadPrep(workload=workload, golden_runs=0, base_seed=seed)]
    )
    return recorded


def test_field_recorder_and_campaign_generation(runner):
    campaign = Campaign(CampaignConfig(golden_runs=1, max_experiments_per_workload=10))
    recorded = _prep_recording(WorkloadKind.DEPLOY, seed=77)
    kinds = {record.kind for record in recorded}
    assert "Deployment" in kinds and "Pod" in kinds and "ReplicaSet" in kinds
    paths = {record.path for record in recorded}
    assert any("labels" in path for path in paths)
    assert any(path.endswith("replicas") for path in paths)

    specs = campaign.generate(recorded)
    families = {spec.fault_type for spec in specs}
    assert families == {
        FaultType.BIT_FLIP,
        FaultType.DATA_TYPE_SET,
        FaultType.MESSAGE_DROP,
        FaultType.PROTO_BYTE_FLIP,
    }
    # §IV-C rules: ints get two bit positions + a zero set, strings get two
    # character flips + an empty set, each at occurrences 1..3; drops at 1..10.
    int_specs = [
        spec for spec in specs
        if spec.field_path and spec.field_path.endswith("spec.replicas") and spec.kind == "Deployment"
    ]
    assert len(int_specs) == 9
    drops = [spec for spec in specs if spec.fault_type is FaultType.MESSAGE_DROP]
    assert len(drops) == len(kinds) * 10

    planned = campaign.plan(WorkloadKind.DEPLOY, recorded)
    assert len(planned) == 10


def test_campaign_plan_is_deterministic():
    config = CampaignConfig(golden_runs=1, max_experiments_per_workload=12, seed=9)
    campaign_a = Campaign(config)
    campaign_b = Campaign(CampaignConfig(golden_runs=1, max_experiments_per_workload=12, seed=9))
    recorded_a = _prep_recording(WorkloadKind.SCALE_UP, seed=80)
    recorded_b = _prep_recording(WorkloadKind.SCALE_UP, seed=80)
    plan_a = [planned.fault.describe() for planned in campaign_a.plan(WorkloadKind.SCALE_UP, recorded_a)]
    plan_b = [planned.fault.describe() for planned in campaign_b.plan(WorkloadKind.SCALE_UP, recorded_b)]
    assert plan_a == plan_b
