"""A run's seed draws only its client's latency jitter, so a fault-free
trajectory simulated once can be replayed at any other seed.

Pinned here (docs/INVARIANTS.md, "The seed draws only client latency"):
replayed golden runs and replayed never-firing faults are byte-identical to
simulated ones, a replayed client draws the very latencies the live one did,
and a run that draws from any other RNG stream turns replay off without
moving a digest.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.experiment import ExperimentConfig, ExperimentRunner, fires, replay
from repro.core.parallel import CampaignExecutor, WorkloadPrep
from repro.core.resultstore import ShardedResultStore, canonical_bytes, result_to_dict
from repro.hotpath import COUNTERS
from repro.workloads.workload import WorkloadKind

WORKLOADS = (WorkloadKind.DEPLOY, WorkloadKind.SCALE_UP, WorkloadKind.FAILOVER)


def _record(result) -> bytes:
    return canonical_bytes(result_to_dict(result))


@pytest.fixture(scope="module")
def pinned_plan():
    """The benchmark's pinned plan (seed 7, 6 per workload) and the
    trajectories of its prep's recording runs (golden run 0, seed 100)."""
    campaign = Campaign(
        CampaignConfig(
            workloads=WORKLOADS, golden_runs=1, max_experiments_per_workload=6, seed=7, workers=1
        )
    )
    tasks, baselines, _, trajectories = campaign.plan_campaign()
    return tasks, baselines, trajectories


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.value)
def test_replayed_golden_runs_equal_simulated_ones(pinned_plan, workload):
    _, _, trajectories = pinned_plan
    trajectory = trajectories[workload.value]
    assert trajectory.replayable
    runner = ExperimentRunner()
    for seed in (101, 102):
        assert _record(replay(trajectory, seed)) == _record(runner.run_golden(workload, seed=seed))


def test_a_replayed_client_draws_the_live_latencies():
    # The live client's latencies come from the simulation RNG as the run
    # goes; the replayed ones from a fresh RNG at the same seed.  They agree
    # only while nothing else draws from the latency stream before the
    # client's last request.
    from repro.cluster.cluster import Cluster
    from repro.cluster.config import ClusterConfig
    from repro.workloads.appclient import ApplicationClient
    from repro.workloads.scenario import ServiceApplication
    from repro.workloads.workload import KbenchDriver

    cluster = Cluster(ClusterConfig(seed=5))
    cluster.boot(stabilization_seconds=25.0)
    user = cluster.user_client("user")
    driver = KbenchDriver(cluster.sim, user, ServiceApplication(user), WorkloadKind.DEPLOY)
    driver.setup_scenario()
    cluster.run_for(20.0)
    client = ApplicationClient(cluster.sim, cluster.network, expected_backends=6)
    client.start()
    driver.start()
    cluster.run_for(40.0)

    assert any(sample.success for sample in client.samples)
    replayed = ApplicationClient.replay(client.requests, seed=5)
    assert replayed.samples == client.samples
    assert ApplicationClient.replay(client.requests, seed=6).samples != client.samples


def test_never_firing_faults_replay_to_their_simulated_records(pinned_plan):
    tasks, baselines, trajectories = pinned_plan
    runner = ExperimentRunner()
    never = []
    for task in tasks:
        baseline = baselines[task.workload.value]
        simulated = runner.run_experiment(task.workload, task.fault, baseline=baseline, seed=task.seed)
        trajectory = trajectories[task.workload.value]
        if fires(trajectory, [task.fault]) == [True]:
            assert simulated.injected, task.fault.describe()
            continue
        never.append(task.index)
        replayed = runner.classify(replay(trajectory, task.seed, task.fault), baseline)
        assert not (replayed.injected or replayed.activated or replayed.dropped)
        assert replayed.injection_time is None
        assert _record(replayed) == _record(simulated), task.fault.describe()
    # The benchmark's campaign replays these five (docs/PERFORMANCE.md).
    assert len(never) == 5


def test_component_faults_always_count_as_firing(pinned_plan):
    from repro.core.injector import FaultSpec, FaultType, InjectionChannel

    _, _, trajectories = pinned_plan
    fault = FaultSpec(
        channel=InjectionChannel.COMPONENT_TO_APISERVER,
        kind="NoSuchKind",
        field_path="spec.replicas",
        component="kube-scheduler",
        fault_type=FaultType.BIT_FLIP,
    )
    assert fires(trajectories["deploy"], [fault]) == [True]


def _digest_and_simulations(tmp_path, name: str) -> tuple[str, int]:
    config = CampaignConfig(
        workloads=(WorkloadKind.DEPLOY,),
        golden_runs=2,
        max_experiments_per_workload=6,
        seed=7,
        workers=1,
        chunk_size=1,
    )
    root = str(tmp_path / name)
    before = COUNTERS.experiments
    Campaign(config).run(results_dir=root)
    return ShardedResultStore(root).results_digest(), COUNTERS.experiments - before


def test_another_rng_stream_turns_replay_off_and_keeps_the_digest(tmp_path, monkeypatch):
    from repro.controllers.garbage_collector import GarbageCollector

    replayed_digest, replayed_simulations = _digest_and_simulations(tmp_path, "replayed")
    # deploy at seed 7: one simulated prep run, one replayed golden run, one
    # never-firing fault replayed, five faults simulated.
    assert replayed_simulations == 6

    original = GarbageCollector.reconcile_all

    def drawing_reconcile_all(self):
        self.sim.rng.uniform("gc-jitter", 0.0, 1.0)  # drawn, never used
        original(self)

    monkeypatch.setattr(GarbageCollector, "reconcile_all", drawing_reconcile_all)
    ((_, _, trajectory),) = CampaignExecutor(ExperimentConfig(), workers=1).prepare_workloads(
        [WorkloadPrep(workload=WorkloadKind.DEPLOY, golden_runs=0)]
    )
    assert trajectory is None

    simulated_digest, simulations = _digest_and_simulations(tmp_path, "simulated")
    assert simulations == 1 + 1 + 6  # every golden run and every task simulated
    assert simulated_digest == replayed_digest


def test_recorded_messages_unpack_to_what_the_hook_saw():
    seen = []
    runner = ExperimentRunner()
    runner.run_golden(
        WorkloadKind.DEPLOY,
        seed=100,
        etcd_observer=lambda context, data: seen.append(
            (context.kind, context.name, context.namespace, data)
        ),
    )
    messages = list(runner.last_trajectory.etcd_messages()())
    assert [tuple(message) for message in messages] == seen
    assert len(runner.last_trajectory.message_bytes) * 10 < sum(len(data) for *_, data in seen)
