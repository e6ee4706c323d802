"""A finished run frees itself.

A simulated cluster is a graph of reference cycles: components hold the
simulation and their recurring tasks, the queue's events hold bound methods
of both, and the etcd store's watches hold the Apiserver that holds the
store.  ``Cluster.close`` cuts them, and every owner of a cluster calls it
when done: a run on its own cluster, a runner and a campaign executor on
their prefix snapshots (docs/INVARIANTS.md, "A finished run frees itself").
Pinned here: with the cyclic collector off, a collection after each kind of
run, after a dropped runner or executor and after a whole campaign finds
nothing to free.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.experiment import ExperimentRunner, ExperimentTask
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.core.parallel import _PREFIXES, CampaignExecutor, WorkloadPrep
from repro.workloads.workload import WorkloadKind

WORKLOADS = (WorkloadKind.DEPLOY, WorkloadKind.SCALE_UP, WorkloadKind.FAILOVER)

ETCD_FAULT = FaultSpec(
    channel=InjectionChannel.APISERVER_TO_ETCD,
    kind="Deployment",
    field_path="spec.replicas",
    fault_type=FaultType.BIT_FLIP,
)
COMPONENT_FAULT = FaultSpec(
    channel=InjectionChannel.COMPONENT_TO_APISERVER,
    kind="Pod",
    field_path="spec.nodeName",
    component="kube-scheduler",
    fault_type=FaultType.BIT_FLIP,
)


def _cyclic_garbage(action) -> Counter:
    """The objects, by type, that only the cyclic collector would free
    after ``action()`` (the collector is off while it runs)."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    """A runner holding every workload's snapshot (and every lazy import done)."""
    runner = ExperimentRunner()
    for workload in WORKLOADS:
        runner.run_golden(workload, seed=100)
    return runner


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.value)
def test_a_golden_run_leaves_no_cyclic_garbage(runner, workload):
    assert _cyclic_garbage(lambda: runner.run_golden(workload, seed=101)) == {}


def test_an_apiserver_to_etcd_fault_leaves_no_cyclic_garbage(runner):
    def run():
        assert runner.run_experiment(WorkloadKind.DEPLOY, ETCD_FAULT, seed=101).injected

    assert _cyclic_garbage(run) == {}


def test_a_component_to_apiserver_fault_leaves_no_cyclic_garbage(runner):
    def run():
        assert runner.run_experiment(WorkloadKind.FAILOVER, COMPONENT_FAULT, seed=101).injected

    assert _cyclic_garbage(run) == {}


def test_a_run_without_a_snapshot_leaves_no_cyclic_garbage(runner, monkeypatch):
    # A prefix that draws from an RNG stream keeps no snapshot (the guard):
    # the run closes the cluster it simulated itself.
    from repro.controllers.garbage_collector import GarbageCollector

    original = GarbageCollector.reconcile_all

    def drawing_reconcile_all(self):
        self.sim.rng.uniform("gc-jitter", 0.0, 1.0)
        original(self)

    monkeypatch.setattr(GarbageCollector, "reconcile_all", drawing_reconcile_all)
    guarded = ExperimentRunner()

    def run():
        guarded.run_golden(WorkloadKind.DEPLOY, seed=100)
        assert guarded.prefixes == {}

    assert _cyclic_garbage(run) == {}


def test_a_dropped_runner_frees_its_snapshots():
    def run_and_drop():
        ExperimentRunner().run_golden(WorkloadKind.SCALE_UP, seed=100)

    assert _cyclic_garbage(run_and_drop) == {}


def _run_executor(executor: CampaignExecutor) -> None:
    """Prep one workload and run two tasks on it, in this process."""
    [(baseline, _, _)] = executor.prepare_workloads([WorkloadPrep(WorkloadKind.DEPLOY, 2)])
    tasks = [
        ExperimentTask(index, WorkloadKind.DEPLOY, fault, seed=1000 + index)
        for index, fault in enumerate((ETCD_FAULT, COMPONENT_FAULT))
    ]
    executor.run_experiments(tasks, {WorkloadKind.DEPLOY.value: baseline})
    assert set(_PREFIXES[executor.scope]) == {WorkloadKind.DEPLOY}


def test_a_closed_executor_leaves_no_cyclic_garbage():
    scopes = []

    def run():
        with CampaignExecutor(workers=1) as executor:
            scopes.append(executor.scope)
            _run_executor(executor)

    assert _cyclic_garbage(run) == {}
    assert scopes[0] not in _PREFIXES


def test_an_executor_collected_without_close_leaves_no_cyclic_garbage():
    scopes = []

    def run():
        executor = CampaignExecutor(workers=1)
        scopes.append(executor.scope)
        _run_executor(executor)

    assert _cyclic_garbage(run) == {}
    assert scopes[0] not in _PREFIXES


def test_a_campaign_leaves_no_cyclic_garbage(tmp_path):
    config = CampaignConfig(
        workloads=WORKLOADS,
        golden_runs=2,
        max_experiments_per_workload=2,
        seed=7,
        workers=1,
    )

    def run():
        result = Campaign(config).run(results_dir=str(tmp_path / "store"))
        assert result.total_experiments() == 6

    assert _cyclic_garbage(run) == {}
