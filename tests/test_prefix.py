"""Every simulated run starts from a copy of its workload's prefix snapshot.

The prefix — boot, scenario set-up, set-up window — draws from no RNG stream,
so a runner simulates it once per workload and starts each run from a copy
(docs/INVARIANTS.md, "The prefix is a function of (config, workload)").
Pinned here: a run started from a copy is byte-identical to one that
simulated its own prefix, a copy continues the UID sequence where the
snapshot left it, running a copy leaves the snapshot untouched, and a prefix
that draws from an RNG stream keeps no snapshot without moving a digest.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.experiment import ExperimentRunner
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.core.resultstore import ShardedResultStore, canonical_bytes, result_to_dict
from repro.hotpath import COUNTERS
from repro.sim.engine import Simulation
from repro.workloads.workload import WorkloadKind

WORKLOADS = (WorkloadKind.DEPLOY, WorkloadKind.SCALE_UP, WorkloadKind.FAILOVER)

#: One fault per injection channel; both fire on every workload.
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


def _record(result) -> bytes:
    return canonical_bytes(result_to_dict(result))


def _run(runner: ExperimentRunner, workload: WorkloadKind, fault, seed: int):
    if fault is None:
        return runner.run_golden(workload, seed=seed)
    result = runner.run_experiment(workload, fault, seed=seed)
    assert result.injected, fault.describe()
    return result


class FreshRunner(ExperimentRunner):
    """A runner whose every run simulates its own prefix at its own seed."""

    def prefix(self, workload, seed):
        return self._simulate_prefix(workload, seed)


def _fresh(workload: WorkloadKind, fault, seed: int) -> bytes:
    return _record(_run(FreshRunner(), workload, fault, seed))


def _etcd_state(cluster) -> dict[str, bytes]:
    return {key: cluster.store.get(key).value for key in cluster.store.keys()}


def _run_window(cluster, driver) -> dict[str, bytes]:
    driver.start()
    cluster.run_for(60.0)
    return _etcd_state(cluster)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.value)
def test_a_copied_run_equals_a_freshly_built_one(workload):
    runner = ExperimentRunner()
    before = COUNTERS.prefixes
    copied = [
        _record(_run(runner, workload, fault, seed))
        for seed in (101, 1003)
        for fault in (None, ETCD_FAULT, COMPONENT_FAULT)
    ]
    assert COUNTERS.prefixes - before == 1
    assert set(runner.prefixes) == {workload}
    fresh = [
        _fresh(workload, fault, seed)
        for seed in (101, 1003)
        for fault in (None, ETCD_FAULT, COMPONENT_FAULT)
    ]
    assert copied == fresh


def test_a_copy_draws_from_its_own_seed(monkeypatch):
    # Results take their latencies from the seed alone (core/experiment.py
    # replay), so only a draw in the run window can tell which seed a copied
    # simulation holds: delay the workload by one.
    from repro.workloads.workload import KbenchDriver

    start = KbenchDriver.start

    def jittered_start(self):
        self.sim.call_after(self.sim.rng.uniform("kbench-jitter", 0.0, 5.0), self._start)

    monkeypatch.setattr(KbenchDriver, "_start", start, raising=False)
    monkeypatch.setattr(KbenchDriver, "start", jittered_start)
    runner = ExperimentRunner()
    for seed in (101, 1003):
        cluster, _ = runner.prefix(WorkloadKind.DEPLOY, seed)
        assert cluster.config.seed == cluster.sim.rng.seed == seed
    copied = [_record(_run(runner, WorkloadKind.DEPLOY, None, seed)) for seed in (101, 1003)]
    assert copied == [_fresh(WorkloadKind.DEPLOY, None, seed) for seed in (101, 1003)]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.value)
def test_a_copy_continues_the_uid_sequence_of_the_snapshot(workload):
    # UIDs are fixed-width, so no result sees their numbers; the etcd bytes do.
    runner = ExperimentRunner()
    first = _run_window(*runner.prefix(workload, seed=100))
    second = _run_window(*runner.prefix(workload, seed=101))
    fresh = _run_window(*FreshRunner().prefix(workload, seed=101))
    assert first == second == fresh


def test_running_a_copy_leaves_the_snapshot_untouched():
    workload = WorkloadKind.FAILOVER
    runner = ExperimentRunner()
    _run(runner, workload, ETCD_FAULT, 1001)  # takes the snapshot, armed later
    snapshot = runner.prefixes[workload]
    taken = pickle.dumps((snapshot.cluster, snapshot.driver, snapshot.uid_position))
    _run(runner, workload, COMPONENT_FAULT, 1002)
    golden = _record(_run(runner, workload, None, 101))
    assert pickle.dumps((snapshot.cluster, snapshot.driver, snapshot.uid_position)) == taken
    assert golden == _fresh(workload, None, 101)


def test_the_guard_refuses_pending_closures():
    class Component:
        def tick(self) -> None:
            pass

    sim = Simulation()
    sim.call_every(1.0, Component().tick)
    sim.call_after(1.0, Component().tick)
    assert sim.rebinds_on_copy()
    sim.call_every(1.0, lambda: None)
    assert not sim.rebinds_on_copy()
    sim = Simulation()
    sim.call_after(1.0, lambda: None)
    assert not sim.rebinds_on_copy()


def _campaign(tmp_path, name: str) -> tuple[str, int, int]:
    """Digest, prefixes simulated and runs of a one-workload campaign."""
    config = CampaignConfig(
        workloads=(WorkloadKind.DEPLOY,),
        golden_runs=2,
        max_experiments_per_workload=6,
        seed=7,
        workers=1,
        chunk_size=1,
    )
    root = str(tmp_path / name)
    prefixes, experiments = COUNTERS.prefixes, COUNTERS.experiments
    Campaign(config).run(results_dir=root)
    return (
        ShardedResultStore(root).results_digest(),
        COUNTERS.prefixes - prefixes,
        COUNTERS.experiments - experiments,
    )


def test_a_prefix_that_draws_keeps_no_snapshot_and_the_digest(tmp_path, monkeypatch):
    from repro.controllers.garbage_collector import GarbageCollector

    digest, prefixes, runs = _campaign(tmp_path, "copied")
    assert (prefixes, runs) == (1, 6)

    original = GarbageCollector.reconcile_all

    def drawing_reconcile_all(self):
        self.sim.rng.uniform("gc-jitter", 0.0, 1.0)  # drawn during boot, never used
        original(self)

    monkeypatch.setattr(GarbageCollector, "reconcile_all", drawing_reconcile_all)
    runner = ExperimentRunner()
    runner.run_golden(WorkloadKind.DEPLOY, seed=100)
    assert runner.prefixes == {}

    # Replay is off too (the run drew from another stream): every golden
    # run and every task is simulated, each from its own prefix.
    drawn_digest, prefixes, runs = _campaign(tmp_path, "drawn")
    assert prefixes == runs == 1 + 1 + 6
    assert drawn_digest == digest


def test_a_benchmark_shaped_campaign_simulates_three_prefixes(tmp_path):
    config = CampaignConfig(
        workloads=WORKLOADS,
        golden_runs=2,
        max_experiments_per_workload=6,
        seed=7,
        workers=1,
        chunk_size=1,
    )
    prefixes, experiments = COUNTERS.prefixes, COUNTERS.experiments
    Campaign(config).run(results_dir=str(tmp_path / "store"))
    # 16 simulated runs (3 recording golden runs and 13 tasks), one prefix
    # per workload: prep's recording run takes it, the tasks copy it.
    assert COUNTERS.experiments - experiments == 16
    assert COUNTERS.prefixes - prefixes == 3
