"""Tests for the process-parallel campaign execution subsystem.

The contract under test is the one the executor is built around: an
experiment is fully determined by its ``(workload, fault, seed, config)``
tuple, so a campaign sharded across worker processes must produce exactly
the results of the serial run — same classifications, same order.  Resume
from a complete or damaged store is pinned in ``test_resultstore.py``; here
it is only what cancellation leaves behind.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.campaign import Campaign, CampaignCancelledError, CampaignConfig
from repro.core.classification import GoldenBaseline
from repro.core.experiment import ExperimentResult
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.core.parallel import (
    CampaignExecutor,
    ExperimentTask,
    campaign_fingerprint,
    resolve_workers,
    tasks_fingerprint,
)
from repro.core.resultstore import ShardedResultStore
from repro.workloads.workload import WorkloadKind


def _tiny_config(**overrides) -> CampaignConfig:
    defaults = dict(
        workloads=(WorkloadKind.DEPLOY,),
        golden_runs=1,
        max_experiments_per_workload=4,
        seed=3,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


# ----------------------------------------------------------- pure plumbing


def test_resolve_workers():
    assert resolve_workers(3) == 3
    assert resolve_workers(1) == 1
    assert resolve_workers(None) >= 1
    assert resolve_workers(0) == resolve_workers(None)


def test_fault_task_and_baseline_pickle_roundtrip():
    fault = FaultSpec(
        channel=InjectionChannel.APISERVER_TO_ETCD,
        kind="Deployment",
        field_path="spec.replicas",
        name="webapp-1",
        namespace="default",
        fault_type=FaultType.BIT_FLIP,
        bit_index=4,
        occurrence=2,
    )
    task = ExperimentTask(index=5, workload=WorkloadKind.SCALE_UP, fault=fault, seed=1006)
    baseline = GoldenBaseline.from_golden_runs(
        workload="deploy",
        series=[[0.1, 0.2], [0.1, 0.3]],
        expected_replicas=6,
        expected_endpoints=6,
        pods_created=[10, 11],
        settle_times=[30.0, 32.0],
        client_errors=[1, 2],
    )
    result = ExperimentResult(workload=WorkloadKind.DEPLOY, fault=fault, seed=1006)
    for original in (fault, task, baseline, result):
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original


def test_executor_chunking_covers_all_tasks_exactly_once():
    fault = FaultSpec(channel=InjectionChannel.APISERVER_TO_ETCD, kind="Pod")
    tasks = [
        ExperimentTask(index=i, workload=WorkloadKind.DEPLOY, fault=fault, seed=1000 + i)
        for i in range(11)
    ]
    executor = CampaignExecutor(workers=2)
    chunks = executor._chunks(tasks, workers=2)
    flattened = [task for chunk in chunks for task in chunk]
    assert flattened == tasks
    assert all(chunks)
    sized = CampaignExecutor(workers=2, chunk_size=3)._chunks(tasks, workers=2)
    assert [len(chunk) for chunk in sized] == [3, 3, 3, 2]


def test_fingerprint_is_stable_and_sensitive():
    fault = FaultSpec(channel=InjectionChannel.APISERVER_TO_ETCD, kind="Pod")
    tasks = [ExperimentTask(index=0, workload=WorkloadKind.DEPLOY, fault=fault, seed=1001)]
    assert tasks_fingerprint(tasks) == tasks_fingerprint(list(tasks))
    reseeded = [ExperimentTask(index=0, workload=WorkloadKind.DEPLOY, fault=fault, seed=1002)]
    assert tasks_fingerprint(tasks) != tasks_fingerprint(reseeded)
    refaulted = [
        ExperimentTask(
            index=0,
            workload=WorkloadKind.DEPLOY,
            fault=FaultSpec(
                channel=InjectionChannel.APISERVER_TO_ETCD, kind="Pod", bit_index=7
            ),
            seed=1001,
        )
    ]
    assert tasks_fingerprint(tasks) != tasks_fingerprint(refaulted)


def test_campaign_fingerprint_covers_config_and_baselines():
    # A resumed result store must not mix results classified against different
    # baselines or produced by a different experiment configuration.
    from repro.core.experiment import ExperimentConfig

    fault = FaultSpec(channel=InjectionChannel.APISERVER_TO_ETCD, kind="Pod")
    tasks = [ExperimentTask(index=0, workload=WorkloadKind.DEPLOY, fault=fault, seed=1001)]
    config = ExperimentConfig()
    baseline = GoldenBaseline.from_golden_runs(
        workload="deploy",
        series=[[0.1]],
        expected_replicas=6,
        expected_endpoints=6,
        pods_created=[10],
        settle_times=[30.0],
    )
    base = campaign_fingerprint(tasks, config, {"deploy": baseline})
    assert base == campaign_fingerprint(tasks, config, {"deploy": baseline})
    other_baseline = GoldenBaseline.from_golden_runs(
        workload="deploy",
        series=[[0.1], [0.2]],
        expected_replicas=6,
        expected_endpoints=6,
        pods_created=[10, 12],
        settle_times=[30.0, 31.0],
    )
    assert base != campaign_fingerprint(tasks, config, {"deploy": other_baseline})
    assert base != campaign_fingerprint(tasks, ExperimentConfig(run_seconds=90.0), {"deploy": baseline})


def test_per_run_prep_matches_build_baseline():
    # Preparation fans out one job per golden run; the baseline assembled
    # from per-run stats must equal the one ExperimentRunner builds serially.
    from repro.core.experiment import ExperimentConfig, ExperimentRunner
    from repro.core.parallel import WorkloadPrep

    config = ExperimentConfig()
    executor = CampaignExecutor(config, workers=1)
    ((baseline, recorded),) = executor.prepare_workloads(
        [WorkloadPrep(workload=WorkloadKind.DEPLOY, golden_runs=2, record_seed=50)]
    )
    assert baseline == ExperimentRunner(config).build_baseline(WorkloadKind.DEPLOY, runs=2)
    assert recorded, "the record run must have captured etcd-written fields"

    # golden_runs=0 (the propagation prep) records fields but skips the baseline.
    ((no_baseline, recorded_only),) = executor.prepare_workloads(
        [WorkloadPrep(workload=WorkloadKind.DEPLOY, golden_runs=0, record_seed=60)]
    )
    assert no_baseline is None
    assert recorded_only


# ------------------------------------------------- end-to-end determinism


def test_serial_and_parallel_campaign_results_identical():
    # The acceptance bar of the parallel engine: the same CampaignConfig run
    # with workers=1 and workers=4 yields identical classification counts and
    # identical result ordering.
    serial = Campaign(_tiny_config(workers=1)).run()
    parallel = Campaign(_tiny_config(workers=4)).run()
    assert serial.classification_counts() == parallel.classification_counts()
    assert [result.seed for result in serial.results] == [
        result.seed for result in parallel.results
    ]
    assert [result.fault.describe() for result in serial.results] == [
        result.fault.describe() for result in parallel.results
    ]
    assert serial.results == parallel.results
    assert serial.baselines == parallel.baselines


# ------------------------------------------- cancellation and shared stores


@pytest.fixture(scope="module")
def serial_store(tmp_path_factory):
    """The serial store-backed run the cancel/concurrency cases compare to."""
    root = str(tmp_path_factory.mktemp("serial-store"))
    Campaign(_tiny_config(workers=1, max_experiments_per_workload=12)).run(results_dir=root)
    return ShardedResultStore(root)


@pytest.mark.parametrize("workers", [1, 2])
def test_cancelled_campaign_stops_dispatching_and_resumes(serial_store, tmp_path, workers):
    # Cancel at the first progress tick: no batch that has not started when
    # the cancel is observed may start (the pool used to run the whole plan
    # before the error surfaced), what finished stays, and a rerun executes
    # exactly the missing experiments.
    config = _tiny_config(workers=workers, chunk_size=1, max_experiments_per_workload=12)
    root = str(tmp_path / "results")
    total = serial_store.record_count()
    cancel = threading.Event()
    with pytest.raises(CampaignCancelledError):
        Campaign(config).run(
            results_dir=root, cancel=cancel, progress=lambda done, total: cancel.set()
        )
    survivors = ShardedResultStore(root).record_count()
    assert 0 < survivors < total

    ticks: list[tuple[int, int]] = []
    Campaign(config).run(
        results_dir=root, progress=lambda done, total: ticks.append((done, total))
    )
    # One tick up front for what survived, then one per missing experiment.
    assert ticks[0] == (survivors, total)
    assert len(ticks) == 1 + total - survivors
    store = ShardedResultStore(root)
    assert store.results_digest() == serial_store.results_digest()
    assert store.stored_record_count() == total  # nothing was replayed


def test_two_executors_in_one_process_share_a_store(serial_store, tmp_path):
    # Worker loops may run as threads of one process: two executors running
    # disjoint slices concurrently against one store (and, with shard_batch,
    # one open shard group) must still store the serial records exactly once.
    config = _tiny_config(workers=1, max_experiments_per_workload=12)
    campaign = Campaign(config)
    tasks, baselines, _ = campaign.plan_campaign()
    root = str(tmp_path / "results")
    ShardedResultStore(root).open(
        campaign_fingerprint(tasks, config.experiment, baselines), len(tasks)
    )
    half = len(tasks) // 2
    errors: list[BaseException] = []

    def run_slice(slice_tasks) -> None:
        try:
            with CampaignExecutor(
                config.experiment, workers=1, chunk_size=1, results_dir=root, shard_batch=2
            ) as executor:
                executor.run_experiments(slice_tasks, baselines)
        except BaseException as error:  # noqa: BLE001 - surfaced in the assert below
            errors.append(error)

    threads = [
        threading.Thread(target=run_slice, args=(part,))
        for part in (tasks[:half], tasks[half:])
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    store = ShardedResultStore(root)
    assert store.results_digest() == serial_store.results_digest()
    assert store.stored_record_count() == len(tasks)
    assert len(store.shard_keys()) < len(tasks)  # batches were coalesced


def test_two_campaigns_on_two_threads_give_the_serial_digest(tmp_path):
    # Campaigns run as threads of one process in the service.  Both simulate
    # through the process-wide codec caches (decode cache, encode memo, the
    # seed hand-off), whose hits must tolerate the other thread evicting or
    # replacing entries between any two bytecodes.  Benchmark-shaped: all
    # three workloads, at the benchmark's plan seed.
    config = CampaignConfig(
        workloads=(WorkloadKind.DEPLOY, WorkloadKind.SCALE_UP, WorkloadKind.FAILOVER),
        golden_runs=1,
        max_experiments_per_workload=1,
        seed=7,
        workers=1,
    )
    Campaign(config).run(results_dir=str(tmp_path / "serial"))
    serial = ShardedResultStore(str(tmp_path / "serial")).results_digest()
    errors: list[BaseException] = []

    def run(name: str) -> None:
        try:
            Campaign(config).run(results_dir=str(tmp_path / name))
        except BaseException as error:  # noqa: BLE001 - surfaced in the assert below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(name,)) for name in ("a", "b")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for name in ("a", "b"):
        assert ShardedResultStore(str(tmp_path / name)).results_digest() == serial


def test_digest_does_not_depend_on_the_hash_seed(serial_store, tmp_path):
    # str hashes are salted per process, so a set or dict whose iteration
    # order reaches a result would give each process its own digest.  Two CLI
    # runs of the serial store's campaign under different fixed seeds must
    # both give the in-process digest.
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "repro.cli", "campaign", "--workloads", "deploy"]
    argv += ["--golden-runs", "1", "--max-experiments", "12", "--seed", "3", "--workers", "1"]
    runs = {
        hash_seed: subprocess.Popen(
            argv + ["--quiet", "--results-dir", str(tmp_path / hash_seed)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("0", "1")
    }
    for hash_seed, process in runs.items():
        _, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr
        store = ShardedResultStore(str(tmp_path / hash_seed))
        assert store.results_digest() == serial_store.results_digest(), hash_seed


# --------------------------------------------------------------------- CLI


def test_cli_campaign_smoke(tmp_path, capsys):
    from repro.cli import main

    json_path = str(tmp_path / "summary.json")
    exit_code = main(
        [
            "campaign",
            "--workloads",
            "deploy",
            "--golden-runs",
            "1",
            "--max-experiments",
            "2",
            "--seed",
            "3",
            "--workers",
            "1",
            "--quiet",
            "--json",
            json_path,
        ]
    )
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "Campaign summary" in captured.out
    with open(json_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["experiments"] == 2
    assert sum(payload["classification_counts"].values()) == 2


def test_cli_every_subcommand_prints_help_and_exits_zero(capsys):
    """What CI's packaging step used to spell out command by command (and
    missed ``propagation``): every subparser ``build_parser`` registers
    renders its ``--help``."""
    import argparse

    from repro.cli import build_parser, main

    (subcommands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert {"campaign", "worker", "propagation", "serve", "lint"} <= set(subcommands)
    for name in subcommands:
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0, name
        assert capsys.readouterr().out.startswith(f"usage: mutiny-campaign {name} "), name


def test_cli_rejects_unknown_workload_and_component(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["campaign", "--workloads", "bogus"])
    assert "unknown workload" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["propagation", "--components", "kube-proxy"])
    assert "unknown component" in capsys.readouterr().err
