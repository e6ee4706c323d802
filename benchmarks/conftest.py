"""Shared benchmark fixtures.

The paper's campaign is ~8,800 experiments on a physical five-node cluster;
the benchmarks run a scaled-down campaign on the simulated cluster once per
session and share its results across every table/figure benchmark.  Set
``MUTINY_BENCH_SCALE`` to a larger integer to grow the campaign toward the
paper's size (experiments per workload = 16 × scale), and
``MUTINY_BENCH_WORKERS`` to the number of worker processes the campaign
executor may use (results are identical at any worker count).
"""

from __future__ import annotations

import pytest

from _benchutil import bench_scale, bench_workers
from repro.core.campaign import Campaign, CampaignConfig
from repro.workloads.workload import WorkloadKind


@pytest.fixture(scope="session")
def campaign_config() -> CampaignConfig:
    """Configuration of the shared benchmark campaign."""
    return CampaignConfig(
        workloads=(WorkloadKind.DEPLOY, WorkloadKind.SCALE_UP, WorkloadKind.FAILOVER),
        golden_runs=2,
        max_experiments_per_workload=16 * bench_scale(),
        seed=7,
        workers=bench_workers(),
    )


@pytest.fixture(scope="session")
def campaign_results_dir(tmp_path_factory) -> str:
    """Session-scoped sharded result store backing the shared campaign."""
    return str(tmp_path_factory.mktemp("resultstore"))


@pytest.fixture(scope="session")
def campaign_result(campaign_config, campaign_results_dir):
    """Run the shared reduced-scale injection campaign once per session.

    The campaign streams through the sharded result store, so every
    table/figure benchmark downstream exercises the same storage path a
    paper-scale campaign uses (lazy plan-order reads, one shard in memory).
    """
    campaign = Campaign(campaign_config)
    return campaign.run(results_dir=campaign_results_dir)


@pytest.fixture(scope="session")
def propagation_rows():
    """Run the Table VI propagation experiments once per session."""
    campaign = Campaign(
        CampaignConfig(
            workloads=(WorkloadKind.DEPLOY,), golden_runs=1, seed=11, workers=bench_workers()
        )
    )
    return campaign.run_propagation(
        components=("kube-controller-manager", "kube-scheduler", "kubelet"),
        fields_per_component=3 * bench_scale(),
    )
