"""The benchmark's contract: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is this module rendered by
:func:`benchmark_document` (a self-test keeps the two equal).  The result
line is built by walking these rows and the per-layer derivation refuses a
row they lack, so the command cannot print a metric this module does not
name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Seconds one driver run measures (``--seconds``; also the default).
RUN_SECONDS = 20

#: Seed of every campaign the benchmark runs (``CampaignConfig.seed`` /
#: ``CampaignSpec.seed``; 7 is the program's own default).  It is part of
#: the workloads' definition, like their sizes, and does NOT follow
#: ``--seed``: the campaign seed picks which faults are planned, about one
#: planned fault in forty sets off uncontrolled replication (the paper's STA
#: failure) and costs 5-13 experiments' worth of time, so an 18-experiment
#: plan costs 3.3 s or 6.2 s depending on its seed alone (measured over 16
#: seeds: 2.9-5.5 experiments/s, quartile distance 11-25 % of the median).
#: No run-time the driver allows averages that out.  ``--seed`` still drives
#: every input whose cost does not depend on it (``store_io``).
PLAN_SEED = 7

COMMAND = ["python3", "-m", "benchmarks.mutiny_bench"]
PATHS = ["benchmarks/mutiny_bench"]


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one repetition (``--quick`` cuts them to smoke size)."""

    #: Injection experiments per orchestration workload, ``campaign_*``.
    experiments_per_workload: int = 6
    #: Golden runs per orchestration workload, ``campaign_*``.
    golden_runs: int = 2
    #: Synthetic records per store, ``store_io``.
    records: int = 80
    #: Records per shard, ``store_io``.
    records_per_shard: int = 20
    #: Seeded ``load_record`` point reads per transport, ``store_io``.
    point_reads: int = 50
    #: ``max_experiments`` of the submitted spec, ``service_e2e``.
    service_experiments: int = 3
    #: Cold ``results_digest()`` scans of the finished store, ``campaign_*``.
    campaign_scans: int = 20
    #: Post-completion ``document`` GETs per repetition, ``service_e2e``.
    document_fetches: int = 2

    def quick(self) -> "Sizes":
        return Sizes(
            experiments_per_workload=max(2, self.experiments_per_workload // 4),
            golden_runs=1,
            records=self.records // 2,
            records_per_shard=self.records_per_shard,
            point_reads=max(10, self.point_reads // 4),
            service_experiments=max(2, self.service_experiments // 4),
            campaign_scans=2,
            document_fetches=2,
        )


WORKLOADS: tuple[tuple[str, str], ...] = (
    (
        "campaign_serial",
        "Campaign.run, workers=1, chunk_size=1, deploy+scale+failover x6 experiments (pinned plan), 2 golden runs, "
        "POSIX store: the simulator stack does ~95% of the work, store and transport almost none",
    ),
    (
        "campaign_pool",
        "same campaign with workers=2 and auto chunks: the same simulation crossed through core/parallel.py; "
        "its digest must equal campaign_serial's",
    ),
    (
        "store_io",
        "no simulation: 80 cloned records written plain and batched, scanned, point-read and federated over "
        "POSIX and objstore:// - the bypass workload for every simulator optimisation",
    ),
    (
        "service_e2e",
        "real stack as subprocesses (objstore, serve, 2 workers): submit a 9-experiment distributed spec, "
        "wait, fetch document x2 and tables; lease protocol, transport ops and HTTP handlers dominate",
    ),
)

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    """One metric row; what each one measures is defined in README.md."""

    name: str
    unit: str
    better: str
    #: Relative worsening of the median that counts as a regression
    #: (end-to-end metrics only).
    bound: Optional[float] = None


#: Every workload reports every one of these.  The rates carry the largest
#: bound the contract allows: their measured run-to-run spread is 0.2-8 % in a
#: quiet hour of the shared host and up to 14 % (``campaign_pool``) in a loud
#: one; the resident set's is at most 4.2 % (README, "bound").
END_TO_END: tuple[Metric, ...] = (
    Metric("records_per_s", "1/s", "higher", 0.25),
    Metric("scan_records_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
)

#: The six transport operations that carry shard traffic.
TRANSPORT_OPS = ("put", "put_if_absent", "get", "list_iter", "stat", "append")
TRANSPORT_KINDS = ("posix", "objstore")


def _per_layer() -> tuple[Metric, ...]:
    def rows(unit: str, better: str, *names: str) -> list[Metric]:
        return [Metric(name, unit, better) for name in names]

    simulator = [
        *rows("ms", "lower", "cluster.boot_ms", "experiment.ms_p50"),
        *rows("ms", "lower", "experiment.setup_window_ms", "experiment.run_window_ms"),
        *rows("ratio", "lower", "experiment.prefix_share"),
        *rows("count", "lower", "sim.events_executed"),
        *rows("us", "lower", "sim.us_per_event"),
        *rows("ms", "lower", "sim.self_ms"),
        *rows("count", "lower", "serialization.encode_calls", "serialization.decode_calls"),
        *rows("ratio", "higher", "serialization.decode_cache_hit_ratio"),
        *rows("ms", "lower", "serialization.encode_self_ms", "serialization.decode_self_ms"),
        *rows("count", "lower", "apiserver.validate_calls"),
        *rows("ms", "lower", "apiserver.validate_self_ms", "apiserver.write_self_ms", "apiserver.read_self_ms"),
        *rows("count", "lower", "etcd.put_calls"),
        *rows("ms", "lower", "etcd.put_self_ms"),
        *rows("count", "lower", "etcd.watch_dispatches"),
        *rows("count", "higher", "etcd.watch_events_skipped"),
        *rows("ms", "lower", "controllers.tick_self_ms", "scheduler.tick_self_ms", "kubelet.sync_self_ms"),
        *rows("ms", "lower", "network.self_ms", "monitoring.scrape_self_ms", "workloads.client_self_ms"),
        *rows("count", "lower", "injector.hook_calls"),
        *rows("ms", "lower", "injector.self_ms", "classification.self_ms"),
        *rows("s", "lower", "campaign.prep_s", "campaign.plan_s", "parallel.run_experiments_s"),
        *rows("ratio", "higher", "parallel.pool_efficiency"),
    ]
    store = []
    for kind in TRANSPORT_KINDS:
        store += rows("ms", "lower", f"resultstore.write_shard_ms_p50.{kind}")
        store += rows("ratio", "lower", f"resultstore.encode_member_share.{kind}")
        store += rows("1/s", "higher", f"resultstore.scan_records_per_s.{kind}")
        store += rows("s", "lower", f"resultstore.completed_indexes_s.{kind}")
        store += rows("ms", "lower", f"resultstore.load_record_ms_p50.{kind}")
    for kind in TRANSPORT_KINDS:
        for op in TRANSPORT_OPS:
            store += rows("count", "lower", f"transport.{op}_calls.{kind}")
            store += rows("ms", "lower", f"transport.{op}_ms_p50.{kind}", f"transport.{op}_ms_p99.{kind}")
        store += rows("count", "lower", f"transport.errors.{kind}")
    store += [
        *rows("ms", "lower", "objstore.handler_self_ms"),
        *rows("count", "lower", "objstore.requests"),
        *rows("ratio", "lower", "federate.read_share", "federate.write_share"),
        *rows("ms", "lower", "report.document_ms", "report.tables_ms"),
    ]
    service = [
        *rows("ms", "lower", "service.submit_ms", "service.status_ms_p50", "service.document_ms", "service.tables_ms"),
        *rows("count", "lower", "service.status_polls"),
        *rows("s", "lower", "distributed.prep_wait_s", "distributed.first_shard_s", "distributed.drain_s"),
        *rows("count", "higher", "distributed.slices_done"),
        *rows("count", "lower", "distributed.lease_reclaims"),
        *rows("ratio", "lower", "distributed.overhead_ratio", "trace_overhead_ratio"),
    ]
    return tuple(simulator + store + service)


PER_LAYER: tuple[Metric, ...] = _per_layer()


def benchmark_document() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
