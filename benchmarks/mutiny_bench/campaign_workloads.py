"""``campaign_serial`` and ``campaign_pool``: one campaign, two executors.

Both run ``Campaign(CampaignConfig(deploy + scale + failover, ...)).run``
into a fresh POSIX store per repetition and differ only in ``workers`` and
``chunk_size``.  The simulator stack does ~95 % of the work; the store and
the transport do almost none.  ``chunk_size=1`` on the serial workload makes
``progress`` fire per experiment, so per-experiment latency is observable
from outside without tracing.
"""

from __future__ import annotations

import shutil
import time
from typing import Optional

from .calibration import Calibrator
from .catalog import PLAN_SEED
from .harness import Repetition, VerificationError, Workload, WorkloadReport
from .layers import SIM_LAYER_NAMES, SIM_TABLE, STORE_TABLE, call_counts, counter_mismatch
from .trace import SpanRecorder, install

#: Pool size of ``campaign_pool`` (= ``nproc`` of the machine class).
POOL_WORKERS = 2


class CampaignSerial(Workload):
    name = "campaign_serial"
    imports = ("repro.core.campaign", "repro.core.resultstore", "repro.core.report")
    table = SIM_TABLE + STORE_TABLE
    workers = 1
    chunk_size: Optional[int] = 1

    # ---------------------------------------------------------------- set-up

    def _config(self, workers: int, chunk_size: Optional[int], warm_up: bool = False):
        from repro.core.campaign import CampaignConfig
        from repro.workloads.workload import WorkloadKind

        sizes = self.context.sizes
        if warm_up:
            return CampaignConfig(
                workloads=(WorkloadKind.DEPLOY,),
                golden_runs=1,
                max_experiments_per_workload=2,
                seed=PLAN_SEED,
                workers=workers,
                chunk_size=chunk_size,
            )
        return CampaignConfig(
            workloads=(WorkloadKind.DEPLOY, WorkloadKind.SCALE_UP, WorkloadKind.FAILOVER),
            golden_runs=sizes.golden_runs,
            max_experiments_per_workload=sizes.experiments_per_workload,
            seed=PLAN_SEED,
            workers=workers,
            chunk_size=chunk_size,
        )

    def setup(self) -> None:
        from repro.core.campaign import Campaign

        root = self.context.fresh_dir("warm-up")
        Campaign(self._config(self.workers, self.chunk_size, warm_up=True)).run(results_dir=str(root))
        shutil.rmtree(root)

    # ------------------------------------------------------------ repetition

    def _campaign(self, name: str, workers: int, chunk_size: Optional[int]) -> Repetition:
        from repro.core import report
        from repro.core.campaign import Campaign, CampaignResult
        from repro.core.resultstore import ShardedResultStore

        root = str(self.context.fresh_dir(name))
        ticks: list[float] = []
        started = time.perf_counter()
        result = Campaign(self._config(workers, chunk_size)).run(
            results_dir=root, progress=lambda done, total: ticks.append(time.perf_counter())
        )
        produced = time.perf_counter()
        experiments = len(result.results)

        # The store is a few dozen records: scan it several times, each with
        # a cold store object, so the interval is long enough to time.
        scans = self.context.sizes.campaign_scans
        scan_started = time.perf_counter()
        scanned_digests = {ShardedResultStore(root).results_digest() for _ in range(scans)}
        scanned = time.perf_counter()
        store = ShardedResultStore(root)
        digest = store.results_digest()
        stored = store.record_count()

        # The inspection documents a user reads off the finished store
        # (module attributes, so a traced repetition sees the wrappers).
        document = report.store_document(store, digest=digest)
        report.document_to_bytes(document)
        report.tables_document(CampaignResult(results=store.all_results()))
        finished = time.perf_counter()
        shutil.rmtree(root)

        failed = experiments - stored
        if document["experiments"] != experiments or document["stored_records"] != experiments:
            failed = experiments
        observations = {}
        if chunk_size == 1:
            observations["experiment progress gap"] = list(zip(ticks, ticks[1:]))
        return Repetition(
            span=(started, finished),
            produce=[(started, produced)],
            produce_records=experiments,
            scan=[(scan_started, scanned)],
            scan_records=experiments * scans,
            attempted=experiments,
            failed=failed,
            digests={"store": digest, "scans": scanned_digests.pop() if len(scanned_digests) == 1 else "scans disagree"},
            observations=observations,
        )

    def repetition(self, index: int) -> Repetition:
        return self._campaign(f"rep-{index}", self.workers, self.chunk_size)

    # ------------------------------------------------------------ traced run

    def self_check(self) -> None:
        """One warm-up experiment per injection channel under the wrappers:
        every simulator-layer span name must record at least one span and the
        wrapped codec / validation call counts must equal the program's own
        ``COUNTERS`` deltas exactly — a rename under ``src/`` fails the
        benchmark here instead of recording zeros."""
        from repro.core.experiment import ExperimentRunner
        from repro.core.injector import FaultSpec, FaultType, InjectionChannel
        from repro.hotpath import COUNTERS
        from repro.workloads.workload import WorkloadKind

        recorder = SpanRecorder()
        runner = ExperimentRunner()
        # deploy crosses every create/update path; failover adds the deletes
        # (evictions) and exercises the component -> Apiserver hook.
        checks = (
            (
                WorkloadKind.DEPLOY,
                FaultSpec(
                    channel=InjectionChannel.APISERVER_TO_ETCD,
                    kind="Deployment",
                    field_path="spec.replicas",
                    fault_type=FaultType.BIT_FLIP,
                ),
            ),
            (
                WorkloadKind.FAILOVER,
                FaultSpec(
                    channel=InjectionChannel.COMPONENT_TO_APISERVER,
                    kind="Pod",
                    field_path="spec.nodeName",
                    component="kube-scheduler",
                    fault_type=FaultType.BIT_FLIP,
                ),
            ),
        )
        with install(recorder, SIM_TABLE):
            before = COUNTERS.snapshot()
            for offset, (workload, fault) in enumerate(checks):
                baseline = runner.build_baseline(workload, runs=1)
                runner.run_experiment(workload, fault, baseline=baseline, seed=self.context.seed + offset)
            after = COUNTERS.snapshot()
        silent = sorted(SIM_LAYER_NAMES - set(call_counts(recorder)))
        if silent:
            raise VerificationError(f"wrap table self-check: no span recorded for {', '.join(silent)}")
        mismatch = counter_mismatch(recorder, {name: after[name] - before[name] for name in after})
        if mismatch:
            raise VerificationError(f"wrap table self-check: {mismatch}")

    def records_scanned(self) -> dict[str, int]:
        sizes = self.context.sizes
        return {"posix": 3 * sizes.experiments_per_workload * (sizes.campaign_scans + 1)}


class CampaignPool(CampaignSerial):
    """The same campaign through the process pool.

    Pool children are invisible from outside, so the traced repetition
    records parent-side spans only (prep, plan, ``run_experiments``, the
    parent's store reads).  A serial run of the same configuration made once,
    untimed, gives the digest the pool must reproduce and the serial
    throughput ``parallel.pool_efficiency`` divides by.
    """

    name = "campaign_pool"
    workers = POOL_WORKERS
    chunk_size = None

    def __init__(self, context):
        super().__init__(context)
        self._serial: Optional[Repetition] = None

    def oracle(self) -> Optional[str]:
        self._serial = self._campaign("oracle", 1, 1)
        return self._serial.digests["store"]

    def self_check(self) -> None:
        """Nothing below the pool boundary is traced here."""

    def layer_extras(self, report: WorkloadReport, traced: Repetition, calibrator: Calibrator) -> dict[str, float]:
        serial = self._serial
        serial_rate = serial.produce_records / sum(calibrator.elapsed(*interval) for interval in serial.produce)
        return {"parallel.pool_efficiency": report.end_to_end["records_per_s"].median / (POOL_WORKERS * serial_rate)}
