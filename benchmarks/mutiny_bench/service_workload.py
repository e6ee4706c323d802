"""``service_e2e``: submit -> final inspect document through the real stack.

Set-up starts ``repro.cli objstore`` and ``repro.cli serve`` as subprocesses;
the benchmark process is only a ``ServiceClient`` (one HTTP connection per
request, closed loop).  A repetition points two fresh ``repro.cli worker``
subprocesses at a fresh bucket (workers exit when their campaign completes),
submits a distributed spec, polls ``status`` until it is complete, fetches
the inspect document until it is served whole, then fetches it again a few
times and the tables once.  Here simulation is about a third of wall-clock;
the lease/plan protocol, per-object HTTP transport operations, the
coordinator's watch loop and the HTTP handlers dominate.  The served
``results_digest`` must equal the digest of an in-process serial run of the
same spec made once, untimed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace
from statistics import median
from typing import Optional

from .calibration import Calibrator
from .catalog import PLAN_SEED
from .harness import Interval, Repetition, VerificationError, Workload, WorkloadReport
from .layers import SERVICE_TABLE, STORE_TABLE

WORKERS = 2
WORKER_POLL_S = 0.1
STATUS_POLL_S = 0.1
#: Seconds any single wait (readiness, completion, worker exit) may take.
DEADLINE_S = 120.0


def _spawn(*arguments: str, announces: bool = False) -> subprocess.Popen:
    """A ``repro.cli`` subprocess; ``announces`` keeps stdout for the URL line."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *arguments],
        stdout=subprocess.PIPE if announces else subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def _listening_url(process: subprocess.Popen, scheme: str) -> str:
    """The URL a ``--port 0`` server announces on its first stdout line."""
    line = process.stdout.readline()
    for word in line.split():
        if word.startswith(f"{scheme}://"):
            return word
    raise VerificationError(f"server did not announce a {scheme}:// URL: {line!r}")


def _stop(processes: list[subprocess.Popen]) -> None:
    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if process.stdout is not None:
            process.stdout.close()


class ServiceE2E(Workload):
    name = "service_e2e"
    imports = ("repro.service.client", "repro.service.spec", "repro.core.campaign", "repro.core.distributed")
    table = SERVICE_TABLE + STORE_TABLE
    # Waiting on sockets, leases and polls dominates; host speed barely moves
    # it (measured), so a CPU-speed correction would only add its own noise.
    kernel = None

    def __init__(self, context):
        super().__init__(context)
        self._servers: list[subprocess.Popen] = []
        self._workers: list[subprocess.Popen] = []
        self._client = None
        self._objstore_url = ""
        self._passes = 0
        self._serial_gaps: list[Interval] = []

    # ---------------------------------------------------------------- set-up

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self._passes += 1
        state = self.context.fresh_dir(f"service-state-{self._passes}")
        objstore = _spawn("objstore", "--port", "0", announces=True)
        self._servers.append(objstore)
        service = _spawn("serve", "--port", "0", "--state", str(state), announces=True)
        self._servers.append(service)
        self._objstore_url = _listening_url(objstore, "objstore")
        self._client = ServiceClient(_listening_url(service, "http"))
        self._client.wait_ready(timeout=DEADLINE_S, poll_interval=0.02)
        self._client.campaigns()  # warm-up round-trip

    def close(self) -> None:
        _stop(self._workers + self._servers)
        self._workers, self._servers = [], []

    def _spec(self, bucket: str):
        from repro.service.spec import CampaignSpec

        return CampaignSpec(
            golden_runs=1,
            max_experiments=self.context.sizes.service_experiments,
            seed=PLAN_SEED,
            workers=1,
            backend="distributed",
            slice_size=4,
            poll_interval=WORKER_POLL_S,
            store_url=bucket,
        )

    def oracle(self) -> Optional[str]:
        """An in-process serial run of the same spec: the digest the service
        must serve, and the per-experiment time ``distributed.overhead_ratio``
        is measured against."""
        from repro.core.campaign import Campaign
        from repro.core.resultstore import ShardedResultStore

        root = str(self.context.fresh_dir("oracle"))
        config = replace(self._spec(root).to_config(), workers=1, chunk_size=1)
        ticks: list[float] = []
        Campaign(config).run(results_dir=root, progress=lambda done, total: ticks.append(time.perf_counter()))
        self._serial_gaps = list(zip(ticks, ticks[1:]))
        return ShardedResultStore(root).results_digest()

    # ------------------------------------------------------------ repetition

    def repetition(self, index: int) -> Repetition:
        from repro.core.distributed import SliceLeases
        from repro.service.client import ServiceError

        client = self._client
        bucket = f"{self._objstore_url}/rep-{self._passes}-{index}"
        spec = self._spec(bucket)
        experiments = 3 * self.context.sizes.service_experiments
        attempted = failed = 0
        started = time.perf_counter()
        self._workers = [
            _spawn(
                "worker",
                "--results-dir", bucket,
                "--worker-id", f"bench-worker-{number}",
                "--poll-interval", str(WORKER_POLL_S),
                "--wait-timeout", str(DEADLINE_S),
                "--quiet",
            )
            for number in range(WORKERS)
        ]

        submitted = time.perf_counter()
        campaign_id = client.submit(spec)["id"]
        attempted += 1
        marks: dict[str, float] = {}
        deadline = submitted + DEADLINE_S
        while True:
            status = client.status(campaign_id)
            now = time.perf_counter()
            attempted += 1
            if "plan" in status:
                marks.setdefault("plan", now)
            if status.get("completed"):
                marks.setdefault("first_shard", now)
            if status.get("total") and status.get("completed") == status["total"]:
                marks.setdefault("all_stored", now)
            if status["state"] == "complete":
                marks["complete"] = now
                break
            if status["state"] in ("failed", "cancelled") or now > deadline:
                raise VerificationError(f"campaign {campaign_id} did not complete: {status}")
            time.sleep(STATUS_POLL_S)
        while True:
            attempted += 1
            try:
                first_document = client.document(campaign_id)
                break
            except ServiceError as error:
                # 503 is the documented answer while the store has no manifest.
                if error.status != 503 or time.perf_counter() > deadline:
                    raise
                time.sleep(STATUS_POLL_S)
        documented = time.perf_counter()

        fetches: list[Interval] = []
        documents = [first_document]
        for _ in range(self.context.sizes.document_fetches):
            begun = time.perf_counter()
            documents.append(client.document(campaign_id))
            fetches.append((begun, time.perf_counter()))
        begun = time.perf_counter()
        tables = client.tables(campaign_id)
        tabled = time.perf_counter()
        attempted += len(fetches) + 1

        for worker in self._workers:
            worker.wait(timeout=DEADLINE_S)
        _stop(self._workers)
        done = SliceLeases(bucket).done_records()
        finished = time.perf_counter()

        served = json.loads(first_document)
        attempted += experiments
        if len(set(documents)) != 1 or tables["experiments"] != experiments:
            failed = attempted
        elif served["experiments"] != experiments or served["stored_records"] != experiments:
            failed += experiments
        return Repetition(
            span=(started, finished),
            produce=[(submitted, documented)],
            produce_records=experiments,
            scan=fetches,
            scan_records=experiments * len(fetches),
            attempted=attempted,
            failed=failed,
            digests={"served": served["results_digest"]},
            observations={
                "submit -> document": [(submitted, documented)],
                "submit -> plan published": [(submitted, marks.get("plan", marks["complete"]))],
                "submit -> first shard stored": [(submitted, marks.get("first_shard", marks["complete"]))],
                "all stored -> complete": [(marks.get("all_stored", marks["complete"]), marks["complete"])],
                "document fetch": fetches,
                "tables fetch": [(begun, tabled)],
            },
            facts={
                "slices_done": float(len(done)),
                "lease_reclaims": float(sum(1 for record in done if record["executed"] < record["stop"] - record["start"])),
            },
        )

    # ------------------------------------------------------------ traced run

    def layer_extras(self, report: WorkloadReport, traced: Repetition, calibrator: Calibrator) -> dict[str, float]:
        def seen(name: str) -> float:
            return calibrator.elapsed(*traced.observations[name][0])

        experiments = traced.produce_records
        serial_experiment_s = median(calibrator.elapsed(*gap) for gap in self._serial_gaps)
        submit_to_document_s = experiments / report.end_to_end["records_per_s"].median
        return {
            "distributed.prep_wait_s": seen("submit -> plan published"),
            "distributed.first_shard_s": seen("submit -> first shard stored"),
            "distributed.drain_s": seen("all stored -> complete"),
            "distributed.slices_done": traced.facts["slices_done"],
            "distributed.lease_reclaims": traced.facts["lease_reclaims"],
            "distributed.overhead_ratio": submit_to_document_s / (experiments * serial_experiment_s / WORKERS),
        }
