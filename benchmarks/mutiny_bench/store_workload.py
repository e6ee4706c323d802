"""``store_io``: the result store, its transports and federation — no simulation.

One real ``ExperimentResult`` (a golden ``deploy`` run made in set-up, about
22 KB of JSON) is cloned to ``records`` records with a varied seed and
latency series.  Per transport (a POSIX directory; ``objstore://`` against an
in-process ``LocalObjectStore``) a repetition **writes** store A with
``write_shard_dicts``, store B through ``batched_writer(4)`` and a half store
for the federation; **scans** A and B cold with ``results_digest()``, then
``completed_indexes()`` and seeded ``load_record`` point reads; finally it
**federates** the POSIX half and the object-store half into a fresh POSIX
destination.  ``core/resultstore.py``, ``core/transport.py``,
``core/objstore.py`` and ``core/federate.py`` do all the work and the
simulator none, so this is the bypass workload for every simulator
optimisation and the target for transport/store ones.  Writes sit beside
reads on both transports so a gain for one that costs the other shows.  All
five digests must be equal.
"""

from __future__ import annotations

import random
import shutil
import time
from typing import Callable

from .calibration import CODEC
from .harness import Interval, Repetition, Workload
from .layers import STORE_TABLE

#: Batches coalesced per shard object by store B's writer.
BATCHES_PER_SHARD = 4


class StoreIO(Workload):
    name = "store_io"
    imports = ("repro.core.resultstore", "repro.core.federate", "repro.core.objstore", "repro.core.experiment")
    table = STORE_TABLE
    kernel = CODEC  # JSON, gzip and SHA-256 do the work here, not bytecode
    background_calibration = False  # gzip releases the GIL: sample between operations

    def __init__(self, context):
        super().__init__(context)
        self._server = None
        self._batches: list[list[tuple[int, dict]]] = []
        self._attempted = 0
        self._failed = 0
        self._transport_error: type[Exception] = Exception  # bound in setup(): repro imports are lazy

    # ---------------------------------------------------------------- set-up

    def setup(self) -> None:
        from repro.core.experiment import ExperimentRunner
        from repro.core.objstore import LocalObjectStore
        from repro.core.resultstore import result_to_dict
        from repro.core.transport import TransportError
        from repro.workloads.workload import WorkloadKind

        self._transport_error = TransportError
        self._server = LocalObjectStore(("127.0.0.1", 0)).start()
        sizes, seed = self.context.sizes, self.context.seed
        template = result_to_dict(ExperimentRunner().run_golden(WorkloadKind.DEPLOY, seed=seed))
        rng = random.Random(seed)
        records = []
        for index in range(sizes.records):
            series = [value + rng.random() * 1e-3 for value in template["latency_series"]]
            clone = dict(template, seed=seed + index, latency_series=series)
            clone["client_observations"] = dict(template["client_observations"], latency_series=series)
            records.append((index, clone))
        self._batches = [
            records[start : start + sizes.records_per_shard]
            for start in range(0, len(records), sizes.records_per_shard)
        ]
        # Warm-up: one shard through each transport.
        for root in (str(self.context.fresh_dir("warm-up")), f"{self._server.url}/warm-up"):
            self._write(root, self._batches[:1], batched=False)

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    # ------------------------------------------------------------ repetition

    def _call(self, operation: Callable, *args):
        """One store-level operation, counted; a transport failure or a
        record the store no longer holds is charged to ``failed`` (and
        surfaces again as a digest mismatch)."""
        self._attempted += 1
        try:
            return operation(*args)
        except (self._transport_error, KeyError):
            self._failed += 1
            return None
        finally:
            self.context.mark()

    def _write(self, root: str, batches: list, batched: bool) -> None:
        from repro.core.resultstore import ShardedResultStore

        store = ShardedResultStore(root)
        self._call(store.open, f"mutiny-bench-store-io-{self.context.seed}", self.context.sizes.records)
        write = store.batched_writer(BATCHES_PER_SHARD).write_dicts if batched else store.write_shard_dicts
        for batch in batches:
            self._call(write, batch)

    def repetition(self, index: int) -> Repetition:
        from repro.core import federate
        from repro.core.resultstore import ShardedResultStore

        sizes = self.context.sizes
        self._attempted = self._failed = 0
        rng = random.Random(self.context.seed * 1000 + index)
        point_reads = [rng.randrange(sizes.records) for _ in range(sizes.point_reads)]
        half = len(self._batches) // 2
        halves = {"posix": self._batches[:half], "objstore": self._batches[half:]}
        posix = self.context.fresh_dir(f"rep-{index}")
        prefixes = {"posix": str(posix / "store"), "objstore": f"{self._server.url}/rep-{index}"}
        produce: list[Interval] = []
        scan: list[Interval] = []
        digests: dict[str, str] = {}
        started = time.perf_counter()
        for kind, prefix in prefixes.items():
            begun = time.perf_counter()
            self._write(f"{prefix}-a", self._batches, batched=False)
            self._write(f"{prefix}-b", self._batches, batched=True)
            self._write(f"{prefix}-half", halves[kind], batched=False)
            produce.append((begun, time.perf_counter()))

            begun = time.perf_counter()
            for label in ("a", "b"):
                digests[f"{kind}-{label}"] = self._call(ShardedResultStore(f"{prefix}-{label}").results_digest) or "unreadable"
            self._call(ShardedResultStore(f"{prefix}-b").completed_indexes)
            reader = ShardedResultStore(f"{prefix}-a")  # one batch per shard: most reads open a shard
            for position in point_reads:
                self._call(reader.load_record, position)
            scan.append((begun, time.perf_counter()))

        destination = f"{prefixes['posix']}-federated"
        begun = time.perf_counter()
        self._call(federate.federate_stores, destination, [f"{prefixes['posix']}-half", f"{prefixes['objstore']}-half"], sizes.records_per_shard)
        produce.append((begun, time.perf_counter()))
        digests["federated"] = self._call(ShardedResultStore(destination).results_digest) or "unreadable"
        finished = time.perf_counter()
        shutil.rmtree(posix)
        return Repetition(
            span=(started, finished),
            produce=produce,
            # A + B + the half store per transport, plus the federated records.
            produce_records=2 * 2 * sizes.records + 2 * sizes.records,
            scan=scan,
            scan_records=2 * 2 * sizes.records,
            attempted=self._attempted,
            failed=self._failed,
            digests=digests,
        )

    def records_scanned(self) -> dict[str, int]:
        # A and B per transport; the federated store's verification scan is POSIX.
        return {"posix": 3 * self.context.sizes.records, "objstore": 2 * self.context.sizes.records}
