"""The campaign executor: one routine behind every execution path.

Every injection experiment is an independent, deterministically-seeded
simulation, which makes a campaign embarrassingly parallel: the paper's full
campaign is ~8,800 experiments (§IV-C) and nothing about one experiment
depends on another.  Because each experiment is fully determined by its
``(workload, fault, seed, config)`` tuple, any sharding of a plan produces
the results of its serial run.

:meth:`CampaignExecutor.run_experiments` is the one execution routine —
scan the store, drop the completed indexes, dispatch the rest in batches,
write shards, re-scan — and every path calls it: the local backend with the
whole plan as one slice, a distributed worker once per leased slice; a run
without a store is the same loop collecting results in memory.  Inside it,
:meth:`CampaignExecutor._dispatch` is the only place that chooses between
in-process and process-pool execution (workload preparation goes through
it too), and a batch is a pure function of its arguments
(:func:`_run_batch`), so resume, progress and cancellation exist once.

Preparation simulates one fault-free run per workload and replays the rest
of its golden runs from that run's trajectory
(:func:`~repro.core.experiment.replay`); the local backend replays, the
same way, every task whose fault never fires on it before it dispatches the
tasks that must be simulated.  Every simulated run starts from a copy of its
workload's prefix snapshot (:class:`~repro.core.experiment.Prefix`), which
each process of an executor takes once per workload (:data:`_PREFIXES`).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import weakref
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.classification import GoldenBaseline
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    ExperimentTask,
    GoldenRunStats,
    Prefix,
    Trajectory,
    close_prefixes,
    fires,
    replay,
)
from repro.core.resultstore import (
    BatchedShardWriter,
    ShardedResultStore,
    StoredResults,
    baseline_to_dict,
    canonical_bytes,
    config_to_dict,
    task_to_dict,
)
from repro.workloads.workload import WorkloadKind

#: Historical first seed of the baseline golden runs (run ``i`` uses
#: ``base_seed + i``), matching :meth:`ExperimentRunner.build_baseline`.
DEFAULT_BASE_SEED = 100

#: ``progress(done, total)`` callback invoked as batches complete.
ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class WorkloadPrep:
    """The golden runs of one workload: its baseline and its field recording.

    The unit of parallel preparation: one job per workload.  Run 0 is
    simulated and records the fields (paper §IV-C records the fields
    "written to etcd during a golden run"); the later runs are replayed
    from its trajectory at their own seeds.
    """

    workload: WorkloadKind
    #: Golden runs used to build the classification baseline (0 = skip the
    #: baseline and only record fields, as the propagation experiments do).
    #: Prep makes ``max(golden_runs, 1)`` runs: run 0 also records the fields.
    golden_runs: int
    #: Seed of the first golden run (run ``i`` uses ``base_seed+i``,
    #: matching :meth:`ExperimentRunner.build_baseline`); run 0 is the one
    #: that records the fields written to etcd.
    base_seed: int = DEFAULT_BASE_SEED


def resolve_workers(workers: Optional[int]) -> int:
    """Map a configured worker count onto an effective one (None = all CPUs)."""
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return workers


# --------------------------------------------------------------------------
# Batch functions (module-level so they pickle by reference under both fork
# and spawn start methods).
# --------------------------------------------------------------------------

#: Where a finished batch goes: ``None`` returns its results to the caller
#: in memory, ``(store root, batches per shard)`` writes it to that store.
BatchSink = Optional[tuple[str, int]]

#: The one per-process home of state that outlives a batch: the open
#: :class:`BatchedShardWriter` group of each sink, so a shard group spans
#: batches and slices in the calling process and in every pool worker alike.
#: No flush is ever needed — appends are durable as they happen, and a group
#: cut short by shutdown is simply a shard with fewer members.
_OPEN_WRITERS: dict[tuple[str, int], BatchedShardWriter] = {}

#: The prefix snapshots of each executor in this process, keyed by the
#: executor's :attr:`CampaignExecutor.scope` (which the batch functions
#: carry into pool workers): the first run of a workload in a process takes
#: its snapshot — prep's recording run in the process that preps — and the
#: later runs there start from copies.  Two executors share nothing, not
#: even on two threads of one process.
_PREFIXES: dict[int, dict[WorkloadKind, Prefix]] = {}

#: Where each executor's ``scope`` comes from: unique within a process.
_SCOPES = itertools.count()


def _drop_prefixes(scope: int) -> None:
    """Close and forget this process's prefix snapshots of executor
    ``scope``: what :meth:`CampaignExecutor.close` and an unclosed
    executor's finalizer both call."""
    close_prefixes(_PREFIXES.pop(scope, {}))


def _deliver(results: list[tuple[int, ExperimentResult]], sink: BatchSink):
    """Hand a finished batch to its sink.

    Without a sink the ``(index, result)`` pairs travel back to the caller.
    With one the batch is durable in the store on return — one new shard, or
    (``batches per shard > 1``) one member appended to the sink's open shard
    group — and only the completed plan indexes travel back, so the caller's
    memory stays bounded by its own bookkeeping however large the campaign.
    """
    if sink is None:
        return results
    root, shard_batch = sink
    if shard_batch <= 1:
        ShardedResultStore(root).write_shard(results)
    else:
        writer = _OPEN_WRITERS.get(sink)
        if writer is None:
            writer = _OPEN_WRITERS.setdefault(
                sink, ShardedResultStore(root).batched_writer(shard_batch)
            )
        writer.write(results)
    return [index for index, _ in results]


def _runner(experiment_config: ExperimentConfig, scope: int) -> ExperimentRunner:
    """A runner over this process's prefix snapshots of executor ``scope``."""
    return ExperimentRunner(experiment_config, prefixes=_PREFIXES.setdefault(scope, {}))


def _run_batch(
    experiment_config: ExperimentConfig,
    tasks: list[ExperimentTask],
    baselines: dict[str, GoldenBaseline],
    sink: BatchSink,
    scope: int,
):
    """Simulate one batch of tasks and deliver it (:func:`_deliver`): a pure
    function of its arguments (a copied prefix is the simulated one)."""
    runner = _runner(experiment_config, scope)
    return _deliver(
        [
            (
                task.index,
                runner.run_experiment(
                    task.workload,
                    task.fault,
                    baseline=baselines.get(task.workload.value),
                    seed=task.seed,
                ),
            )
            for task in tasks
        ],
        sink,
    )


def _prepare_workload(
    experiment_config: ExperimentConfig, prep: WorkloadPrep, scope: int
) -> tuple[list[GoldenRunStats], list, Optional[Trajectory]]:
    """Run one workload's golden runs: the stats of each, the fields run 0
    recorded, and run 0's trajectory when later runs may replay it.

    Run 0 is simulated.  When it drew from no RNG stream but the client's
    latency jitter, the later runs are replayed from its trajectory;
    otherwise each is simulated and no trajectory is returned.
    """
    # Imported lazily: campaign.py imports this module for the executor.
    from repro.core.campaign import FieldRecorder

    runner = _runner(experiment_config, scope)
    recorder = FieldRecorder()
    first = runner.run_golden(prep.workload, seed=prep.base_seed, etcd_observer=recorder)
    trajectory = runner.last_trajectory
    if trajectory is not None and not trajectory.replayable:
        trajectory = None
    stats = [GoldenRunStats.of(first)]
    for run in range(1, prep.golden_runs):
        seed = prep.base_seed + run
        stats.append(
            GoldenRunStats.of(
                replay(trajectory, seed)
                if trajectory is not None
                else runner.run_golden(prep.workload, seed=seed)
            )
        )
    return stats, recorder.recorded(), trajectory


def _never_firing(tasks: list[ExperimentTask], trajectories: dict[str, Trajectory]) -> set[int]:
    """The plan indexes of the tasks whose fault never fires on their
    workload's trajectory (each trajectory's messages unpacked once)."""
    by_workload: dict[str, list[ExperimentTask]] = {}
    for task in tasks:
        by_workload.setdefault(task.workload.value, []).append(task)
    never: set[int] = set()
    for key, group in by_workload.items():
        if key in trajectories:
            firing = fires(trajectories[key], [task.fault for task in group])
            never.update(task.index for task, fired in zip(group, firing) if not fired)
    return never


# --------------------------------------------------------------------------
# Fingerprints: SHA-256 over the codec's canonical bytes, so identity is a
# function of exactly what the plan and the prep store.
# --------------------------------------------------------------------------


def _digest(document: Any) -> str:
    return hashlib.sha256(canonical_bytes(document)).hexdigest()


def tasks_fingerprint(tasks: list[ExperimentTask]) -> str:
    """A stable digest of a plan's tasks."""
    return _digest([task_to_dict(task) for task in tasks])


def campaign_identity(
    tasks: list[ExperimentTask],
    experiment_config: ExperimentConfig,
    baselines: Optional[dict[str, GoldenBaseline]] = None,
) -> dict:
    """Everything that determines a campaign's results, in codec form: the
    body of the published plan and what :func:`campaign_fingerprint` hashes.

    Covers the plan *and* the experiment configuration and golden baselines:
    two campaigns with the same fault plan but different baselines (e.g. a
    different ``golden_runs``) classify results differently, so their
    result stores must not be mixed.
    """
    return {
        "tasks": [task_to_dict(task) for task in tasks],
        "experiment_config": config_to_dict(experiment_config),
        "baselines": {
            key: baseline_to_dict(baseline) for key, baseline in (baselines or {}).items()
        },
    }


def campaign_fingerprint(
    tasks: list[ExperimentTask],
    experiment_config: ExperimentConfig,
    baselines: Optional[dict[str, GoldenBaseline]] = None,
) -> str:
    """Digest of :func:`campaign_identity`, used to match result stores and
    published plans to campaigns."""
    return _digest(campaign_identity(tasks, experiment_config, baselines))


def prep_fingerprint(
    experiment_config: ExperimentConfig, preps: list[WorkloadPrep]
) -> str:
    """Digest of everything that determines workload preparation results."""
    return _digest(
        {
            "experiment_config": config_to_dict(experiment_config),
            "preps": [{**asdict(prep), "workload": prep.workload.value} for prep in preps],
        }
    )


# --------------------------------------------------------------------------
# The executor
# --------------------------------------------------------------------------


class CampaignExecutor:
    """Runs planned experiments, in-process or across a process pool.

    With ``workers <= 1`` (or a single batch) everything runs in the calling
    process through exactly the same batch functions, so the serial path is
    the degenerate case of the parallel one rather than a separate code path
    with separate behaviour.  Batches share no state but the sink's open
    shard group, so several executors may run slices concurrently inside one
    process (e.g. worker loops in threads).

    The process pool is created lazily on first use and shared between
    workload preparation and experiment execution (one pool bootstrap per
    campaign, not one per phase).  Use the executor as a context manager, or
    call :meth:`close`, to shut the pool down.
    """

    def __init__(
        self,
        experiment_config: Optional[ExperimentConfig] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        results_dir: Optional[str] = None,
        shard_batch: int = 1,
    ):
        if shard_batch < 1:
            raise ValueError(f"shard_batch must be >= 1, got {shard_batch}")
        self.experiment_config = (
            experiment_config if experiment_config is not None else ExperimentConfig()
        )
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.progress = progress
        #: Root of an *opened* result store to stream into: the caller
        #: (:meth:`Campaign.run`) owns the store lifecycle and has already
        #: fingerprint-checked it with ``ShardedResultStore.open``.
        self.results_dir = results_dir
        #: Finished batches coalesced per shard object (1 = one shard per
        #: batch, the historical layout).  Purely a storage-layout knob:
        #: results, digests, and resume semantics are unchanged.
        self.shard_batch = shard_batch
        #: The executor's scanning view of the store.  One instance for the
        #: executor's lifetime, so a repeat scan (a distributed worker scans
        #: once per leased slice) only parses shards it has never seen.
        self.store = ShardedResultStore(results_dir) if results_dir else None
        self._sink: BatchSink = (results_dir, shard_batch) if results_dir else None
        self._pool: Optional[ProcessPoolExecutor] = None
        #: The key of this executor's prefix snapshots in :data:`_PREFIXES`;
        #: an executor never closed closes its own when it is collected.
        self.scope = next(_SCOPES)
        weakref.finalize(self, _drop_prefixes, self.scope)

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Imported before the fork, so the pool's children inherit the
            # simulator instead of each importing it.
            import repro.cluster.cluster  # noqa: F401

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (no-op if none was ever started),
        forget this process's open shard group for the executor's store, and
        close and forget its prefix snapshots."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._sink is not None:
            _OPEN_WRITERS.pop(self._sink, None)
        _drop_prefixes(self.scope)

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- dispatch

    def _chunks(self, tasks: list[ExperimentTask], workers: int) -> list[list[ExperimentTask]]:
        """Shard pending tasks into batches.

        Batches amortize worker dispatch and shard writes; four batches
        per worker keeps the tail short when experiment durations vary.
        """
        if self.chunk_size is not None and self.chunk_size > 0:
            size = self.chunk_size
        else:
            size = max(1, -(-len(tasks) // (workers * 4)))
        return [tasks[start : start + size] for start in range(0, len(tasks), size)]

    def _dispatch(
        self,
        function: Callable[..., Any],
        calls: Sequence[tuple],
        each: Callable[[int, Any], None],
    ) -> None:
        """Run ``function(*args)`` for every ``args`` in ``calls``, handing
        ``each(position, value)`` every return value as it completes.

        The only serial-vs-pool decision in the package: with one worker (or
        at most one call) the calls run in order in this process, otherwise
        across the pool in completion order.  An exception out of ``each`` —
        a cancelled campaign, a lost slice lease — stops the dispatch: no
        call that has not started will start.  Calls already running in the
        pool finish (what they wrote stays durable) and :meth:`close` waits
        for them.
        """
        if min(self.workers, len(calls)) <= 1:
            for position, args in enumerate(calls):
                each(position, function(*args))
            return
        pool = self._get_pool()
        futures = {
            pool.submit(function, *args): position for position, args in enumerate(calls)
        }
        try:
            for future in as_completed(futures):
                each(futures[future], future.result())
        finally:
            for future in futures:
                future.cancel()  # no-op on the finished ones

    # ------------------------------------------------------------ execution

    def pending(self, tasks: list[ExperimentTask]) -> list[ExperimentTask]:
        """The tasks whose plan index the store does not hold yet (a fresh
        scan; every task when there is no store) — the whole of resume."""
        if self.store is None:
            return list(tasks)
        self.store.refresh()  # writers add shards through their own instances
        stored = self.store.completed_indexes()
        return [task for task in tasks if task.index not in stored]

    def run_experiments(
        self,
        tasks: list[ExperimentTask],
        baselines: Optional[dict[str, GoldenBaseline]] = None,
        on_batch: Optional[Callable[[list[int]], None]] = None,
        trajectories: Optional[dict[str, Trajectory]] = None,
    ):
        """Run every task not yet stored and return all results in task order.

        The one execution routine — scan → pending → batches → shards →
        re-scan — called with a whole plan by the local backend and with one
        leased slice at a time by a distributed worker.

        Without a ``results_dir`` this returns the familiar in-memory list.
        With one — a directory path or an ``objstore://`` URL; the store
        picks its transport from the root's shape — every finished batch is
        streamed into the (already opened) sharded result store and a lazy
        :class:`StoredResults` view is returned instead: peak parent memory
        is bounded by one batch regardless of campaign size, and a rerun
        executes only what the scan finds missing.

        ``progress(done, total)`` fires once up front when the scan found
        stored results, then once per finished batch; ``on_batch`` receives
        each finished batch's plan indexes first.  An exception out of
        either aborts the run at that batch boundary (see :meth:`_dispatch`);
        completed shards stay, so the next call resumes.

        ``trajectories`` maps a workload to its recorded fault-free
        trajectory (from :meth:`prepare_workloads`).  A pending task whose
        fault never fires on it (:func:`~repro.core.experiment.fires`) is
        replayed in this process instead of simulated, in batches delivered
        like any other before the rest is dispatched.  The mapping is
        emptied once those replays are delivered, so the recorded messages
        are not held while the rest runs.
        """
        total = len(tasks)
        pending = self.pending(tasks)
        done = total - len(pending)
        collected: dict[int, ExperimentResult] = {}
        if self.progress is not None and done:
            self.progress(done, total)

        def finish(_position: int, batch) -> None:
            nonlocal done
            if self.store is None:
                collected.update(batch)
                batch = [index for index, _ in batch]
            done += len(batch)
            if on_batch is not None:
                on_batch(batch)
            if self.progress is not None:
                self.progress(done, total)

        if trajectories:
            never = _never_firing(pending, trajectories)
            replayed = [task for task in pending if task.index in never]
            pending = [task for task in pending if task.index not in never]
            for position, chunk in enumerate(self._chunks(replayed, self.workers)):
                finish(position, self._replay_batch(chunk, baselines or {}, trajectories))
            trajectories.clear()

        workers = min(self.workers, max(len(pending), 1))
        self._dispatch(
            _run_batch,
            [
                (self.experiment_config, chunk, baselines or {}, self._sink, self.scope)
                for chunk in self._chunks(pending, workers)
            ],
            finish,
        )
        if self.store is None:
            return [collected[task.index] for task in tasks]
        self.store.refresh()  # the batches added shards behind our scan
        return StoredResults(self.store, [task.index for task in tasks])

    def _replay_batch(
        self,
        tasks: list[ExperimentTask],
        baselines: dict[str, GoldenBaseline],
        trajectories: dict[str, Trajectory],
    ):
        """The replayed counterpart of :func:`_run_batch`, in this process."""
        results = []
        for task in tasks:
            result = replay(trajectories[task.workload.value], task.seed, task.fault)
            baseline = baselines.get(task.workload.value)
            if baseline is not None:
                ExperimentRunner.classify(result, baseline)
            results.append((task.index, result))
        return _deliver(results, self._sink)

    # ---------------------------------------------------------- preparation

    def prepare_workloads(
        self, preps: list[WorkloadPrep]
    ) -> list[tuple[Optional[GoldenBaseline], list, Optional[Trajectory]]]:
        """Run the golden baselines + field recording for each workload.

        One job per workload (:func:`_prepare_workload`): one simulated run,
        at ``base_seed``, which records the fields, and the rest of its
        ``golden_runs`` replayed from that run's trajectory.  With
        ``golden_runs=0`` the recording run is the only run and no baseline
        is folded.  The per-run stats are folded back into baselines in the
        parent.  Each entry is ``(baseline, recorded fields, trajectory)``,
        in the order of ``preps``; the trajectory is None when the recording
        run drew from another RNG stream than the client's latency jitter.
        """
        outcomes: list = [None] * len(preps)
        self._dispatch(
            _prepare_workload,
            [(self.experiment_config, prep, self.scope) for prep in preps],
            outcomes.__setitem__,
        )
        runner = ExperimentRunner(self.experiment_config)
        return [
            (
                runner.fold_baseline(prep.workload, stats) if prep.golden_runs > 0 else None,
                recorded,
                trajectory,
            )
            for prep, (stats, recorded, trajectory) in zip(preps, outcomes)
        ]
