"""Fault/error injection campaign manager.

The campaign follows paper §IV-C:

1. record the fields of the resource instances written to etcd during a
   golden run of each orchestration workload;
2. generate injection experiments — for every recorded integer field a
   low-order and a high-order bit-flip plus a zero value-set, for every
   string field a least-significant-bit flip of the first two characters
   plus an empty-string value-set, an inversion for every boolean, each at
   occurrence indexes 1–3; per resource kind a batch of random
   serialization-byte flips and message drops at occurrence indexes 1–10;
3. drive the experiments, one injected fault per experiment, and classify
   each run against the workload's golden baseline.

The full campaign of the paper is ~8,800 experiments; the default
configuration here subsamples the generated specs so the campaign fits in a
benchmark run, and ``CampaignConfig.max_experiments_per_workload`` scales it
back up.

Execution is plan-then-execute: the campaign first plans every experiment
(including its seed), then hands the task list to the
:class:`repro.core.parallel.CampaignExecutor`, which shards it across worker
processes (``CampaignConfig.workers``) and merges the results back in plan
order — or, with the distributed backend, publishes the plan and waits for
worker processes that run the same executor routine one leased slice at a
time.  Any of these runs is therefore result-identical to a serial run of
the same configuration.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.classification import (
    CampaignTally,
    ClientFailure,
    GoldenBaseline,
    OrchestratorFailure,
)
from repro.core.distributed import (
    DistributedPlan,
    DistributedSettings,
    default_slice_size,
    publish_plan,
    wait_for_completion,
)
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentTask,
    RecordedField,
    Trajectory,
)
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.core.parallel import (
    CampaignExecutor,
    ProgressCallback,
    WorkloadPrep,
    campaign_fingerprint,
    prep_fingerprint,
)
from repro.core.resultstore import StoredResults
from repro.serialization import (
    DecodeError,
    decode_shared,
    field_leaves,
    seed_decode,
    value_type,
)
from repro.sim.rng import DeterministicRNG
from repro.workloads.workload import WorkloadKind


class CampaignCancelledError(RuntimeError):
    """Raised out of :meth:`Campaign.run` when its ``cancel`` event is set.

    Cancellation is cooperative: the local backend observes it at every
    finished batch, the distributed coordinator at every poll round.  No
    batch that has not started when the cancel is observed will start;
    batches already running in pool workers finish, and every completed
    shard stays durable, so a later run (or service restart) of the same
    spec resumes instead of re-running them.
    """


def _cancellable_progress(
    progress: Optional[ProgressCallback], cancel: Optional[threading.Event]
) -> Optional[ProgressCallback]:
    """Wrap ``progress`` so a set ``cancel`` event aborts at the next batch."""
    if cancel is None:
        return progress

    def guarded(done: int, total: int) -> None:
        if cancel.is_set():
            raise CampaignCancelledError("campaign run cancelled")
        if progress is not None:
            progress(done, total)

    return guarded


#: Kinds whose instance names are stable across runs (user- or boot-created),
#: so a fault spec can pin the exact instance.  Names of generated objects
#: (Pods, ReplicaSets, …) vary, so their specs match any instance of the kind.
PINNED_KINDS = frozenset(
    {"Deployment", "Service", "Node", "ConfigMap", "Namespace", "DaemonSet"}
)

#: Fields that are pure bookkeeping and not injected (the paper injects the
#: data used by orchestration operations, not the write counters themselves).
EXCLUDED_FIELD_SUFFIXES = ("resourceVersion", "creationTimestamp", "generation")

#: Top-level fields excluded from recording: the kind tag is the message type,
#: not data used by orchestration operations.
EXCLUDED_FIELD_PATHS = frozenset({"kind"})


class FieldRecorder:
    """Observer hook that records fields written to etcd during a golden run.

    The bytes it sees are the Apiserver's latest encode, so the read is the
    decode cache's ``marshal`` copy of the encoded tree (:func:`seed_decode`),
    which the Apiserver's own read then shares; the tree is only read here.
    """

    def __init__(self):
        self.fields: dict[tuple[str, str], RecordedField] = {}

    def __call__(self, context, data: bytes) -> None:
        seed_decode(data)
        try:
            obj = decode_shared(data)
        except DecodeError:
            return
        kind = context.kind
        fields = self.fields
        for path, value in field_leaves(obj):
            key = (kind, path)
            if key in fields:
                continue
            kind_of_value = value_type(value)
            if kind_of_value not in ("int", "str", "bool"):
                continue
            if path.endswith(EXCLUDED_FIELD_SUFFIXES) or path in EXCLUDED_FIELD_PATHS:
                continue
            fields[key] = RecordedField(
                kind=kind,
                name=context.name,
                namespace=context.namespace,
                path=path,
                value_type=kind_of_value,
                example_value=value,
            )

    def recorded(self) -> list[RecordedField]:
        """All recorded fields in a stable order."""
        return [self.fields[key] for key in sorted(self.fields)]


@dataclass
class CampaignConfig:
    """Sizing of the campaign."""

    #: Workloads to run (defaults to all three).
    workloads: tuple[WorkloadKind, ...] = (
        WorkloadKind.DEPLOY,
        WorkloadKind.SCALE_UP,
        WorkloadKind.FAILOVER,
    )
    #: Golden runs per workload used to build the classification baseline.
    golden_runs: int = 3
    #: Occurrence indexes for field-level injections (paper: 1, 2, 3).
    occurrences: tuple[int, ...] = (1, 2, 3)
    #: Occurrence indexes for message drops (paper: 1..10).
    drop_occurrences: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    #: Random serialization-byte injections per resource kind.
    proto_byte_injections_per_kind: int = 2
    #: Cap on the number of experiments actually run per workload
    #: (None = run the full generated campaign, paper scale).
    max_experiments_per_workload: Optional[int] = 60
    #: Seed controlling subsampling and proto-byte positions.
    seed: int = 7
    #: Worker processes used to execute the experiments (None = one per CPU,
    #: 1 = serial in-process execution).  Serial and parallel runs of the
    #: same configuration produce identical results.
    workers: Optional[int] = None
    #: Experiments per batch handed to a worker (None = sized automatically).
    chunk_size: Optional[int] = None
    #: Finished batches coalesced per stored shard object when streaming
    #: into a --results-dir (1 = the historical one-shard-per-batch layout).
    #: A storage-layout knob only: results and digests are unchanged, but a
    #: paper-scale campaign stores 1/N as many shard objects.
    shard_batch: int = 1
    #: Experiment timing/sizing.
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)


@dataclass
class PlannedExperiment:
    """One (workload, fault) pair scheduled for execution."""

    workload: WorkloadKind
    fault: FaultSpec


@dataclass
class CampaignResult:
    """All results of a campaign, with the aggregations the tables need.

    ``results`` is any re-iterable sequence of experiment results: the
    in-memory list of a small campaign, or the lazy
    :class:`~repro.core.resultstore.StoredResults` view of a streamed one.
    Every aggregate folds from a single streaming pass (cached on first
    use), so tallying a paper-scale campaign never materializes it.
    """

    results: Sequence[ExperimentResult] = field(default_factory=list)
    baselines: dict[str, GoldenBaseline] = field(default_factory=dict)
    recorded_fields: dict[str, list[RecordedField]] = field(default_factory=dict)
    _tally: Optional[CampaignTally] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------ aggregates

    @staticmethod
    def injection_family(fault: Optional[FaultSpec]) -> str:
        """Map a fault spec onto the paper's three injection families."""
        if fault is None:
            return "golden"
        if fault.fault_type in (FaultType.BIT_FLIP, FaultType.PROTO_BYTE_FLIP):
            return "Bit-flip"
        if fault.fault_type is FaultType.DATA_TYPE_SET:
            return "Value set"
        return "Drop"

    def tally(self) -> CampaignTally:
        """All classification tallies, folded in one streaming pass."""
        if self._tally is None:
            tally = CampaignTally()
            for result in self.results:
                tally.update(result, self.injection_family(result.fault))
            self._tally = tally
        return self._tally

    def of_counts(self) -> dict[tuple[str, str], dict[str, int]]:
        """(workload, injection family) -> counts per orchestrator failure (Table IV)."""
        return self.tally().of_counts

    def cf_counts(self) -> dict[tuple[str, str], dict[str, int]]:
        """(workload, injection family) -> counts per client failure (Table V)."""
        return self.tally().cf_counts

    def of_cf_matrix(self, workload: Optional[WorkloadKind] = None) -> dict[str, dict[str, int]]:
        """OF -> CF counts (Table III), optionally restricted to one workload."""
        return self.tally().matrix(workload.value if workload is not None else None)

    def critical_results(self) -> list[ExperimentResult]:
        """Experiments that caused Out, Sta, or a service-unreachable client failure.

        This materializes the (small) critical subset; use
        :meth:`critical_count` when only the number is needed.
        """
        critical = []
        for result in self.results:
            if result.orchestrator_failure in (OrchestratorFailure.STA, OrchestratorFailure.OUT):
                critical.append(result)
            elif result.client_failure == ClientFailure.SU:
                critical.append(result)
        return critical

    def critical_count(self) -> int:
        """Number of critical experiments (streaming; no materialization)."""
        return self.tally().critical

    def classification_counts(self) -> dict[str, int]:
        """Failure-class counts keyed ``"OF/CF"``, for drift checks and CLI output."""
        return self.tally().classification_counts()

    def activation_rate(self) -> float:
        """Fraction of injected experiments whose target was used afterwards."""
        return self.tally().activation_rate()

    def total_experiments(self) -> int:
        """Number of injection experiments run."""
        return self.tally().total


class Campaign:
    """Generates and runs a fault/error injection campaign."""

    def __init__(self, config: Optional[CampaignConfig] = None):
        self.config = config if config is not None else CampaignConfig()
        self.rng = DeterministicRNG(self.config.seed)

    # ------------------------------------------------------------- generation

    def generate(self, recorded: list[RecordedField]) -> list[FaultSpec]:
        """Generate the full set of fault specs for one workload (§IV-C rules)."""
        specs: list[FaultSpec] = []
        kinds = sorted({record.kind for record in recorded})

        for record in recorded:
            name = record.name if record.kind in PINNED_KINDS else None
            namespace = record.namespace if record.kind in PINNED_KINDS else None
            for occurrence in self.config.occurrences:
                specs.extend(
                    self._field_specs(record, name, namespace, occurrence)
                )

        for kind in kinds:
            for index in range(self.config.proto_byte_injections_per_kind):
                specs.append(
                    FaultSpec(
                        channel=InjectionChannel.APISERVER_TO_ETCD,
                        kind=kind,
                        fault_type=FaultType.PROTO_BYTE_FLIP,
                        bit_index=self.rng.randint(f"proto-{kind}-{index}", 0, 4095),
                        occurrence=1,
                    )
                )
            for occurrence in self.config.drop_occurrences:
                specs.append(
                    FaultSpec(
                        channel=InjectionChannel.APISERVER_TO_ETCD,
                        kind=kind,
                        fault_type=FaultType.MESSAGE_DROP,
                        occurrence=occurrence,
                    )
                )
        return specs

    def _field_specs(
        self, record: RecordedField, name, namespace, occurrence: int
    ) -> list[FaultSpec]:
        common = {
            "channel": InjectionChannel.APISERVER_TO_ETCD,
            "kind": record.kind,
            "field_path": record.path,
            "name": name,
            "namespace": namespace,
            "occurrence": occurrence,
        }
        if record.value_type == "int":
            return [
                FaultSpec(fault_type=FaultType.BIT_FLIP, bit_index=0, **common),
                FaultSpec(fault_type=FaultType.BIT_FLIP, bit_index=4, **common),
                FaultSpec(fault_type=FaultType.DATA_TYPE_SET, set_value=0, **common),
            ]
        if record.value_type == "str":
            return [
                FaultSpec(fault_type=FaultType.BIT_FLIP, bit_index=0, **common),
                FaultSpec(fault_type=FaultType.BIT_FLIP, bit_index=1, **common),
                FaultSpec(fault_type=FaultType.DATA_TYPE_SET, set_value="", **common),
            ]
        if record.value_type == "bool":
            return [FaultSpec(fault_type=FaultType.BIT_FLIP, bit_index=0, **common)]
        return []

    def plan(self, workload: WorkloadKind, recorded: list[RecordedField]) -> list[PlannedExperiment]:
        """Generate and (if configured) subsample the experiments for one workload.

        Subsampling is stratified over the three injection families so that a
        small campaign still exercises bit-flips, value-sets and message drops
        in roughly the proportions of the full campaign.
        """
        specs = self.generate(recorded)
        limit = self.config.max_experiments_per_workload
        if limit is None or len(specs) <= limit:
            return [PlannedExperiment(workload=workload, fault=spec) for spec in specs]

        families: dict[str, list[FaultSpec]] = {}
        for spec in specs:
            families.setdefault(CampaignResult.injection_family(spec), []).append(spec)
        chosen: list[FaultSpec] = []
        family_names = sorted(families)
        # Guarantee a minimum presence of every family, then fill proportionally.
        minimum = min(2, limit // max(len(family_names), 1))
        for name in family_names:
            shuffled = self.rng.shuffle(f"subsample-{workload.value}-{name}", families[name])
            families[name] = shuffled
            chosen.extend(shuffled[:minimum])
        remaining = limit - len(chosen)
        if remaining > 0:
            pool = []
            for name in family_names:
                pool.extend(families[name][minimum:])
            pool = self.rng.shuffle(f"subsample-{workload.value}-rest", pool)
            chosen.extend(pool[:remaining])
        chosen = chosen[:limit]
        return [PlannedExperiment(workload=workload, fault=spec) for spec in chosen]

    # -------------------------------------------------------------- execution

    def _executor(
        self,
        progress: Optional[ProgressCallback] = None,
        results_dir: Optional[str] = None,
    ) -> CampaignExecutor:
        """Build the executor this campaign's configuration asks for."""
        return CampaignExecutor(
            self.config.experiment,
            workers=self.config.workers,
            chunk_size=self.config.chunk_size,
            progress=progress,
            results_dir=results_dir,
            shard_batch=self.config.shard_batch,
        )

    def _preps(self) -> list[WorkloadPrep]:
        return [
            WorkloadPrep(workload=workload, golden_runs=self.config.golden_runs)
            for workload in self.config.workloads
        ]

    def plan_campaign(
        self,
        executor: Optional[CampaignExecutor] = None,
        prepared: Optional[list] = None,
    ) -> tuple[
        list[ExperimentTask],
        dict[str, GoldenBaseline],
        dict[str, list[RecordedField]],
        dict[str, Trajectory],
    ]:
        """Prepare every workload and plan the full campaign.

        Golden baselines and field recording fan out across the executor (one
        prep per workload); spec generation and subsampling stay in the parent
        because the campaign RNG streams are shared across workloads.  Every
        planned task carries its seed, fixed by plan position, so execution
        order cannot change any experiment's outcome.  ``prepared`` lets the
        caller reuse preparation results (e.g. reloaded from a result store,
        with no trajectory).  The last mapping holds each workload's
        replayable fault-free trajectory, when preparation produced one.
        """
        if executor is None:
            with self._executor() as owned:
                return self.plan_campaign(owned, prepared=prepared)
        if prepared is None:
            prepared = executor.prepare_workloads(self._preps())

        tasks: list[ExperimentTask] = []
        baselines: dict[str, GoldenBaseline] = {}
        recorded_fields: dict[str, list[RecordedField]] = {}
        trajectories: dict[str, Trajectory] = {}
        experiment_seed = 1000
        for workload, (baseline, recorded, trajectory) in zip(self.config.workloads, prepared):
            baselines[workload.value] = baseline
            recorded_fields[workload.value] = recorded
            if trajectory is not None:
                trajectories[workload.value] = trajectory
            for planned in self.plan(workload, recorded):
                experiment_seed += 1
                tasks.append(
                    ExperimentTask(
                        index=len(tasks),
                        workload=planned.workload,
                        fault=planned.fault,
                        seed=experiment_seed,
                    )
                )
        return tasks, baselines, recorded_fields, trajectories

    def run(
        self,
        progress: Optional[ProgressCallback] = None,
        results_dir: Optional[str] = None,
        backend: str = "local",
        distributed: Optional[DistributedSettings] = None,
        cancel: Optional[threading.Event] = None,
    ) -> CampaignResult:
        """Run the whole campaign and return its results.

        ``progress`` is called as ``progress(done, total)`` whenever a batch
        of experiments completes.

        ``results_dir`` persists the run in the streaming sharded result
        store, rooted at a directory path or an
        ``objstore://host:port/bucket`` URL (the store picks its shard
        transport from the root's shape).  Workers serialize every finished
        batch to a compressed shard, the returned :class:`CampaignResult`
        holds a lazy plan-order view, and a rerun of the same configuration
        resumes by scanning the completed shards (re-running zero finished
        experiments, and reloading the golden baselines instead of
        recomputing them).  Peak memory stays bounded by one batch no matter
        how large the campaign is.  Without it the results only live in
        memory.

        Two execution backends are supported:

        * ``backend="local"`` — this process executes the plan through
          :meth:`~repro.core.parallel.CampaignExecutor.run_experiments`,
          in-process or across its process pool (the default).  A task
          whose fault never fires on its workload's fault-free trajectory
          is replayed from that trajectory instead of simulated; a prep
          reloaded from the store carries no trajectory, so a resume
          simulates every missing task.
        * ``backend="distributed"`` — this process becomes the
          *coordinator*: it prepares the baselines, publishes the frozen
          plan into ``results_dir`` (which is required and must be a store
          the workers can reach — a shared directory or an object-store
          URL), and waits until the store holds every plan index.
          Experiments execute in separate
          ``python -m repro.cli worker --results-dir ...`` processes on any
          number of hosts, each running the same executor routine one leased
          slice at a time; ``distributed`` tunes slice size, poll interval,
          and the overall deadline.  The merged result (and its store
          digest) is identical to a local run of the same configuration.

        Both backends share one store lifecycle, driven here: load the prep,
        plan, fingerprint-check the store, save freshly computed prep.  A
        mis-pointed ``results_dir`` is therefore rejected with
        :class:`~repro.core.resultstore.ResultStoreMismatchError` before
        anything inside the foreign store is touched.  Both return the same
        lazy view of the store, so every aggregate is the one streaming fold
        of :meth:`CampaignResult.tally`.

        ``cancel`` is an optional :class:`threading.Event`.  Once it is set,
        the run raises :class:`CampaignCancelledError` when it next observes
        it — at the next finished batch (local) or poll round (distributed).
        No batch that has not started by then will start; batches already
        running in pool workers finish before the error surfaces; completed
        shards stay, so a rerun of the same configuration resumes with only
        the missing experiments.
        """
        if backend not in ("local", "distributed"):
            raise ValueError(f"unknown campaign backend {backend!r}")
        if backend == "distributed" and not results_dir:
            raise ValueError("the distributed backend requires results_dir")
        progress = _cancellable_progress(progress, cancel)
        with self._executor(progress=progress, results_dir=results_dir) as executor:
            store = executor.store
            prep_digest = prep_fingerprint(self.config.experiment, self._preps())
            loaded = store.load_prep(prep_digest) if store is not None else None
            prepared = (
                [(baseline, recorded, None) for baseline, recorded in loaded]
                if loaded is not None
                else None
            )
            tasks, baselines, recorded_fields, trajectories = self.plan_campaign(
                executor, prepared=prepared
            )
            fingerprint = campaign_fingerprint(tasks, self.config.experiment, baselines)
            if store is not None:
                store.open(fingerprint, len(tasks))
                if loaded is None:
                    store.save_prep(
                        prep_digest,
                        [
                            (baselines[workload.value], recorded_fields[workload.value])
                            for workload in self.config.workloads
                        ],
                    )
            if backend == "distributed" and store is not None:  # (results_dir was required above)
                trajectories.clear()  # the workers simulate every task
                settings = distributed if distributed is not None else DistributedSettings()
                publish_plan(
                    store.root,
                    DistributedPlan(
                        fingerprint=fingerprint,
                        experiment_config=self.config.experiment,
                        tasks=tasks,
                        baselines=baselines,
                        slice_size=settings.slice_size or default_slice_size(len(tasks)),
                        # Published with the plan so every worker inherits
                        # the coalescing factor (its own --shard-batch wins).
                        shard_batch=self.config.shard_batch,
                    ),
                )
                wait_for_completion(store, len(tasks), settings, progress, cancel)
                results = StoredResults(store, [task.index for task in tasks])
            else:
                results = executor.run_experiments(
                    tasks, baselines=baselines, trajectories=trajectories
                )
        return CampaignResult(
            results=results, baselines=baselines, recorded_fields=recorded_fields
        )

    # ---------------------------------------------------- propagation (VI-C4)

    def run_propagation(
        self,
        components: tuple[str, ...] = ("kube-controller-manager", "kube-scheduler", "kubelet"),
        fields_per_component: int = 10,
        progress: Optional[ProgressCallback] = None,
    ) -> list[dict]:
        """Run the Table VI propagation experiments.

        Bit-flips are injected into the messages the given components send to
        the Apiserver; each row reports whether the corrupted value propagated
        to etcd (the request was accepted) or an error was logged.  Like
        :meth:`run`, the experiments are planned first and executed through
        the (possibly parallel) campaign executor.
        """
        with self._executor(progress=progress) as executor:
            return self._run_propagation(executor, components, fields_per_component)

    def _run_propagation(
        self,
        executor: CampaignExecutor,
        components: tuple[str, ...],
        fields_per_component: int,
    ) -> list[dict]:
        preps = [
            WorkloadPrep(workload=workload, golden_runs=0, base_seed=60)
            for workload in self.config.workloads
        ]
        prepared = executor.prepare_workloads(preps)

        tasks: list[ExperimentTask] = []
        groups: list[tuple[WorkloadKind, str, list[int]]] = []
        experiment_seed = 9000
        for workload, (_, recorded, _) in zip(self.config.workloads, prepared):
            for component in components:
                relevant = [
                    record
                    for record in recorded
                    if record.kind in self._component_kinds(component)
                ][:fields_per_component]
                indexes: list[int] = []
                for record in relevant:
                    experiment_seed += 1
                    spec = FaultSpec(
                        channel=InjectionChannel.COMPONENT_TO_APISERVER,
                        kind=record.kind,
                        field_path=record.path,
                        component=component,
                        fault_type=FaultType.BIT_FLIP,
                        bit_index=0,
                        occurrence=1,
                    )
                    indexes.append(len(tasks))
                    tasks.append(
                        ExperimentTask(
                            index=len(tasks),
                            workload=workload,
                            fault=spec,
                            seed=experiment_seed,
                        )
                    )
                groups.append((workload, component, indexes))

        results = executor.run_experiments(tasks)
        rows = []
        for workload, component, indexes in groups:
            injections = 0
            propagated = 0
            errors = 0
            for index in indexes:
                result = results[index]
                if not result.injected:
                    continue
                injections += 1
                if result.component_error_count > 0:
                    errors += 1
                else:
                    propagated += 1
            rows.append(
                {
                    "workload": workload.value,
                    "component": component,
                    "injections": injections,
                    "propagated": propagated,
                    "errors": errors,
                }
            )
        return rows

    @staticmethod
    def _component_kinds(component: str) -> set[str]:
        if component == "kube-controller-manager":
            return {"Pod", "ReplicaSet", "Deployment", "DaemonSet", "Endpoints", "Node"}
        if component == "kube-scheduler":
            return {"Pod"}
        return {"Pod", "Node", "Lease"}
