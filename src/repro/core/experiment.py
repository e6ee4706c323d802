"""A single fault/error injection experiment, end to end.

One experiment follows the workflow of paper §IV-C / Figure 4: build a fresh
cluster, set up the scenario objects the workload needs, start the
application client, arm the injector, execute the orchestration workload,
let the cluster settle, then collect and classify the observables.  Golden
runs are the same flow without arming the injector.

Everything before the arming — boot, scenario set-up, set-up window — is the
run's *prefix*, and it is a function of the configuration and the workload
alone: it draws from no RNG stream.  A runner simulates each workload's
prefix once, keeps it as a :class:`Prefix` snapshot, and starts every run of
the workload from a copy of it (docs/INVARIANTS.md, "The prefix is a function
of (config, workload)").

A simulated run is split in two: its :class:`Trajectory`, everything the
run did that its seed does not change, and the latency draws of its
application client, the only thing the seed changes.  :func:`replay` turns a
(trajectory, seed) pair into the run's :class:`ExperimentResult`; every
simulated run is assembled through it, and a campaign uses it to reuse one
fault-free trajectory for the later golden runs of a workload and for the
faults that provably never fire on it (:func:`fires`).
"""

from __future__ import annotations

import copy
import weakref
import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.core.classification import (
    ClientFailure,
    ClientObservations,
    GoldenBaseline,
    OrchestratorFailure,
    OrchestratorObservations,
    classify_client,
    classify_orchestrator,
    detect_unreachable_tail,
)
from repro.core.injector import FaultSpec, InjectionChannel
from repro.hotpath import COUNTERS
from repro.workloads.workload import WorkloadKind

if TYPE_CHECKING:
    from repro.cluster.cluster import Cluster
    from repro.core.injector import MutinyInjector
    from repro.workloads.appclient import ClientRequest
    from repro.workloads.workload import KbenchDriver


@dataclass
class ExperimentConfig:
    """Timing and sizing of one experiment."""

    #: Seconds the freshly booted cluster gets to reach steady state.
    boot_seconds: float = 25.0
    #: Seconds after scenario setup before the workload/injection starts.
    setup_seconds: float = 20.0
    #: Seconds of workload + settling after the injection is armed.
    run_seconds: float = 60.0
    #: Safety cap on simulation events per run (runaway replication guard).
    max_events: int = 400_000
    #: Node targeted by the failover workload's NoExecute taint.
    failover_node: str = "worker-2"
    #: Cluster parameters.
    cluster: ClusterConfig = field(default_factory=ClusterConfig)


@dataclass
class ExperimentResult:
    """Everything recorded about one experiment."""

    workload: WorkloadKind
    fault: Optional[FaultSpec]
    seed: int
    injected: bool = False
    activated: bool = False
    dropped: bool = False
    #: Orchestrator- and client-level verdicts (None for golden runs until
    #: they are classified against a baseline).
    orchestrator_failure: Optional[OrchestratorFailure] = None
    client_failure: Optional[ClientFailure] = None
    client_zscore: float = 0.0
    #: Raw observables.
    orchestrator_observations: OrchestratorObservations = field(
        default_factory=OrchestratorObservations
    )
    client_observations: ClientObservations = field(default_factory=ClientObservations)
    latency_series: list[float] = field(default_factory=list)
    #: Errors the cluster user received from the Apiserver during the run.
    user_error_count: int = 0
    user_request_count: int = 0
    #: For component→Apiserver injections: errors logged for the injected
    #: component's requests around the injection instant (Table VI "Err").
    component_error_count: int = 0
    #: Simulated time at which the fault fired (None if it never did).
    injection_time: Optional[float] = None
    #: Pods created during the whole run (proxy for control-plane load).
    pods_created: int = 0
    #: Duration bookkeeping.
    workload_started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def user_received_error(self) -> bool:
        """True if at least one user request returned an error (Figure 7)."""
        return self.user_error_count > 0


@dataclass(frozen=True)
class ExperimentTask:
    """One fully-specified experiment: the unit of a campaign plan and of
    parallel work."""

    #: Position in the campaign plan; results are merged back in this order.
    index: int
    workload: WorkloadKind
    fault: FaultSpec
    #: The experiment's simulation seed, fixed at planning time so the
    #: outcome does not depend on which worker executes the task.
    seed: int


@dataclass
class RecordedField:
    """One field observed in a golden-run Apiserver→etcd message."""

    kind: str
    name: str
    namespace: Optional[str]
    path: str
    value_type: str
    example_value: Any


class EtcdMessage(NamedTuple):
    """One Apiserver→etcd message as the write hook saw it: what the
    injector matches on (it reads ``kind``, ``name`` and ``namespace`` off
    its context argument) and the bytes."""

    kind: str
    name: str
    namespace: Optional[str]
    data: bytes


@dataclass
class Trajectory:
    """Everything one simulated run did that its seed does not change.

    A run's seed draws only its application client's latency jitter
    (docs/INVARIANTS.md, "The seed draws only client latency"), so the
    trajectory plus a seed gives the whole result (:func:`replay`).  It
    lives in memory only: no store, plan or fingerprint holds one.
    """

    workload: WorkloadKind
    #: The client's requests without their jitter, in send order.
    requests: list["ClientRequest"]
    orchestrator_observations: OrchestratorObservations
    user_request_count: int
    user_error_count: int
    workload_started_at: float
    finished_at: float
    #: What the armed injector did (all unset on a fault-free run).
    injected: bool = False
    activated: bool = False
    dropped: bool = False
    injection_time: Optional[float] = None
    component_error_count: int = 0
    #: The RNG streams the run drew from.
    rng_streams: tuple[str, ...] = ()
    #: What the etcd hook saw in the armed window, kept only by a run that
    #: recorded it: each message's kind, name, namespace and length, and
    #: all their bytes back to back, zlib-compressed (about 17× smaller; a
    #: campaign holds every workload's trajectory at once).
    message_heads: list[tuple[str, str, Optional[str], int]] = field(default_factory=list)
    message_bytes: bytes = b""

    @property
    def replayable(self) -> bool:
        """Whether the run drew only latency jitter, so another seed's run
        takes the same trajectory."""
        from repro.network.network import LATENCY_STREAM

        return set(self.rng_streams) <= {LATENCY_STREAM}

    def record_messages(self, messages: Sequence[EtcdMessage]) -> None:
        """Keep ``messages`` in the packed form above."""
        self.message_heads = [
            (kind, name, namespace, len(data)) for kind, name, namespace, data in messages
        ]
        self.message_bytes = zlib.compress(b"".join(message.data for message in messages), 1)

    def etcd_messages(self) -> Callable[[], Iterator[EtcdMessage]]:
        """A function that iterates the recorded etcd messages in order.

        The bytes are decompressed once, here; each iteration slices one
        message at a time out of them, so a caller walking the messages
        once per fault never holds them all as separate objects.
        """
        data = zlib.decompress(self.message_bytes) if self.message_bytes else b""
        heads = self.message_heads

        def messages() -> Iterator[EtcdMessage]:
            offset = 0
            for kind, name, namespace, length in heads:
                yield EtcdMessage(kind, name, namespace, data[offset : offset + length])
                offset += length

        return messages


def replay(
    trajectory: Trajectory, seed: int, fault: Optional[FaultSpec] = None
) -> ExperimentResult:
    """The result of the run at ``seed`` that took ``trajectory``.

    The one assembly of a result: a simulated run is assembled here from its
    own trajectory, and a replayed one from the trajectory it provably
    shares (labelled with ``fault``, which never fired on it).
    """
    from repro.workloads.appclient import ApplicationClient

    client = ApplicationClient.replay(trajectory.requests, seed)
    observations = replace(trajectory.orchestrator_observations)
    result = ExperimentResult(
        workload=trajectory.workload,
        fault=fault,
        seed=seed,
        injected=trajectory.injected,
        activated=trajectory.activated,
        dropped=trajectory.dropped,
        orchestrator_observations=observations,
        user_error_count=trajectory.user_error_count,
        user_request_count=trajectory.user_request_count,
        component_error_count=trajectory.component_error_count,
        injection_time=trajectory.injection_time,
        pods_created=observations.pods_created,
        workload_started_at=trajectory.workload_started_at,
        finished_at=trajectory.finished_at,
    )
    # Client-level observations; one latency series under both names.
    client_observations = result.client_observations
    client_observations.latency_series = result.latency_series = client.time_series()
    client_observations.error_count = len(client.error_samples())
    client_observations.error_bursts = client.error_burst_count()
    client_observations.total_requests = len(client.samples)
    ordered = sorted(client.samples, key=lambda sample: sample.time)
    client_observations.unreachable_from_some_point = detect_unreachable_tail(
        [sample.success for sample in ordered]
    )
    return result


def fires(trajectory: Trajectory, faults: Sequence[FaultSpec]) -> list[bool]:
    """For each fault, whether it would change a run that took ``trajectory``.

    A fresh injector armed with the fault is fed the recorded etcd messages
    in order.  While its hook hands every message back unchanged, the run
    stays on the recorded trajectory message by message, so if it never
    does, the fault never fires in the simulated run either.  Component→
    Apiserver faults count as firing: their hook re-decodes every request,
    so a fault that never fires does not imply the same trajectory.
    """
    from repro.core.injector import MutinyInjector

    messages = trajectory.etcd_messages()

    def changes_a_message(fault: FaultSpec) -> bool:
        if fault.channel is not InjectionChannel.APISERVER_TO_ETCD:
            return True
        injector = MutinyInjector()
        injector.arm(fault)
        for message in messages():
            # The message doubles as the hook's context (kind, name, namespace).
            if injector.etcd_write_hook(message, message.data) is not message.data:
                return True
        return injector.injected

    return [changes_a_message(fault) for fault in faults]


@dataclass(frozen=True)
class GoldenRunStats:
    """The per-run observables a golden baseline is assembled from (small
    and picklable: what a pool worker ships back instead of the result)."""

    latency_series: tuple
    pods_created: int
    settle_time: Optional[float]
    client_errors: int

    @classmethod
    def of(cls, result: ExperimentResult) -> "GoldenRunStats":
        return cls(
            latency_series=tuple(result.latency_series),
            pods_created=result.pods_created,
            settle_time=result.orchestrator_observations.settle_time,
            client_errors=result.client_observations.error_count,
        )


class Prefix:
    """A workload's live cluster and driver at the armed point, kept so that
    every run of the workload starts from a copy of them.

    A copy shares with the snapshot what nothing edits once stored (the
    Apiserver's cached objects and its request records); it carries the
    position of the UID counter, and takes its run's seed on
    :meth:`start`.
    """

    __slots__ = ("cluster", "driver", "uid_position", "_shared")

    def __init__(self, cluster: "Cluster", driver: "KbenchDriver"):
        from repro.objects.meta import uid_position

        self.cluster = cluster
        self.driver = driver
        self.uid_position = uid_position()
        self._shared = {id(obj): obj for obj in cluster.apiserver.cached_objects()}

    @staticmethod
    def copyable(cluster: "Cluster") -> bool:
        """The guard: a copy of ``cluster`` runs as the original would at
        any seed only when its prefix drew from no RNG stream and every
        pending callback is a bound method (which a copy rebinds)."""
        return not cluster.sim.rng.streams() and cluster.sim.rebinds_on_copy()

    def start(self, seed: int) -> tuple["Cluster", "KbenchDriver"]:
        """A copy of the snapshot as the prefix of the run at ``seed``."""
        from repro.objects.meta import reset_uid_counter

        cluster, driver = copy.deepcopy((self.cluster, self.driver), dict(self._shared))
        reset_uid_counter(self.uid_position)
        cluster.config.seed = seed
        cluster.sim.rng.reseed(seed)
        return cluster, driver

    def close(self) -> None:
        """Free the snapshot's cluster (:meth:`Cluster.close`); no copy is
        taken from it afterwards."""
        self.cluster.close()


def close_prefixes(prefixes: dict[WorkloadKind, Prefix]) -> None:
    """Close and forget every snapshot in ``prefixes``: the one exit of a
    dropped set of snapshots, a runner's own or a campaign executor's."""
    for snapshot in prefixes.values():
        snapshot.close()
    prefixes.clear()


class ExperimentRunner:
    """Runs golden runs and injection experiments.

    The simulator is imported by the methods that build a cluster, so a
    process that only stores, reads or serves results (``serve``,
    ``inspect``, ``federate``) never loads it.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        prefixes: Optional[dict[WorkloadKind, Prefix]] = None,
    ):
        self.config = config if config is not None else ExperimentConfig()
        #: Each workload's prefix snapshot, taken by its first run: the
        #: runner's own, closed when the runner is collected, or the one a
        #: campaign executor keeps per process.
        if prefixes is None:
            prefixes = {}
            weakref.finalize(self, close_prefixes, prefixes)
        self.prefixes: dict[WorkloadKind, Prefix] = prefixes
        #: The trajectory of the last run this runner simulated (with its
        #: etcd messages when that run had an ``etcd_observer``).
        self.last_trajectory: Optional[Trajectory] = None

    # ------------------------------------------------------------------ runs

    def run_golden(
        self, workload: WorkloadKind, seed: int = 0, etcd_observer=None
    ) -> ExperimentResult:
        """Run one golden (fault-free) run of the given workload.

        ``etcd_observer`` is an optional callable ``(context, data) -> None``
        invoked for every Apiserver→etcd transaction; the campaign manager
        uses it to record the fields that appear in golden-run messages.
        """
        return self._run(workload, fault=None, seed=seed, etcd_observer=etcd_observer)

    def run_experiment(
        self,
        workload: WorkloadKind,
        fault: FaultSpec,
        baseline: Optional[GoldenBaseline] = None,
        seed: int = 0,
    ) -> ExperimentResult:
        """Run one injection experiment and classify it against ``baseline``."""
        result = self._run(workload, fault=fault, seed=seed)
        if baseline is not None:
            self.classify(result, baseline)
        return result

    def build_baseline(
        self, workload: WorkloadKind, runs: int = 3, base_seed: int = 100
    ) -> GoldenBaseline:
        """Run ``runs`` golden runs and build the classification baseline."""
        return self.fold_baseline(
            workload,
            [
                GoldenRunStats.of(self.run_golden(workload, seed=base_seed + index))
                for index in range(runs)
            ],
        )

    def fold_baseline(
        self, workload: WorkloadKind, stats: Sequence[GoldenRunStats]
    ) -> GoldenBaseline:
        """The one fold from golden-run observables to the baseline, shared
        by the serial path above and the fanned-out campaign preparation
        (so fanning the golden runs out changes nothing about it)."""
        expected = self._expected_replicas(workload)
        settle_times = [s.settle_time for s in stats if s.settle_time is not None]
        return GoldenBaseline.from_golden_runs(
            workload=workload.value,
            series=[list(s.latency_series) for s in stats],
            expected_replicas=expected,
            expected_endpoints=expected,
            pods_created=[s.pods_created for s in stats],
            settle_times=settle_times if settle_times else [self.config.run_seconds],
            client_errors=[s.client_errors for s in stats],
        )

    @staticmethod
    def classify(result: ExperimentResult, baseline: GoldenBaseline) -> ExperimentResult:
        """Classify a result in place against the golden baseline."""
        result.orchestrator_failure = classify_orchestrator(
            result.orchestrator_observations, baseline
        )
        result.client_failure, result.client_zscore = classify_client(
            result.client_observations, baseline
        )
        return result

    @staticmethod
    def _expected_replicas(workload: WorkloadKind) -> int:
        if workload == WorkloadKind.SCALE_UP:
            return 2 * 5
        return 3 * 2

    # ------------------------------------------------------------------ guts

    def prefix(self, workload: WorkloadKind, seed: int) -> tuple["Cluster", "KbenchDriver"]:
        """The live cluster and driver of the run at ``seed``, at the point
        where the injector is armed: a copy of the workload's snapshot,
        which the first call simulates and keeps.  When the guard
        (:meth:`Prefix.copyable`) fails, no snapshot is kept and every call
        simulates the prefix at its own seed."""
        snapshot = self.prefixes.get(workload)
        if snapshot is None:
            cluster, driver = self._simulate_prefix(workload, seed)
            if not Prefix.copyable(cluster):
                return cluster, driver
            snapshot = self.prefixes[workload] = Prefix(cluster, driver)
        return snapshot.start(seed)

    def _simulate_prefix(
        self, workload: WorkloadKind, seed: int
    ) -> tuple["Cluster", "KbenchDriver"]:
        from repro.cluster.cluster import Cluster
        from repro.workloads.scenario import ServiceApplication
        from repro.workloads.workload import KbenchDriver

        COUNTERS.prefixes += 1
        config = self.config
        cluster_config = ClusterConfig(**vars(config.cluster))
        cluster_config.seed = seed
        cluster = Cluster(cluster_config)
        cluster.boot(stabilization_seconds=config.boot_seconds)

        user_client = cluster.user_client("user")
        application = ServiceApplication(user_client)
        driver = KbenchDriver(
            cluster.sim,
            user_client,
            application,
            workload,
            taint_node=config.failover_node,
        )
        driver.setup_scenario()
        cluster.run_for(config.setup_seconds, max_events=config.max_events)
        return cluster, driver

    def _run(
        self,
        workload: WorkloadKind,
        fault: Optional[FaultSpec],
        seed: int,
        etcd_observer=None,
    ) -> ExperimentResult:
        COUNTERS.experiments += 1
        cluster, driver = self.prefix(workload, seed)
        try:
            trajectory = self._simulate(cluster, driver, workload, fault, etcd_observer)
        finally:
            cluster.close()
        self.last_trajectory = trajectory
        return replay(trajectory, seed, fault)

    def _simulate(
        self,
        cluster: "Cluster",
        driver: "KbenchDriver",
        workload: WorkloadKind,
        fault: Optional[FaultSpec],
        etcd_observer,
    ) -> Trajectory:
        """Arm or record, then run the workload's window on a prefix and
        collect what the run did."""
        from repro.workloads.appclient import ApplicationClient

        config = self.config
        expected_replicas = self._expected_replicas(workload)
        client = ApplicationClient(
            cluster.sim, cluster.network, expected_backends=expected_replicas
        )

        injector: Optional[MutinyInjector] = None
        messages: list[EtcdMessage] = []
        if fault is not None:
            injector = self._arm(cluster, fault)
        elif etcd_observer is not None:
            # Field recording observes the same channel, over the same window,
            # that the injector would tamper with: from the end of the scenario
            # setup until the end of the run.  The messages are kept for
            # :func:`fires`.

            def observer_hook(context, data):
                etcd_observer(context, data)
                messages.append(
                    EtcdMessage(context.kind, context.name, context.namespace, data)
                )
                return data

            cluster.apiserver.set_etcd_write_hook(observer_hook)

        workload_start = cluster.sim.now
        client.start()
        driver.start()
        cluster.run_for(config.run_seconds, max_events=config.max_events)
        finished_at = cluster.sim.now

        record = injector.record if injector is not None else None
        injected = injector is not None and injector.injected
        activated = injector is not None and injector.activated
        injection_time = record.time if record is not None else None
        observations = self._collect(cluster, workload_start, expected_replicas)
        component_error_count = 0
        if fault is not None and fault.component and injection_time is not None:
            component_error_count = sum(
                1
                for logged in cluster.apiserver.request_log
                if logged.error
                and logged.actor.startswith(fault.component)
                and abs(logged.time - injection_time) <= 1.0
            )
        trajectory = Trajectory(
            workload=workload,
            requests=client.requests,
            orchestrator_observations=observations,
            # User-visible errors (Figure 7): errors returned to the cluster user.
            user_request_count=len(driver.requests),
            user_error_count=len(driver.failed_requests()),
            workload_started_at=workload_start,
            finished_at=finished_at,
            injected=injected,
            activated=activated,
            dropped=bool(record and record.dropped),
            injection_time=injection_time,
            component_error_count=component_error_count,
            rng_streams=cluster.sim.rng.streams(),
        )
        if messages:
            trajectory.record_messages(messages)
        return trajectory

    def _arm(self, cluster: Cluster, fault: FaultSpec) -> MutinyInjector:
        from repro.core.injector import MutinyInjector

        injector = MutinyInjector()
        injector.arm(fault)
        sim = cluster.sim

        if fault.channel is InjectionChannel.APISERVER_TO_ETCD:

            def etcd_hook(context, data):
                injector.set_clock(sim.now)
                return injector.etcd_write_hook(context, data)

            cluster.apiserver.set_etcd_write_hook(etcd_hook)
            return injector

        # Component→Apiserver channel: install the hook on the component's client.
        def request_hook(context, data):
            injector.set_clock(sim.now)
            return injector.component_request_hook(context, data)

        component = fault.component or ""
        if component.startswith("kube-controller-manager"):
            cluster.kcm.client.set_request_hook(request_hook)
        elif component.startswith("kube-scheduler"):
            cluster.scheduler.client.set_request_hook(request_hook)
        elif component.startswith("kubelet"):
            for kubelet in cluster.kubelets:
                if kubelet.client.component.startswith(component) or component == "kubelet":
                    kubelet.client.set_request_hook(request_hook)
        else:
            # Unknown component: hook every control-plane client.
            cluster.kcm.client.set_request_hook(request_hook)
            cluster.scheduler.client.set_request_hook(request_hook)
        return injector

    # ------------------------------------------------------------ collection

    def _collect(
        self, cluster: Cluster, workload_start: float, expected_replicas: int
    ) -> OrchestratorObservations:
        from repro.workloads.scenario import SERVICE_NAME

        observations = OrchestratorObservations()
        samples = [
            sample for sample in cluster.metrics.samples if sample.time >= workload_start - 1.0
        ]

        # Application deployments live in the default namespace.
        def app_ready(sample) -> tuple[int, int]:
            ready = 0
            desired = 0
            for key, (sample_ready, sample_desired) in sample.deployments.items():
                if key.startswith("default/"):
                    ready += sample_ready
                    desired += sample_desired
            return ready, desired

        if samples:
            final = samples[-1]
            observations.final_ready_replicas, observations.final_desired_replicas = app_ready(
                final
            )
            observations.final_endpoints = final.endpoints.get(f"default/{SERVICE_NAME}", 0)
            observations.final_total_pods = final.total_pods
            observations.peak_total_pods = max(sample.total_pods for sample in samples)
            observations.network_manager_ready = final.network_manager_ready_pods
            observations.dns_ready = final.dns_ready_pods
            observations.etcd_alarm = any(sample.etcd_alarm for sample in samples)
            observations.scrape_failures = sum(1 for sample in samples if sample.scrape_failed)
            observations.pods_created = (
                cluster.metrics.samples[-1].pods_created_cumulative
                - samples[0].pods_created_cumulative
            )
            if len(samples) >= 3:
                tail = [sample.total_pods for sample in samples[-3:]]
                observations.pod_count_growing = tail[-1] > tail[0]
            for sample in samples:
                ready, _ = app_ready(sample)
                endpoints = sample.endpoints.get(f"default/{SERVICE_NAME}", 0)
                if ready >= expected_replicas and endpoints >= expected_replicas:
                    observations.settle_time = sample.time - workload_start
                    break

        observations.expected_network_manager = len(cluster.node_names)
        observations.kcm_is_leader = cluster.kcm.is_leader
        observations.scheduler_is_leader = cluster.scheduler.elector.is_leader

        # Final reachability probes and per-pod reachability.
        probes = [
            cluster.network.request(SERVICE_NAME, expected_backends=expected_replicas)
            for _ in range(5)
        ]
        successes = sum(1 for probe in probes if probe.success)
        observations.final_reachability = successes / len(probes)

        try:
            pods = cluster.client.list("Pod", namespace="default")
        # mutiny-lint: disable=MUT005 -- deliberate: observation collection is best-effort; a failed listing yields zero-valued observations rather than a failed experiment
        except Exception:  # noqa: BLE001 - collection must never fail the experiment
            pods = []
        restarts = 0
        unreachable_running = 0
        for pod in pods:
            status = pod.get("status", {})
            if not isinstance(status, dict):
                continue
            restart_count = status.get("restartCount", 0)
            if isinstance(restart_count, int) and not isinstance(restart_count, bool):
                restarts += 1 if restart_count > 0 else 0
            if status.get("phase") == "Running" and status.get("ready"):
                if not cluster.network.pod_reachable(pod):
                    unreachable_running += 1
        observations.app_pod_restarts = restarts
        observations.unreachable_running_pods = unreachable_running

        return observations
