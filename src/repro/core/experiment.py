"""A single fault/error injection experiment, end to end.

One experiment follows the workflow of paper §IV-C / Figure 4: build a fresh
cluster, set up the scenario objects the workload needs, start the
application client, arm the injector, execute the orchestration workload,
let the cluster settle, then collect and classify the observables.  Golden
runs are the same flow without arming the injector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.cluster.cluster import Cluster, ClusterConfig
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
from repro.core.injector import FaultSpec, InjectionChannel, MutinyInjector
from repro.hotpath import COUNTERS
from repro.workloads.appclient import ApplicationClient
from repro.workloads.scenario import SERVICE_NAME, ServiceApplication
from repro.workloads.workload import KbenchDriver, WorkloadKind


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


class ExperimentRunner:
    """Runs golden runs and injection experiments."""

    def __init__(self, config: Optional[ExperimentConfig] = None):
        self.config = config if config is not None else ExperimentConfig()

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

    def _run(
        self,
        workload: WorkloadKind,
        fault: Optional[FaultSpec],
        seed: int,
        etcd_observer=None,
    ) -> ExperimentResult:
        COUNTERS.experiments += 1
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

        expected_replicas = self._expected_replicas(workload)
        client = ApplicationClient(
            cluster.sim, cluster.network, expected_backends=expected_replicas
        )

        injector: Optional[MutinyInjector] = None
        if fault is not None:
            injector = self._arm(cluster, fault)
        elif etcd_observer is not None:
            # Field recording observes the same channel, over the same window,
            # that the injector would tamper with: from the end of the scenario
            # setup until the end of the run.

            def observer_hook(context, data):
                etcd_observer(context, data)
                return data

            cluster.apiserver.set_etcd_write_hook(observer_hook)

        workload_start = cluster.sim.now
        client.start()
        driver.start()
        cluster.run_for(config.run_seconds, max_events=config.max_events)

        result = ExperimentResult(
            workload=workload,
            fault=fault,
            seed=seed,
            workload_started_at=workload_start,
            finished_at=cluster.sim.now,
        )
        if injector is not None:
            result.injected = injector.injected
            result.activated = injector.activated
            result.dropped = bool(injector.record and injector.record.dropped)
            if injector.record is not None:
                result.injection_time = injector.record.time

        self._collect(cluster, driver, client, workload_start, expected_replicas, result)

        if (
            fault is not None
            and fault.component
            and result.injection_time is not None
        ):
            result.component_error_count = sum(
                1
                for record in cluster.apiserver.request_log
                if record.error
                and record.actor.startswith(fault.component)
                and abs(record.time - result.injection_time) <= 1.0
            )
        return result

    def _arm(self, cluster: Cluster, fault: FaultSpec) -> MutinyInjector:
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
        self,
        cluster: Cluster,
        driver: KbenchDriver,
        client: ApplicationClient,
        workload_start: float,
        expected_replicas: int,
        result: ExperimentResult,
    ) -> None:
        observations = result.orchestrator_observations
        samples = [
            sample for sample in cluster.metrics.samples if sample.time >= workload_start - 1.0
        ]
        all_samples = cluster.metrics.samples

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
            if all_samples:
                observations.pods_created = (
                    all_samples[-1].pods_created_cumulative
                    - (samples[0].pods_created_cumulative if samples else 0)
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
        result.pods_created = observations.pods_created

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

        # User-visible errors (Figure 7): errors returned to the cluster user.
        result.user_request_count = len(driver.requests)
        result.user_error_count = len(driver.failed_requests())
