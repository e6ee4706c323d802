"""Failure classification.

Two levels of failures are classified after every experiment, exactly as in
paper §V-B:

* **Orchestrator-level failures (OF)** — No, Tim, LeR, MoR, Net, Sta, Out —
  computed from the monitoring samples (ready replicas, endpoints, pod
  counts, control-plane and networking health).
* **Client-level failures (CF)** — NSI, HRT, IA, SU — computed from the
  application client's latency time series via the mean absolute error
  against a golden baseline and its z-score over the golden-run MAE
  distribution.

When a run matches several categories it is assigned the most severe one;
severity increases No < Tim < LeR < MoR < Net < Sta < Out and
NSI < HRT < IA < SU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import zip_longest
from typing import Optional, Sequence

from repro.core import stats


class OrchestratorFailure(Enum):
    """Orchestrator-level failure categories (Table I(c)), in severity order."""

    NO = "No"
    TIM = "Tim"
    LER = "LeR"
    MOR = "MoR"
    NET = "Net"
    STA = "Sta"
    OUT = "Out"


class ClientFailure(Enum):
    """Client-level failure categories (Table II), in severity order."""

    NSI = "NSI"
    HRT = "HRT"
    IA = "IA"
    SU = "SU"


_OF_SEVERITY = {failure: index for index, failure in enumerate(OrchestratorFailure)}
_CF_SEVERITY = {failure: index for index, failure in enumerate(ClientFailure)}


def most_severe_of(candidates: Sequence[OrchestratorFailure]) -> OrchestratorFailure:
    """Return the most severe orchestrator failure among ``candidates``."""
    if not candidates:
        return OrchestratorFailure.NO
    return max(candidates, key=lambda failure: _OF_SEVERITY[failure])


def most_severe_cf(candidates: Sequence[ClientFailure]) -> ClientFailure:
    """Return the most severe client failure among ``candidates``."""
    if not candidates:
        return ClientFailure.NSI
    return max(candidates, key=lambda failure: _CF_SEVERITY[failure])


# --------------------------------------------------------------------------
# Golden baseline
# --------------------------------------------------------------------------


def mean_absolute_error(series: Sequence[float], baseline: Sequence[float]) -> float:
    """MAE between a run's latency series and the baseline series.

    Series are aligned by request index; the shorter one is padded with
    zeros (a missing request is a failed request).
    """
    if not series and not baseline:
        return 0.0
    return stats.mean(
        [abs(run - base) for run, base in zip_longest(series, baseline, fillvalue=0.0)]
    )


@dataclass
class GoldenBaseline:
    """Statistics extracted from the golden (fault-free) runs of one workload."""

    workload: str
    #: Average latency time series over the golden runs (by request index).
    baseline_series: list[float] = field(default_factory=list)
    #: MAE of each golden run against the baseline series.
    golden_maes: list[float] = field(default_factory=list)
    #: Steady-state application replicas expected at the end of a run.
    expected_replicas: int = 0
    #: Steady-state endpoint count of the application service.
    expected_endpoints: int = 0
    #: Total pods created during a golden run (mean and std over runs).
    pods_created_mean: float = 0.0
    pods_created_std: float = 1.0
    #: Time to reach the steady state (mean and std over golden runs).
    settle_time_mean: float = 0.0
    settle_time_std: float = 1.0
    #: Client errors observed in golden runs (the deploy workload legitimately
    #: fails requests while the service is still coming up).
    client_errors_mean: float = 0.0
    client_errors_std: float = 1.0

    @classmethod
    def from_golden_runs(
        cls,
        workload: str,
        series: list[list[float]],
        expected_replicas: int,
        expected_endpoints: int,
        pods_created: list[int],
        settle_times: list[float],
        client_errors: Optional[list[int]] = None,
    ) -> "GoldenBaseline":
        """Build the baseline from the observables of the golden runs."""
        baseline_series = stats.column_means(series)
        baseline = cls(
            workload=workload,
            baseline_series=baseline_series,
            expected_replicas=expected_replicas,
            expected_endpoints=expected_endpoints,
        )
        baseline.golden_maes = [mean_absolute_error(run, baseline_series) for run in series]
        if pods_created:
            baseline.pods_created_mean = stats.mean(pods_created)
            baseline.pods_created_std = max(stats.std(pods_created), 0.5)
        if settle_times:
            baseline.settle_time_mean = stats.mean(settle_times)
            baseline.settle_time_std = max(stats.std(settle_times), 0.5)
        if client_errors:
            baseline.client_errors_mean = stats.mean(client_errors)
            baseline.client_errors_std = max(stats.std(client_errors), 1.0)
        return baseline

    def mae_zscore(self, series: Sequence[float]) -> float:
        """z-score of a run's MAE against the golden-run MAE distribution.

        The golden MAE spread is floored so that the handful of golden runs
        used to build the baseline does not produce a degenerate (near-zero)
        standard deviation and inflate every z-score.
        """
        mae = mean_absolute_error(series, self.baseline_series)
        if not self.golden_maes:
            return 0.0
        mean = stats.mean(self.golden_maes)
        std = stats.std(self.golden_maes)
        std = max(std, 0.25 * mean, 0.008)
        return (mae - mean) / std

    def settle_time_zscore(self, settle_time: Optional[float]) -> float:
        """z-score of a run's settle time against the golden distribution."""
        if settle_time is None:
            return float("inf")
        return (settle_time - self.settle_time_mean) / max(self.settle_time_std, 1e-6)


# --------------------------------------------------------------------------
# Orchestrator-level classification
# --------------------------------------------------------------------------


@dataclass
class OrchestratorObservations:
    """Observables extracted from one run, used for OF classification."""

    #: Application-service ready replicas at the end of the run.
    final_ready_replicas: int = 0
    #: Application-service desired replicas at the end of the run.
    final_desired_replicas: int = 0
    #: Application-service endpoint addresses at the end of the run.
    final_endpoints: int = 0
    #: Peak total pod count observed.
    peak_total_pods: int = 0
    #: Total pod count at the end of the run.
    final_total_pods: int = 0
    #: Total distinct pods created during the run.
    pods_created: int = 0
    #: Whether the pod count was still growing at the end of the run.
    pod_count_growing: bool = False
    #: Ready networking-manager pods at the end of the run.
    network_manager_ready: int = 0
    #: Ready DNS pods at the end of the run.
    dns_ready: int = 0
    #: Expected number of networking-manager pods (== nodes).
    expected_network_manager: int = 0
    #: Whether the Kcm or Scheduler held leadership at the end of the run.
    kcm_is_leader: bool = True
    scheduler_is_leader: bool = True
    #: Whether the data store hit its space alarm.
    etcd_alarm: bool = False
    #: Whether any monitoring scrape failed (control plane unreachable).
    scrape_failures: int = 0
    #: Whether any application pod restarted.
    app_pod_restarts: int = 0
    #: Time at which the application reached its desired replica count
    #: (None if it never did).
    settle_time: Optional[float] = None
    #: Fraction of client requests that could reach the service at the end.
    final_reachability: float = 1.0
    #: Number of application pods running but not reachable at the end.
    unreachable_running_pods: int = 0


def classify_orchestrator(
    observations: OrchestratorObservations, baseline: GoldenBaseline
) -> OrchestratorFailure:
    """Classify the orchestrator-level failure of one run (paper §V-B rules)."""
    candidates: list[OrchestratorFailure] = []
    expected = baseline.expected_replicas

    # --- Out: the cluster can no longer serve; DNS or networking collapsed,
    # or (nearly) every service lost its endpoints.
    networking_collapsed = (
        observations.expected_network_manager > 0 and observations.network_manager_ready == 0
    )
    dns_collapsed = observations.dns_ready == 0
    all_services_down = (
        expected > 0 and observations.final_endpoints == 0 and observations.final_reachability == 0.0
    )
    if dns_collapsed or (networking_collapsed and observations.final_reachability < 0.5) or all_services_down:
        candidates.append(OrchestratorFailure.OUT)

    # --- Sta: uncontrolled pod spawn, stuck control plane, or failed
    # networking pods (while running services keep working).
    uncontrolled_spawn = (
        observations.pods_created > baseline.pods_created_mean + 8 * baseline.pods_created_std
        and observations.pod_count_growing
    ) or observations.etcd_alarm
    control_plane_stuck = (
        not observations.kcm_is_leader
        or not observations.scheduler_is_leader
        or observations.scrape_failures > 2
    )
    networking_degraded = (
        observations.expected_network_manager > 0
        and observations.network_manager_ready < observations.expected_network_manager
    )
    if uncontrolled_spawn or control_plane_stuck or networking_degraded:
        candidates.append(OrchestratorFailure.STA)

    # --- Net: the right number of pods, but some are not reachable / not
    # load-balanced.
    replicas_correct = observations.final_ready_replicas >= expected
    if replicas_correct and (
        observations.final_endpoints < baseline.expected_endpoints
        or observations.unreachable_running_pods > 0
    ):
        candidates.append(OrchestratorFailure.NET)

    # --- MoR / LeR: stable over- or under-provisioning.
    if observations.final_ready_replicas > expected or (
        observations.pods_created > baseline.pods_created_mean + 3 * baseline.pods_created_std
        and not observations.pod_count_growing
    ):
        candidates.append(OrchestratorFailure.MOR)
    if expected > 0 and observations.final_ready_replicas < expected:
        candidates.append(OrchestratorFailure.LER)

    # --- Tim: restarts or significantly delayed settle time.
    if observations.app_pod_restarts > 0:
        candidates.append(OrchestratorFailure.TIM)
    elif baseline.settle_time_mean > 0:
        zscore = baseline.settle_time_zscore(observations.settle_time)
        if zscore > 3.0:
            candidates.append(OrchestratorFailure.TIM)

    return most_severe_of(candidates)


# --------------------------------------------------------------------------
# Client-level classification
# --------------------------------------------------------------------------


@dataclass
class ClientObservations:
    """Observables extracted from the application client of one run."""

    latency_series: list[float] = field(default_factory=list)
    error_count: int = 0
    error_bursts: int = 0
    total_requests: int = 0
    #: True if every request failed from some instant until the end of the run.
    unreachable_from_some_point: bool = False


def classify_client(
    observations: ClientObservations, baseline: GoldenBaseline
) -> tuple[ClientFailure, float]:
    """Classify the client-level failure; returns (category, MAE z-score)."""
    zscore = baseline.mae_zscore(observations.latency_series)
    candidates: list[ClientFailure] = []

    # Errors are compared against what the golden runs already show (the
    # deploy workload fails requests while the service is still coming up),
    # so only an error excess counts as intermittent availability.
    error_threshold = baseline.client_errors_mean + max(
        3.0, 2.0 * baseline.client_errors_std
    )
    excess_errors = observations.error_count > error_threshold

    if observations.unreachable_from_some_point and excess_errors:
        candidates.append(ClientFailure.SU)
    if excess_errors and not observations.unreachable_from_some_point:
        candidates.append(ClientFailure.IA)
    if zscore > 2.0:
        candidates.append(ClientFailure.HRT)

    return most_severe_cf(candidates), zscore


# --------------------------------------------------------------------------
# Streaming classification tallies
# --------------------------------------------------------------------------


@dataclass
class CampaignTally:
    """Incrementally folded classification tallies of a campaign.

    Everything the paper's tables aggregate from a campaign — Table IV/V
    rows, the Table III matrix, the OF/CF counts of the CLI summary, the
    activation rate — folds one result at a time, so a streaming result
    store can be tallied without ever materializing the campaign.
    """

    total: int = 0
    injected: int = 0
    activated: int = 0
    #: Experiments in the paper's critical set (Sta, Out, or SU).
    critical: int = 0
    #: (workload, injection family) -> OF value -> count (Table IV).
    of_counts: dict = field(default_factory=dict)
    #: (workload, injection family) -> CF value -> count (Table V).
    cf_counts: dict = field(default_factory=dict)
    #: workload -> OF value -> CF value -> count (Table III, per workload).
    matrices: dict = field(default_factory=dict)
    #: "OF/CF" -> count (CLI summary and drift checks).
    pair_counts: dict = field(default_factory=dict)

    def update(self, result, family: str) -> None:
        """Fold one experiment result (``family`` is its injection family)."""
        self.total += 1
        if result.injected:
            self.injected += 1
            if result.activated:
                self.activated += 1
        of = result.orchestrator_failure
        cf = result.client_failure
        if of in (OrchestratorFailure.STA, OrchestratorFailure.OUT) or cf == ClientFailure.SU:
            self.critical += 1

        key = (result.workload.value, family)
        of_row = self.of_counts.setdefault(
            key, {failure.value: 0 for failure in OrchestratorFailure}
        )
        if of is not None:
            of_row[of.value] += 1
        cf_row = self.cf_counts.setdefault(
            key, {failure.value: 0 for failure in ClientFailure}
        )
        if cf is not None:
            cf_row[cf.value] += 1

        if of is not None and cf is not None:
            matrix = self.matrices.setdefault(
                result.workload.value,
                {o.value: {c.value: 0 for c in ClientFailure} for o in OrchestratorFailure},
            )
            matrix[of.value][cf.value] += 1

        pair = f"{of.value if of else '-'}/{cf.value if cf else '-'}"
        self.pair_counts[pair] = self.pair_counts.get(pair, 0) + 1

    def matrix(self, workload: Optional[str] = None) -> dict[str, dict[str, int]]:
        """The OF→CF matrix, summed over all workloads or for one of them."""
        combined = {
            of.value: {cf.value: 0 for cf in ClientFailure} for of in OrchestratorFailure
        }
        for workload_value, matrix in self.matrices.items():
            if workload is not None and workload_value != workload:
                continue
            for of_value, row in matrix.items():
                for cf_value, count in row.items():
                    combined[of_value][cf_value] += count
        return combined

    def activation_rate(self) -> float:
        """Fraction of injected experiments whose target was used afterwards."""
        if not self.injected:
            return 0.0
        return self.activated / self.injected

    def classification_counts(self) -> dict[str, int]:
        """Failure-class counts keyed ``"OF/CF"``, sorted by key."""
        return dict(sorted(self.pair_counts.items()))


def detect_unreachable_tail(samples_success: Sequence[bool], min_tail: int = 10) -> bool:
    """True if requests fail from some point until the end of the series."""
    if not samples_success:
        return False
    tail_failures = 0
    for success in reversed(list(samples_success)):
        if success:
            break
        tail_failures += 1
    return tail_failures >= min_tail
