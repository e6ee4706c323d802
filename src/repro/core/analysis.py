"""Post-campaign analyses.

Implements the analyses of paper §V-C:

* critical-field analysis (F2) — which fields caused the most severe
  failures, and what fraction of those fields track dependency relationships
  between resource instances;
* user-error analysis (F4 / Figure 7) — how often the cluster user received
  an error for experiments that ended in each orchestrator failure category;
* client-impact analysis (Figure 6) — the distribution of client latency
  z-scores per orchestrator failure category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core import stats
from repro.core.classification import ClientFailure, OrchestratorFailure
from repro.core.experiment import ExperimentResult

#: Field-path fragments that track dependency relationships among resource
#: instances (labels, selectors, owner references, target references).
DEPENDENCY_FIELD_MARKERS = (
    "labels",
    "selector",
    "ownerReferences",
    "targetRef",
    "managed-by",
    "matchLabels",
    "matchExpressions",
)

#: Field-path fragments used by Kubernetes to identify a resource instance.
IDENTITY_FIELD_MARKERS = ("name", "namespace", "uid")

#: Field-path fragments related to networking.
NETWORKING_FIELD_MARKERS = ("ip", "port", "protocol", "clusterip", "podcidr", "address", "host")

#: Field-path fragments related to replica counts and images/commands.
REPLICA_FIELD_MARKERS = ("replicas",)
IMAGE_FIELD_MARKERS = ("image", "command")


def categorize_field(path: Optional[str]) -> str:
    """Classify a field path into the groups of the critical-field analysis."""
    if not path:
        return "serialization/message"
    lowered = path.lower()
    if any(marker.lower() in lowered for marker in DEPENDENCY_FIELD_MARKERS):
        return "dependency"
    if any(lowered == marker or lowered.endswith("." + marker) for marker in IDENTITY_FIELD_MARKERS):
        return "identity"
    if any(marker in lowered for marker in NETWORKING_FIELD_MARKERS):
        return "networking"
    if any(marker in lowered for marker in REPLICA_FIELD_MARKERS):
        return "replicas"
    if any(marker in lowered for marker in IMAGE_FIELD_MARKERS):
        return "image/command"
    return "other"


@dataclass
class CriticalFieldReport:
    """Output of the critical-field analysis (finding F2)."""

    #: Experiments that ended in Sta, Out, or a service-unreachable client failure.
    critical_experiments: int = 0
    #: Distinct (kind, field path) pairs among those experiments.
    critical_fields: list[tuple[str, str]] = field(default_factory=list)
    #: Injection counts per field category.
    injections_per_category: dict[str, int] = field(default_factory=dict)
    #: Distinct fields per category.
    fields_per_category: dict[str, int] = field(default_factory=dict)

    @property
    def dependency_share(self) -> float:
        """Fraction of critical injections that targeted dependency-tracking fields."""
        total = sum(self.injections_per_category.values())
        if not total:
            return 0.0
        return self.injections_per_category.get("dependency", 0) / total


def is_critical(result: ExperimentResult) -> bool:
    """True if the experiment ended in Sta, Out, or SU (the paper's critical set)."""
    return (
        result.orchestrator_failure in (OrchestratorFailure.STA, OrchestratorFailure.OUT)
        or result.client_failure == ClientFailure.SU
    )


def critical_field_analysis(results: Iterable[ExperimentResult]) -> CriticalFieldReport:
    """Run the critical-field analysis over a set of experiment results."""
    report = CriticalFieldReport()
    seen_fields: set[tuple[str, str]] = set()
    fields_by_category: dict[str, set[tuple[str, str]]] = {}
    for result in results:
        if result.fault is None or not is_critical(result):
            continue
        report.critical_experiments += 1
        category = categorize_field(result.fault.field_path)
        report.injections_per_category[category] = (
            report.injections_per_category.get(category, 0) + 1
        )
        key = (result.fault.kind, result.fault.field_path or "<message>")
        seen_fields.add(key)
        fields_by_category.setdefault(category, set()).add(key)
    report.critical_fields = sorted(seen_fields)
    report.fields_per_category = {
        category: len(fields) for category, fields in fields_by_category.items()
    }
    return report


@dataclass
class UserErrorReport:
    """Output of the user-error analysis (finding F4 / Figure 7)."""

    #: Per orchestrator-failure category: (total experiments, experiments in
    #: which the cluster user received an error).
    per_failure: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def silent_failure_fraction(self) -> float:
        """Fraction of failed experiments (OF != No) with no user-visible error."""
        failed = 0
        silent = 0
        for failure, (total, errored) in self.per_failure.items():
            if failure == OrchestratorFailure.NO.value:
                continue
            failed += total
            silent += total - errored
        if not failed:
            return 0.0
        return silent / failed


def user_error_analysis(results: Iterable[ExperimentResult]) -> UserErrorReport:
    """Count user-visible errors per orchestrator failure category."""
    report = UserErrorReport()
    for result in results:
        if result.orchestrator_failure is None:
            continue
        key = result.orchestrator_failure.value
        total, errored = report.per_failure.get(key, (0, 0))
        report.per_failure[key] = (total + 1, errored + (1 if result.user_received_error else 0))
    return report


@dataclass
class ClientImpactReport:
    """Output of the client-impact analysis (Figure 6)."""

    #: Per orchestrator-failure category: list of client MAE z-scores.
    zscores: dict[str, list[float]] = field(default_factory=dict)

    def summary(self) -> dict[str, dict[str, float]]:
        """Median / p90 / max z-score per failure category."""
        out: dict[str, dict[str, float]] = {}
        for failure, scores in self.zscores.items():
            if not scores:
                continue
            out[failure] = {
                "count": float(len(scores)),
                "median": stats.median(scores),
                "p90": stats.percentile(scores, 90),
                "max": float(max(scores)),
            }
        return out


def client_impact_analysis(results: Iterable[ExperimentResult]) -> ClientImpactReport:
    """Collect client z-scores per orchestrator failure category."""
    report = ClientImpactReport()
    for result in results:
        if result.orchestrator_failure is None:
            continue
        report.zscores.setdefault(result.orchestrator_failure.value, []).append(
            result.client_zscore
        )
    return report


def no_effect_fraction(results: Iterable[ExperimentResult]) -> float:
    """Fraction of injection experiments classified No (paper: ~70%).

    Folds streamingly: a store-backed result iterator is consumed one
    result at a time, never materialized.
    """
    total = 0
    none = 0
    for result in results:
        total += 1
        if result.orchestrator_failure == OrchestratorFailure.NO:
            none += 1
    if not total:
        return 0.0
    return none / total


def system_wide_fraction(results: Iterable[ExperimentResult]) -> float:
    """Fraction of injections that caused a system-wide failure (Sta or Out)."""
    total = 0
    critical = 0
    for result in results:
        total += 1
        if result.orchestrator_failure in (OrchestratorFailure.STA, OrchestratorFailure.OUT):
            critical += 1
    if not total:
        return 0.0
    return critical / total
