"""Mutiny — the paper's contribution.

* :mod:`repro.core.injector` — the fault/error injector (where / what / when).
* :mod:`repro.core.campaign` — golden-run field recording and campaign
  generation / execution (§IV-C).
* :mod:`repro.core.experiment` — a single injection experiment end to end.
* :mod:`repro.core.parallel` — process-parallel campaign execution with
  chunked progress reporting.
* :mod:`repro.core.resultstore` — the streaming sharded (gzip JSONL)
  result store backing paper-scale campaigns.
* :mod:`repro.core.classification` — orchestrator-level and client-level
  failure classification (§V-B).
* :mod:`repro.core.ffda` — the field-failure-data-analysis taxonomy and the
  coded real-world incident dataset (§III, Tables I and VII).
* :mod:`repro.core.analysis` — critical-field, user-error and propagation
  analyses (F2, F4, Table VI, Figures 6 and 7).
* :mod:`repro.core.report` — renderers for every table and figure.

The names below are imported on first access, like the package root's.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(
    globals(),
    {
        "Campaign": "repro.core.campaign",
        "CampaignConfig": "repro.core.campaign",
        "CampaignResult": "repro.core.campaign",
        "ClientFailure": "repro.core.classification",
        "GoldenBaseline": "repro.core.classification",
        "OrchestratorFailure": "repro.core.classification",
        "ExperimentResult": "repro.core.experiment",
        "ExperimentRunner": "repro.core.experiment",
        "FaultSpec": "repro.core.injector",
        "FaultType": "repro.core.injector",
        "InjectionChannel": "repro.core.injector",
        "MutinyInjector": "repro.core.injector",
        "CampaignExecutor": "repro.core.parallel",
        "ExperimentTask": "repro.core.parallel",
        "ResultStoreMismatchError": "repro.core.resultstore",
        "ShardedResultStore": "repro.core.resultstore",
        "StoredResults": "repro.core.resultstore",
    },
)

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignExecutor",
    "CampaignResult",
    "ClientFailure",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentTask",
    "FaultSpec",
    "FaultType",
    "GoldenBaseline",
    "InjectionChannel",
    "MutinyInjector",
    "OrchestratorFailure",
    "ResultStoreMismatchError",
    "ShardedResultStore",
    "StoredResults",
]
