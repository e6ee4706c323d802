"""Mutiny: a reproduction of "Mutiny! How does Kubernetes fail, and what can
we do about it?" (DSN 2024).

The package is organised in two layers:

* substrates — a discrete-event simulated Kubernetes cluster
  (:mod:`repro.sim`, :mod:`repro.etcd`, :mod:`repro.apiserver`,
  :mod:`repro.controllers`, :mod:`repro.scheduler`, :mod:`repro.kubelet`,
  :mod:`repro.network`, :mod:`repro.cluster`, :mod:`repro.workloads`,
  :mod:`repro.monitoring`, :mod:`repro.serialization`,
  :mod:`repro.objects`);
* core — the paper's contribution (:mod:`repro.core`): the Mutiny
  injector, the fault/error injection campaign manager, the failure
  classifiers, the field-failure-data-analysis dataset and the analysis
  and reporting utilities.

The most convenient entry points are re-exported here, each imported on
first access (PEP 562): ``import repro.core.objstore`` loads the object
store, not the simulator.
"""

import importlib


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """A PEP 562 module ``__getattr__`` resolving ``exports`` on first use.

    ``exports`` maps a public name to the module defining it; the resolved
    value is cached in ``namespace`` (the package's globals), so each name
    is imported once and later lookups never reach the hook.  The packages
    that re-export names (this one, ``core``, ``service``, ``workloads``,
    ``apiserver``) all use it.
    """

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = lazy_exports(
    globals(),
    {
        "Cluster": "repro.cluster.cluster",
        "ClusterConfig": "repro.cluster.config",
        "Campaign": "repro.core.campaign",
        "CampaignConfig": "repro.core.campaign",
        "CampaignResult": "repro.core.campaign",
        "ClientFailure": "repro.core.classification",
        "OrchestratorFailure": "repro.core.classification",
        "ExperimentResult": "repro.core.experiment",
        "ExperimentRunner": "repro.core.experiment",
        "FaultSpec": "repro.core.injector",
        "FaultType": "repro.core.injector",
        "InjectionChannel": "repro.core.injector",
        "MutinyInjector": "repro.core.injector",
        "CampaignExecutor": "repro.core.parallel",
        "ExperimentTask": "repro.core.parallel",
        "ShardedResultStore": "repro.core.resultstore",
        "StoredResults": "repro.core.resultstore",
        "WorkloadKind": "repro.workloads.workload",
    },
)

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignExecutor",
    "CampaignResult",
    "ExperimentTask",
    "ClientFailure",
    "Cluster",
    "ClusterConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "FaultSpec",
    "FaultType",
    "InjectionChannel",
    "MutinyInjector",
    "OrchestratorFailure",
    "ShardedResultStore",
    "StoredResults",
    "WorkloadKind",
]

__version__ = "1.0.0"
