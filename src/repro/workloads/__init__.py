"""Orchestration workloads and the application client.

The workloads replicate the paper's kbench-driven benchmark (§IV-B):
*deploy* creates new Deployments, *scale-up* grows existing Deployments in
steps, and *failover* simulates a node failure through a NoExecute taint.
The application client sends a fixed-rate request stream to the service
application and records per-request latencies — the raw material of the
client-level failure classification.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(
    globals(),
    {
        "ApplicationClient": "repro.workloads.appclient",
        "RequestSample": "repro.workloads.appclient",
        "ServiceApplication": "repro.workloads.scenario",
        "KbenchDriver": "repro.workloads.workload",
        "WorkloadKind": "repro.workloads.workload",
    },
)

__all__ = [
    "ApplicationClient",
    "KbenchDriver",
    "RequestSample",
    "ServiceApplication",
    "WorkloadKind",
]
