"""Admission control.

After authentication/authorization and before persistence, the Apiserver
runs a chain of admission plugins that can mutate or reject the object.  The
paper points out that admission control "can change the message content,
even through custom code, possibly introducing errors" — the GKE webhook
outage of Figure 2 is an admission-webhook failure.  The chain here contains
the defaulting plugins the simulator needs plus an extension point for
custom (possibly faulty) webhooks.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.objects.kinds import PRIORITY_DEFAULT

#: An admission plugin receives ``(kind, obj, operation)`` and either mutates
#: the object in place, returns None (allow), or raises ForbiddenError.
AdmissionPlugin = Callable[[str, dict, str], None]


def default_pod_fields(kind: str, obj: dict, operation: str) -> None:
    """Fill in defaults for Pods (priority, restart policy, DNS policy)."""
    del operation
    if kind != "Pod" or not isinstance(obj.get("spec"), dict):
        return
    spec = obj["spec"]
    spec.setdefault("priority", PRIORITY_DEFAULT)
    spec.setdefault("restartPolicy", "Always")
    spec.setdefault("dnsPolicy", "ClusterFirst")
    spec.setdefault("tolerations", [])
    spec.setdefault("terminationGracePeriodSeconds", 30)


def default_workload_fields(kind: str, obj: dict, operation: str) -> None:
    """Fill in defaults for workload controllers (replicas, strategy)."""
    del operation
    if kind not in ("Deployment", "ReplicaSet", "DaemonSet") or not isinstance(
        obj.get("spec"), dict
    ):
        return
    spec = obj["spec"]
    if kind in ("Deployment", "ReplicaSet"):
        spec.setdefault("replicas", 1)
    if kind == "Deployment":
        spec.setdefault(
            "strategy",
            {"type": "RollingUpdate", "rollingUpdate": {"maxUnavailable": 0, "maxSurge": 1}},
        )


class AdmissionChain:
    """Ordered chain of admission plugins applied to every write."""

    def __init__(self, plugins: Optional[list[AdmissionPlugin]] = None):
        if plugins is None:
            plugins = [default_pod_fields, default_workload_fields]
        self._plugins: list[AdmissionPlugin] = list(plugins)

    def add_plugin(self, plugin: AdmissionPlugin) -> None:
        """Append a plugin (e.g. a custom webhook) to the chain."""
        self._plugins.append(plugin)

    def admit(self, kind: str, obj: dict, operation: str) -> None:
        """Run the chain; plugins may mutate ``obj`` or raise ForbiddenError."""
        for plugin in self._plugins:
            plugin(kind, obj, operation)
