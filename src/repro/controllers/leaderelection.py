"""Lease-based leader election.

The Kcm and the Scheduler run with a single active replica elected through a
Lease object stored, like everything else, in the data store.  Corrupting the
lease's holder identity or renew time can leave the component unable to take
(or keep) leadership — one of the Stall causes the paper identifies.
"""

from __future__ import annotations


from repro.apiserver.client import APIClient
from repro.apiserver.errors import ApiError, NotFoundError
from repro.objects.kinds import make_lease
from repro.sim.engine import Simulation

#: Default lease duration, matching the Kubernetes default of 15 s for
#: control-plane leader election; re-election after expiry therefore takes
#: roughly the 20 s the paper quotes for a Scheduler restart.
LEASE_DURATION = 15.0


class LeaderElector:
    """Acquire and renew a named leadership lease."""

    def __init__(
        self,
        sim: Simulation,
        client: APIClient,
        lease_name: str,
        identity: str,
        namespace: str = "kube-system",
        lease_duration: float = LEASE_DURATION,
    ):
        self.sim = sim
        self.client = client
        self.lease_name = lease_name
        self.identity = identity
        self.namespace = namespace
        self.lease_duration = lease_duration
        self.is_leader = False
        self.transitions = 0

    def try_acquire_or_renew(self) -> bool:
        """Attempt to acquire or renew the lease; return current leadership."""
        try:
            lease = self._get_or_create_lease()
        except ApiError:
            self.is_leader = False
            return False
        spec = lease.get("spec")
        if not isinstance(spec, dict):
            # A corrupted lease spec cannot be renewed or acquired.
            self.is_leader = False
            return False
        holder = spec.get("holderIdentity")
        renew_time = spec.get("renewTime")
        duration = spec.get("leaseDurationSeconds", self.lease_duration)
        if not isinstance(duration, (int, float)) or isinstance(duration, bool) or duration <= 0:
            duration = self.lease_duration

        now = self.sim.now
        expired = (
            holder is None
            or not isinstance(renew_time, (int, float))
            or isinstance(renew_time, bool)
            or now - renew_time > duration
        )
        if holder == self.identity or expired:
            spec["holderIdentity"] = self.identity
            spec["renewTime"] = now
            if holder != self.identity:
                spec["acquireTime"] = now
                transitions = spec.get("leaseTransitions", 0)
                spec["leaseTransitions"] = transitions + 1 if isinstance(transitions, int) else 1
            try:
                self.client.update("Lease", lease)
            except ApiError:
                self.is_leader = False
                return False
            if not self.is_leader:
                self.transitions += 1
            self.is_leader = True
            return True
        self.is_leader = False
        return False

    def release(self) -> None:
        """Voluntarily give up leadership (used on component restart)."""
        self.is_leader = False
        try:
            lease = self.client.get("Lease", self.lease_name, namespace=self.namespace)
        except ApiError:
            return
        spec = lease.get("spec")
        if isinstance(spec, dict) and spec.get("holderIdentity") == self.identity:
            spec["holderIdentity"] = None
            spec["renewTime"] = None
            try:
                self.client.update("Lease", lease)
            except ApiError:
                pass

    def _get_or_create_lease(self) -> dict:
        try:
            return self.client.get("Lease", self.lease_name, namespace=self.namespace)
        except NotFoundError:
            lease = make_lease(
                self.lease_name,
                namespace=self.namespace,
                duration_seconds=int(self.lease_duration),
            )
            return self.client.create("Lease", lease)
