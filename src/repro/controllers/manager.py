"""The kube-controller-manager (Kcm).

Bundles the individual controllers, runs them on a periodic sync loop while
holding the leader-election lease, and supports being restarted — a stateless
component that, on restart, simply re-observes the cluster state from the
data store (paper §II-D).  Losing (or never acquiring) leadership stalls
every controller at once, one of the Stall causes in the paper's results.

Leader renewal runs on every tick; a controller's pass runs only when it may
have something to do (:class:`~repro.controllers.base.ChangeGate`): a watched
kind was written or the Apiserver restarted since its last pass, that pass
sent a request, or a key is backed off.  The renewal's ``get`` and ``update``
at the same instant are what make a skipped pass safe with respect to
availability: an unreadable store fails the renewal first.  NodeLifecycle
(heartbeats are read against the clock), Namespace and GarbageCollector (both
read Leases, which move every tick) stay level-triggered.
"""

from __future__ import annotations

from typing import Optional

from repro.apiserver.apiserver import APIServer
from repro.apiserver.client import APIClient
from repro.controllers.base import Controller
from repro.controllers.daemonset import DaemonSetController
from repro.controllers.deployment import DeploymentController
from repro.controllers.endpoints import EndpointsController
from repro.controllers.garbage_collector import GarbageCollector
from repro.controllers.leaderelection import LeaderElector
from repro.controllers.namespace import NamespaceController
from repro.controllers.node_lifecycle import NodeLifecycleController
from repro.controllers.replicaset import ReplicaSetController
from repro.sim.engine import Simulation

#: Period of the Kcm sync loop in simulated seconds.
SYNC_PERIOD = 1.0

#: Delay before a restarted Kcm replica attempts to re-acquire leadership,
#: matching the ~20 s leader re-election delay quoted in the paper.
RESTART_REELECTION_DELAY = 20.0


class ControllerManager:
    """Runs the controller loops under leader election."""

    def __init__(
        self,
        sim: Simulation,
        apiserver: APIServer,
        identity: str = "kcm-0",
        eviction_timeout: Optional[float] = None,
    ):
        self.sim = sim
        self.identity = identity
        self.client = APIClient(apiserver, component="kube-controller-manager")
        self.elector = LeaderElector(
            sim, self.client, lease_name="kube-controller-manager", identity=identity
        )
        node_lifecycle_kwargs = {}
        if eviction_timeout is not None:
            node_lifecycle_kwargs["eviction_timeout"] = eviction_timeout
        self.controllers: list[Controller] = [
            DeploymentController(sim, self.client),
            ReplicaSetController(sim, self.client),
            DaemonSetController(sim, self.client),
            EndpointsController(sim, self.client),
            NodeLifecycleController(sim, self.client, **node_lifecycle_kwargs),
            NamespaceController(sim, self.client),
            GarbageCollector(sim, self.client),
        ]
        self.restart_count = 0
        self._restarting_until = 0.0
        self._task = None

    # ---------------------------------------------------------------- control

    def start(self, period: float = SYNC_PERIOD) -> None:
        """Start the periodic sync loop."""
        self._task = self.sim.call_every(period, self.tick, delay=period, label="kcm-sync")

    def restart(self, reelection_delay: float = RESTART_REELECTION_DELAY) -> None:
        """Restart the component: drop leadership and pause reconciliation."""
        self.restart_count += 1
        self.elector.release()
        self._restarting_until = self.sim.now + reelection_delay

    # ------------------------------------------------------------------- loop

    def tick(self) -> None:
        """One sync-loop iteration: renew leadership, then run every controller."""
        if self.sim.now < self._restarting_until:
            return
        if not self.elector.try_acquire_or_renew():
            return
        for controller in self.controllers:
            controller.sync()

    @property
    def is_leader(self) -> bool:
        """Whether this replica currently holds the leader lease."""
        return self.elector.is_leader

    def stats(self) -> dict:
        """Return per-controller counters."""
        return {
            "identity": self.identity,
            "is_leader": self.is_leader,
            "restarts": self.restart_count,
            "controllers": [controller.stats() for controller in self.controllers],
        }
