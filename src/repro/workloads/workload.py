"""Orchestration workloads (the kbench role).

Each workload performs cluster-user operations on the service application to
generate orchestration activity, with the parameters of the paper (§V-A):

* ``deploy`` — create three Deployments with two replicas each;
* ``scale-up`` — scale two existing Deployments from two replicas to three,
  then four, then five, with ten seconds between steps;
* ``failover`` — with three two-replica Deployments running, apply a
  NoExecute taint to one worker node so its pods are evicted and respawned.

The driver records which of its requests returned an error from the
Apiserver — the data behind the user-unawareness analysis (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.apiserver.errors import ApiError

if TYPE_CHECKING:  # annotations only: WorkloadKind alone must not load the simulator
    from repro.apiserver.client import APIClient
    from repro.sim.engine import Simulation
    from repro.workloads.scenario import ServiceApplication


class WorkloadKind(Enum):
    """The three orchestration workloads of the paper."""

    DEPLOY = "deploy"
    SCALE_UP = "scale"
    FAILOVER = "failover"


#: Seconds between the scale-up steps (paper: 10 s).
SCALE_STEP_INTERVAL = 10.0

#: How long kbench waits for a request to be visible before giving up.
REQUEST_TIMEOUT = 40.0


@dataclass
class UserRequest:
    """One cluster-user operation issued by the workload driver."""

    time: float
    operation: str
    target: str
    error: Optional[str] = None


class KbenchDriver:
    """Drives one orchestration workload as the cluster user."""

    def __init__(
        self,
        sim: Simulation,
        client: APIClient,
        application: ServiceApplication,
        kind: WorkloadKind,
        taint_node: Optional[str] = None,
    ):
        self.sim = sim
        self.client = client
        self.application = application
        self.kind = kind
        self.taint_node = taint_node
        self.requests: list[UserRequest] = []
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # ------------------------------------------------------------------ setup

    def setup_scenario(self) -> None:
        """Create the objects that must exist before the injection is armed."""
        self.application.create_shared_objects()
        if self.kind == WorkloadKind.DEPLOY:
            return
        if self.kind == WorkloadKind.SCALE_UP:
            self.application.create_deployments(count=2, replicas=2)
        elif self.kind == WorkloadKind.FAILOVER:
            self.application.create_deployments(count=3, replicas=2)

    # -------------------------------------------------------------- execution

    def start(self) -> None:
        """Schedule the workload operations on the simulation timeline."""
        self.started_at = self.sim.now
        if self.kind == WorkloadKind.DEPLOY:
            self._schedule_deploy()
        elif self.kind == WorkloadKind.SCALE_UP:
            self._schedule_scale_up()
        elif self.kind == WorkloadKind.FAILOVER:
            self._schedule_failover()

    def _schedule_deploy(self) -> None:
        for index in range(3):
            name = f"webapp-{index + 1}"
            self.sim.call_after(
                1.0 + index * 2.0,
                lambda name=name: self._create_deployment(name, replicas=2),
                label=f"kbench-deploy-{name}",
            )
        self.finished_at = self.started_at + 1.0 + 2 * 2.0

    def _schedule_scale_up(self) -> None:
        steps = [3, 4, 5]
        delay = 1.0
        for replicas in steps:
            for name in list(self.application.deployment_names):
                self.sim.call_after(
                    delay,
                    lambda name=name, replicas=replicas: self._scale(name, replicas),
                    label=f"kbench-scale-{name}-{replicas}",
                )
            delay += SCALE_STEP_INTERVAL
        self.finished_at = self.started_at + delay

    def _schedule_failover(self) -> None:
        self.sim.call_after(5.0, self._apply_taint, label="kbench-failover-taint")
        self.finished_at = self.started_at + 5.0

    # ------------------------------------------------------------- operations

    def _create_deployment(self, name: str, replicas: int) -> None:
        request = UserRequest(time=self.sim.now, operation="create-deployment", target=name)
        try:
            self.client.create("Deployment", self.application.deployment_manifest(name, replicas))
            self.application.deployment_names.append(name)
        except ApiError as exc:
            request.error = f"{exc.reason}: {exc}"
        self.requests.append(request)

    def _scale(self, name: str, replicas: int) -> None:
        request = UserRequest(
            time=self.sim.now, operation="scale-deployment", target=f"{name}={replicas}"
        )
        try:
            deployment = self.client.get(
                "Deployment", name, namespace=self.application.namespace
            )
            deployment["spec"]["replicas"] = replicas
            self.client.update("Deployment", deployment)
        except ApiError as exc:
            request.error = f"{exc.reason}: {exc}"
        self.requests.append(request)

    def _apply_taint(self) -> None:
        node_name = self.taint_node
        request = UserRequest(time=self.sim.now, operation="taint-node", target=str(node_name))
        if not node_name:
            request.error = "BadRequest: no node selected for failover"
            self.requests.append(request)
            return
        try:
            node = self.client.get("Node", node_name, namespace=None)
            taints = node.setdefault("spec", {}).setdefault("taints", [])
            if isinstance(taints, list):
                taints.append(
                    {"key": "node.kubernetes.io/unreachable", "effect": "NoExecute", "value": ""}
                )
            self.client.update("Node", node)
        except ApiError as exc:
            request.error = f"{exc.reason}: {exc}"
        self.requests.append(request)

    # ------------------------------------------------------------------ stats

    def failed_requests(self) -> list[UserRequest]:
        """Requests for which the cluster user received an error."""
        return [request for request in self.requests if request.error]

    def expected_total_replicas(self) -> int:
        """Total application replicas the user expects once the workload settles."""
        if self.kind == WorkloadKind.DEPLOY:
            return 3 * 2
        if self.kind == WorkloadKind.SCALE_UP:
            return 2 * 5
        return 3 * 2
