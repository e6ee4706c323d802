"""The kube-controller-manager (Kcm) and its controllers.

Each controller implements one reconciliation loop: it observes the current
state through the Apiserver, compares it with the desired state, and issues
creates/updates/deletes to converge the two, skipping a pass whose inputs
have not changed (see :mod:`repro.controllers.base`).  The
controllers are deliberately faithful to the behaviours the paper's failure
modes depend on — owner-reference adoption, label-selector matching, node
heartbeat grace periods, full-disruption mode, rolling-update bounds — so
that injected state corruption propagates the same way it does in the real
system.
"""

from repro.controllers.manager import ControllerManager
from repro.controllers.leaderelection import LeaderElector

__all__ = ["ControllerManager", "LeaderElector"]
