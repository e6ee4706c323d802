"""Base class shared by all controllers.

A controller is a reconciliation loop: ``sync()`` observes the current state
through the API client, compares it with the desired state, and issues
writes to converge the two.  Failures are absorbed — the loop retries on a
later sync with per-key exponential backoff — because a controller
crash-looping on one bad object must not take out reconciliation of every
other object (failure isolation, paper §II-D).

Passes are edge-triggered: a controller declares the kinds it reads
(``watches``) and its pass is skipped when it provably has nothing to do
(:class:`ChangeGate`), so a change is still seen on the very next tick.  A
controller with ``watches = ()`` stays level-triggered and runs every tick.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.apiserver.client import APIClient
from repro.apiserver.errors import ApiError
from repro.sim.engine import Simulation

#: Backoff after the first consecutive reconcile failure of a key (simulated
#: seconds); each further failure doubles it, up to :data:`BACKOFF_MAX`.
BACKOFF_BASE = 1.0
BACKOFF_MAX = 30.0


def backoff_delay(failures: int) -> float:
    """Delay before retrying a key after its ``failures``-th consecutive failure."""
    return min(BACKOFF_BASE * 2 ** (failures - 1), BACKOFF_MAX)


class ChangeGate:
    """Skip a pass whose inputs have not moved since a pass that did nothing.

    The read token is the Apiserver's :meth:`~APIServer.read_token` over
    ``watches`` (plus the caller's ``extra`` state), taken at the *start* of
    the pass.  A pass is skipped only when all three hold:

    1. the token equals the token of the last pass that ran;
    2. that pass completed and sent **zero** requests (a swallowed failed
       write or a dropped message moves no revision but is in the request
       log, so "raised no error" is not enough);
    3. the caller has no backoff pending (``backed_off`` is False).

    Under those conditions the pass would read the same objects with the
    same internal state and so, being deterministic, send nothing again.
    With ``watches = ()`` every pass runs.
    """

    def __init__(self, client: APIClient, watches: tuple[str, ...]):
        self.client = client
        self.watches = watches
        self.passes = 0
        self.skipped = 0
        #: Token of the last pass that ran to completion and sent no request.
        self._quiet_token: Optional[tuple] = None

    def should_skip(self, token: tuple, backed_off: bool) -> bool:
        """The skip rule (conditions 1-3 above)."""
        return not backed_off and token == self._quiet_token

    def run(self, pass_fn: Callable[[], None], backed_off: bool = False, extra: tuple = ()) -> None:
        """Run ``pass_fn`` unless the skip rule says it has nothing to do."""
        token = None
        if self.watches:
            token = self.client.apiserver.read_token(self.watches) + extra
            if self.should_skip(token, backed_off):
                self.skipped += 1
                return
        self.passes += 1
        self._quiet_token = None
        sent = self.client.requests_sent
        pass_fn()
        if self.client.requests_sent == sent:
            self._quiet_token = token


class Controller:
    """Base reconciliation loop."""

    #: Human-readable controller name, used in logs and statistics.
    name = "controller"

    #: Kinds whose store contents decide this controller's pass; ``()`` keeps
    #: it level-triggered.
    watches: tuple[str, ...] = ()

    def __init__(self, sim: Simulation, client: APIClient):
        self.sim = sim
        self.client = client
        self.error_count = 0
        self.gate = ChangeGate(client, self.watches)
        #: Consecutive reconcile failures and backoff expiry per key.
        self._failures: dict[str, int] = {}
        self._skip_until: dict[str, float] = {}

    # ------------------------------------------------------------------ hooks

    def sync(self) -> None:
        """Run one reconciliation pass.  Subclasses override :meth:`reconcile_all`."""
        try:
            # A key stays in ``_skip_until`` until it reconciles, so a backoff
            # expiring exactly on this tick still forces the pass.
            self.gate.run(self.reconcile_all, backed_off=bool(self._skip_until))
        except ApiError:
            # A failing list/read (apiserver unhealthy, etcd stalled) aborts the
            # pass; the next periodic sync retries.
            self.error_count += 1

    def reconcile_all(self) -> None:
        """Reconcile every object the controller is responsible for."""
        raise NotImplementedError

    # -------------------------------------------------------------- utilities

    def key_backoff_active(self, key: str) -> bool:
        """True if reconciliation of ``key`` is currently backed off."""
        return self._skip_until.get(key, 0.0) > self.sim.now

    def record_key_failure(self, key: str) -> None:
        """Record a reconcile failure for ``key`` and extend its backoff."""
        self.error_count += 1
        failures = self._failures.get(key, 0) + 1
        self._failures[key] = failures
        self._skip_until[key] = self.sim.now + backoff_delay(failures)

    def record_key_success(self, key: str) -> None:
        """Clear backoff state for ``key`` after a successful reconcile."""
        self._failures.pop(key, None)
        self._skip_until.pop(key, None)

    def safe_int(self, value, default: int = 0) -> int:
        """Interpret a possibly-corrupted integer field."""
        if isinstance(value, bool) or not isinstance(value, int):
            return default
        return value

    def stats(self) -> dict:
        """Return pass/error counters for this controller."""
        return {
            "name": self.name,
            "syncs": self.gate.passes,
            "skipped": self.gate.skipped,
            "errors": self.error_count,
        }
