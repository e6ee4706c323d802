"""Distributed (multi-host) campaign execution over the sharded result store.

The shard store made gzip-JSONL shards the atomic, deterministic,
self-describing interchange format of a campaign; this module adds the only
piece multi-host scale still needed: a task-lease layer handing contiguous
plan slices to any number of worker processes that share one directory (NFS,
a bind mount, or plain local disk for same-host workers).

Protocol, in full:

* The **coordinator** prepares the golden baselines, plans the campaign, and
  publishes the frozen plan — tasks with their seeds, the baselines, the
  experiment configuration, and the campaign fingerprint — as ``PLAN.json``
  in the store root (canonical JSON of the result store's codec, atomic
  write).  Publishing into a store that already
  holds a plan is a no-op when the fingerprints match (coordinator resume)
  and a hard error when they don't (a mis-pointed directory).
* **Workers** (``python -m repro.cli worker --results-dir ...``) wait for the
  plan, then repeatedly claim one slice of contiguous plan indexes via an
  atomic lease object (``leases/slice-<id>.lease``, created with the
  transport's put-if-absent — an ``O_EXCL`` file on POSIX, a conditional PUT
  on an object store).  A claimed slice is executed through the same
  :meth:`~repro.core.parallel.CampaignExecutor.run_experiments` routine the
  local backend hands its whole plan — scan → pending → batches → shards —
  and a heartbeat thread refreshes the lease's mtime/generation while
  batches run.
* A lease whose mtime is older than its **TTL** is expired: any worker may
  reclaim it (conditional delete of the exact generation it judged expired,
  then a new put-if-absent).  A crashed or SIGKILLed worker therefore loses
  its *slice* but never its completed *shards*; the new owner re-runs only
  the indexes the store doesn't already hold.  Pick a TTL comfortably above
  the duration of one batch — an owner that loses its lease mid-batch aborts
  the slice at the next batch boundary (results are deterministic, so even
  the pathological double-execution of one in-flight batch rewrites
  byte-identical records and cannot corrupt the digest).
* A finished slice is recorded as ``leases/slice-<id>.done`` (worker
  provenance for ``repro.cli inspect``) and its lease is released.  The
  ground truth of completion is always the store itself: the coordinator
  only waits (:func:`wait_for_completion`) until ``completed_indexes()``
  covers the plan, then reads the store exactly like a local run does —
  producing a merged digest identical to a serial run of the same
  configuration.

Lease mtimes are wall-clock: hosts sharing a store should run NTP, and the
TTL should dwarf any plausible clock skew (the default is 30 s).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.core.classification import GoldenBaseline
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import (
    CampaignExecutor,
    ExperimentTask,
    ProgressCallback,
    campaign_identity,
)
from repro.core.resultstore import (
    ResultStoreMismatchError,
    ShardedResultStore,
    baseline_from_dict,
    canonical_bytes,
    config_from_dict,
    task_from_dict,
)
from repro.core.transport import TransportError, TransportKeyError, transport_for

#: Format version of the published plan (bumped on layout changes; 2 =
#: canonical JSON, fingerprint hashed over the codec's bytes).
PLAN_VERSION = 2

#: Default seconds of missed heartbeats after which a lease may be reclaimed.
DEFAULT_LEASE_TTL = 30.0

_PLAN_NAME = "PLAN.json"
_LEASE_DIR = "leases"

#: ``progress(message)`` callback for worker/coordinator narration lines.
LogCallback = Callable[[str], None]


class DistributedPlanError(ResultStoreMismatchError):
    """A published plan does not belong to (or exist for) this campaign."""


class DistributedTimeoutError(RuntimeError):
    """The coordinator (or a waiting worker) ran out of time."""


class LeaseLostError(RuntimeError):
    """A worker's slice lease was reclaimed out from under it."""


class _StallRequested(Exception):
    """Internal: the fault-injection stall knob fired (never escapes)."""


def default_slice_size(total: int) -> int:
    """Eight slices by default: coarse enough that lease traffic is noise,
    fine enough that a handful of workers load-balance."""
    return max(1, -(-total // 8))


# --------------------------------------------------------------------------
# The published plan
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanSlice:
    """One contiguous run of plan indexes: the unit of lease-based dispatch."""

    slice_id: int
    start: int  # first plan index
    stop: int  # one past the last plan index

    def indexes(self) -> range:
        return range(self.start, self.stop)


@dataclass
class DistributedPlan:
    """The frozen campaign a coordinator publishes and workers execute.

    Everything a worker needs is in here: the tasks carry their seeds (fixed
    at planning time, so outcomes cannot depend on which worker runs them),
    the baselines classify, and the fingerprint pins the store.
    """

    fingerprint: str
    experiment_config: ExperimentConfig
    tasks: list[ExperimentTask]
    baselines: dict[str, GoldenBaseline]
    slice_size: int
    #: Finished batches coalesced per stored shard object.  Published so the
    #: coordinator's ``--shard-batch`` reaches every worker; a worker's own
    #: flag overrides it.  Not part of the fingerprint — it is storage
    #: layout, never results.
    shard_batch: int = 1

    @property
    def total(self) -> int:
        return len(self.tasks)

    def slices(self) -> list[PlanSlice]:
        return [
            PlanSlice(slice_id, start, min(start + self.slice_size, self.total))
            for slice_id, start in enumerate(range(0, self.total, self.slice_size))
        ]

    def slice_tasks(self, plan_slice: PlanSlice) -> list[ExperimentTask]:
        return self.tasks[plan_slice.start : plan_slice.stop]


def _typed(payload: dict, key: str, kind: type):
    """``payload[key]``, which must be a ``kind`` (and never a bool)."""
    value = payload[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _decode_plan(payload) -> DistributedPlan:
    """The plan a decoded ``PLAN.json`` describes; KeyError, TypeError or
    ValueError when it is not one this code's :func:`publish_plan` wrote."""
    if not isinstance(payload, dict):
        raise TypeError(f"a JSON {type(payload).__name__}, not an object")
    if payload.get("version") != PLAN_VERSION:
        raise ValueError(
            f"plan format {payload.get('version')!r}, this code reads {PLAN_VERSION}: "
            "coordinator and workers must run the same code"
        )
    plan = DistributedPlan(
        fingerprint=_typed(payload, "fingerprint", str),
        experiment_config=config_from_dict(payload["experiment_config"]),
        tasks=[task_from_dict(data) for data in _typed(payload, "tasks", list)],
        baselines={
            key: baseline_from_dict(data)
            for key, data in _typed(payload, "baselines", dict).items()
        },
        slice_size=_typed(payload, "slice_size", int),
        shard_batch=_typed(payload, "shard_batch", int),
    )
    if plan.slice_size < 1 or plan.shard_batch < 1:
        raise ValueError("'slice_size' and 'shard_batch' must be >= 1")
    if [task.index for task in plan.tasks] != list(range(plan.total)):
        raise ValueError("task indexes are not 0..total-1 in plan order")
    return plan


def load_plan(root: str, transport=None) -> Optional[DistributedPlan]:
    """The published plan, or ``None`` when no coordinator has published yet.

    An unreadable plan is an error, not "no plan": the write is atomic, so a
    corrupt object means the root is not (or no longer) a campaign store and
    executing against it would waste every worker's time.  Pollers pass
    their own ``transport`` so each probe reuses one connection instead of
    building (and abandoning) a transport per poll.
    """
    try:
        raw = (transport or transport_for(root)).get(_PLAN_NAME)
    except TransportKeyError:
        return None
    try:
        return _decode_plan(json.loads(raw))
    except (KeyError, TypeError, ValueError) as error:
        raise DistributedPlanError(
            f"result store {root!r} holds an unreadable campaign plan "
            f"({type(error).__name__}: {error}); "
            "delete the store (or point --results-dir elsewhere) to start fresh"
        ) from error


def plan_generation(root: str) -> Optional[str]:
    """The published plan's generation token (``None``: no plan yet) — one
    stat, so a poller re-reads the plan only when this value changes."""
    stat = transport_for(root).stat(_PLAN_NAME)
    return stat.generation if stat is not None else None


def publish_plan(root: str, plan: DistributedPlan) -> bool:
    """Publish the frozen plan (idempotent).

    Returns ``True`` when the plan was written, ``False`` when an identical
    plan is already published (coordinator resume after its own crash).  A
    store holding a plan with a *different* fingerprint raises: silently
    replacing it would strand the workers executing the old plan.
    """
    existing = load_plan(root)
    if existing is not None:
        if existing.fingerprint != plan.fingerprint:
            raise DistributedPlanError(
                f"result store {root!r} already holds a different campaign plan; "
                "delete the directory (or point --results-dir elsewhere) to start fresh"
            )
        return False
    payload = {
        "version": PLAN_VERSION,
        "fingerprint": plan.fingerprint,
        "slice_size": plan.slice_size,
        "shard_batch": plan.shard_batch,
        **campaign_identity(plan.tasks, plan.experiment_config, plan.baselines),
    }
    transport_for(root).put(_PLAN_NAME, canonical_bytes(payload))
    return True


def wait_for_plan(
    root: str, timeout: Optional[float] = 60.0, poll_interval: float = 0.2
) -> DistributedPlan:
    """Block until a coordinator publishes the plan (workers start first)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    transport = transport_for(root)
    while True:
        plan = load_plan(root, transport=transport)
        if plan is not None:
            manifest_fp = _manifest_fingerprint(root)
            if manifest_fp is not None and manifest_fp != plan.fingerprint:
                raise DistributedPlanError(
                    f"result store {root!r} plan and manifest disagree about the "
                    "campaign fingerprint; the directory is not a usable store"
                )
            return plan
        if deadline is not None and time.monotonic() > deadline:
            raise DistributedTimeoutError(
                f"no campaign plan appeared in {root!r} within {timeout:.0f}s; "
                "is the coordinator running with --backend distributed?"
            )
        time.sleep(poll_interval)


def _manifest_fingerprint(root: str) -> Optional[str]:
    try:
        return ShardedResultStore(root).manifest().get("fingerprint")
    except (TransportKeyError, OSError, ValueError):
        return None


# --------------------------------------------------------------------------
# Slice leases
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LeaseInfo:
    """Observed state of one outstanding slice lease."""

    slice_id: int
    worker: str
    age: float  # seconds since the last heartbeat (mtime)
    ttl: float  # the TTL the *owner* promised to heartbeat within

    @property
    def expired(self) -> bool:
        return self.age > self.ttl


class SliceLeases:
    """Atomic lease objects handing plan slices to workers.

    One object per leased slice under ``<root>/leases/``: claiming is the
    transport's put-if-absent (exactly one winner per key — ``O_EXCL`` on
    POSIX, conditional PUT on an object store), liveness is the object's
    mtime (the owner's heartbeat refreshes it under a generation
    precondition), and expiry is mtime age beyond the TTL *recorded in the
    lease by its owner* — so workers with different ``--lease-ttl`` settings
    interoperate.  A finished slice turns into a ``.done`` marker carrying
    worker provenance.
    """

    # Frozen after __init__ (enforced by mutiny-lint MUT004): one instance
    # is shared lock-free with the heartbeat thread, which is only sound
    # while nothing mutates after construction.
    _lock_guarded = ()

    def __init__(self, root: str, ttl: float = DEFAULT_LEASE_TTL):
        self.root = root
        self.transport = transport_for(root)
        self.lease_dir = self.transport.locate(_LEASE_DIR)
        self.ttl = ttl

    def _lease_key(self, slice_id: int) -> str:
        return f"{_LEASE_DIR}/slice-{slice_id:05d}.lease"

    def _done_key(self, slice_id: int) -> str:
        return f"{_LEASE_DIR}/slice-{slice_id:05d}.done"

    def _lease_path(self, slice_id: int) -> str:
        return self.transport.locate(self._lease_key(slice_id))

    def _read_lease(self, slice_id: int) -> Optional[tuple[LeaseInfo, str]]:
        """The outstanding lease plus its generation token, or ``None``.

        A lease object that exists but holds no readable payload — a claimer
        died between creating the key and writing it (only possible on
        POSIX, where the two aren't one atomic operation) — still counts as
        a lease, judged against *our* TTL: treating it as absent would leave
        the slice permanently unclaimable (put-if-absent can never succeed
        against an existing key).
        """
        key = self._lease_key(slice_id)
        stat = self.transport.stat(key)
        if stat is None:
            return None
        worker = "?"
        ttl = self.ttl
        try:
            data = json.loads(self.transport.get(key))
            worker = str(data.get("worker", "?"))
            ttl = float(data.get("ttl", self.ttl))
        except (TransportKeyError, TransportError, OSError, ValueError, TypeError):
            pass  # unreadable payload: age decides, under the reader's TTL
        info = LeaseInfo(
            slice_id=slice_id,
            worker=worker,
            age=max(0.0, time.time() - stat.mtime),
            ttl=ttl,
        )
        return info, stat.generation

    # ------------------------------------------------------------- claiming

    def try_claim(self, slice_id: int, worker: str) -> bool:
        """Claim a slice: ``True`` and the caller owns it, or ``False``.

        An expired lease is reclaimed first — but only the exact generation
        that was judged expired (conditional delete), so a racing worker's
        *fresh* lease is never removed.  The microsecond stat-to-unlink
        window POSIX keeps is covered by the heartbeat ownership check: an
        owner whose lease vanishes or changes hands aborts its slice at the
        next batch boundary, and determinism makes even that overlap
        harmless.  On an object store the conditional delete is genuinely
        atomic and the window closes entirely.
        """
        if self.is_done(slice_id):
            return False
        key = self._lease_key(slice_id)
        existing = self._read_lease(slice_id)
        if existing is not None:
            info, generation = existing
            if not info.expired:
                return False
            # A lease heartbeated or replaced since we judged it has a new
            # generation and survives; we then lose the put-if-absent below.
            self.transport.delete_if_unchanged(key, generation)
        payload = json.dumps(
            {
                "worker": worker,
                "slice": slice_id,
                "ttl": self.ttl,
                "claimed_at": time.time(),
                "host": socket.gethostname(),
                "pid": os.getpid(),
            },
            sort_keys=True,
        ).encode("utf-8")
        return self.transport.put_if_absent(key, payload)

    def claim_first(self, slice_ids: Iterable[int], worker: str) -> Optional[int]:
        """One claim round: the first of ``slice_ids`` this worker could
        claim, or ``None`` when every slice is done or freshly held."""
        for slice_id in slice_ids:
            if self.try_claim(slice_id, worker):
                return slice_id
        return None

    def heartbeat(self, slice_id: int, worker: str) -> bool:
        """Refresh the lease's liveness; ``False`` means the lease was lost.

        The refresh is conditional on the generation the ownership check
        read: a lease reclaimed between the read and the refresh is left
        untouched (the new owner's clock, not ours).
        """
        key = self._lease_key(slice_id)
        try:
            data, stat = self.transport.get_with_stat(key)
            payload = json.loads(data)
        except (TransportKeyError, TransportError, OSError, ValueError):
            # A transient read failure (flaky shared filesystem, unreachable
            # object store) reports the lease as lost rather than killing
            # the heartbeat thread: the owner then aborts at the next batch
            # boundary, which determinism makes merely wasted work.
            return False
        if payload.get("worker") != worker:
            return False
        # Handing the transport the bytes we just verified lets it resolve
        # retried-request ambiguity: a refresh whose first attempt applied
        # before its response was lost re-reads the lease, and our payload
        # still being there proves the heartbeat landed — without it, one
        # dropped response made the owner wrongly surrender its slice.
        return self.transport.refresh(key, stat.generation, expected=data)

    def release(self, slice_id: int, worker: Optional[str] = None) -> None:
        """Drop the lease (idempotent).

        With ``worker`` given, the lease is removed only while that worker
        still owns it: a worker whose lease expired and was reclaimed must
        not remove the *new* owner's fresh lease on its way out — that would
        hand the slice to a third claimant while the second still runs it.
        ``worker=None`` is the unconditional administrative form.
        """
        key = self._lease_key(slice_id)
        if worker is not None:
            try:
                data, stat = self.transport.get_with_stat(key)
                if json.loads(data).get("worker") != worker:
                    return
            except (TransportKeyError, TransportError, OSError, ValueError):
                return  # absent or unreadable: nothing of ours to release
            self.transport.delete_if_unchanged(key, stat.generation)
            return
        self.transport.delete(key)

    # ------------------------------------------------------------ observing

    def lease_info(self, slice_id: int) -> Optional[LeaseInfo]:
        """The outstanding lease on a slice, or ``None``."""
        existing = self._read_lease(slice_id)
        return existing[0] if existing is not None else None

    def outstanding(self) -> list[LeaseInfo]:
        """Every lease currently outstanding, in slice order."""
        infos = []
        # list_iter: the lease directory of a huge campaign pages through
        # bounded listing requests instead of one unbounded response.
        for key in self.transport.list_iter(f"{_LEASE_DIR}/slice-"):
            name = key.rpartition("/")[2]
            if not name.endswith(".lease"):
                continue
            try:
                slice_id = int(name[len("slice-") : -len(".lease")])
            except ValueError:
                continue
            info = self.lease_info(slice_id)
            if info is not None:
                infos.append(info)
        return infos

    # ----------------------------------------------------------- completion

    def mark_done(self, slice_id: int, worker: str, start: int, stop: int, executed: int) -> None:
        """Record slice completion (+ provenance) and release the lease."""
        payload = {
            "worker": worker,
            "slice": slice_id,
            "start": start,
            "stop": stop,
            "executed": executed,
            "finished_at": time.time(),
        }
        self.transport.put(
            self._done_key(slice_id),
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
        )
        self.release(slice_id, worker)

    def is_done(self, slice_id: int) -> bool:
        return self.transport.stat(self._done_key(slice_id)) is not None

    def done_records(self) -> list[dict]:
        """Every completion marker, in slice order (inspect provenance)."""
        records = []
        for key in self.transport.list_iter(f"{_LEASE_DIR}/slice-"):
            if not key.endswith(".done"):
                continue
            try:
                records.append(json.loads(self.transport.get(key)))
            except (TransportKeyError, TransportError, OSError, ValueError):
                continue
        return records


# --------------------------------------------------------------------------
# Worker
# --------------------------------------------------------------------------


@dataclass
class WorkerReport:
    """What one worker loop accomplished before exiting."""

    worker_id: str
    slices_completed: int
    experiments_run: int


class DistributedWorker:
    """The claim-execute-heartbeat loop behind ``repro.cli worker``.

    Waits for the published plan, then claims slices until every plan index
    is in the store (or ``max_slices`` is reached).  Each slice goes through
    :meth:`CampaignExecutor.run_experiments` — the routine that also runs a
    local campaign — so already-stored indexes (a crashed predecessor's
    surviving shards) are never re-run, and with ``workers > 1`` a single
    worker process additionally fans its slice out over a local process
    pool, so a big host can serve as N workers with one lease.  All this
    class adds around that call is the lease: claim, heartbeat, and the
    ``.done`` marker.  ``shard_batch`` coalesces N finished batches
    into one shard object via generation-conditional appends
    (:class:`~repro.core.resultstore.BatchedShardWriter`): each batch is
    durable the moment it completes, but a very large campaign stores — and
    later lists — 1/N as many objects.

    ``stall_after_batches`` is a fault-injection knob in the spirit of the
    repository: after N completed batches the worker stops heartbeating and
    holds its lease forever (until SIGKILLed), which is exactly how a hung
    or dead worker looks to the rest of the fleet.  ``tests/smoke.py`` (which
    CI and the tier-1 suite both run) uses it to prove expired-lease
    reclamation loses and duplicates nothing.
    """

    def __init__(
        self,
        root: str,
        worker_id: Optional[str] = None,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        shard_batch: Optional[int] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: Optional[float] = None,
        poll_interval: float = 0.5,
        wait_timeout: Optional[float] = 60.0,
        max_slices: Optional[int] = None,
        stall_after_batches: Optional[int] = None,
        progress: Optional[LogCallback] = None,
    ):
        self.root = root
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.workers = workers
        self.chunk_size = chunk_size
        self.shard_batch = shard_batch
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None else max(lease_ttl / 4.0, 0.05)
        )
        self.poll_interval = poll_interval
        self.wait_timeout = wait_timeout
        self.max_slices = max_slices
        self.stall_after_batches = stall_after_batches
        self.progress = progress

    def _log(self, message: str) -> None:
        if self.progress is not None:
            self.progress(f"[worker {self.worker_id}] {message}")

    def run(self) -> WorkerReport:
        """Claim and execute slices until the campaign is complete."""
        plan = wait_for_plan(self.root, self.wait_timeout)
        leases = SliceLeases(self.root, ttl=self.lease_ttl)
        slices = plan.slices()
        report = WorkerReport(self.worker_id, slices_completed=0, experiments_run=0)
        # None = inherit the coalescing factor the coordinator published;
        # an explicit per-worker --shard-batch overrides it.
        shard_batch = self.shard_batch if self.shard_batch is not None else plan.shard_batch
        self._log(f"plan loaded: {plan.total} experiments in {len(slices)} slice(s)")
        with CampaignExecutor(
            plan.experiment_config,
            workers=self.workers,
            chunk_size=self.chunk_size,
            results_dir=self.root,
            shard_batch=shard_batch,
        ) as executor:
            while self.max_slices is None or report.slices_completed < self.max_slices:
                if not executor.pending(plan.tasks):
                    break
                claimed = leases.claim_first(range(len(slices)), self.worker_id)
                if claimed is None:
                    time.sleep(self.poll_interval)
                    continue
                ran, completed = self._run_slice(executor, plan, leases, slices[claimed])
                report.experiments_run += ran
                if completed:
                    report.slices_completed += 1
        self._log(
            f"exiting: {report.slices_completed} slice(s), "
            f"{report.experiments_run} experiment(s) executed"
        )
        return report

    def _run_slice(
        self,
        executor: CampaignExecutor,
        plan: DistributedPlan,
        leases: SliceLeases,
        plan_slice: PlanSlice,
    ) -> tuple[int, bool]:
        """Run one leased slice; returns (experiments run, slice completed)."""
        tasks = plan.slice_tasks(plan_slice)
        self._log(
            f"claimed slice {plan_slice.slice_id} [{plan_slice.start}..{plan_slice.stop - 1}]"
        )

        stop_beat = threading.Event()
        lease_lost = threading.Event()

        def beat() -> None:
            while not stop_beat.wait(self.heartbeat_interval):
                if not leases.heartbeat(plan_slice.slice_id, self.worker_id):
                    lease_lost.set()
                    return

        heartbeat_thread = threading.Thread(target=beat, daemon=True)
        heartbeat_thread.start()

        ran = 0
        batches = 0

        def finish(batch_indexes: list[int]) -> None:
            nonlocal ran, batches
            ran += len(batch_indexes)
            batches += 1
            if lease_lost.is_set():
                raise LeaseLostError(
                    f"lease on slice {plan_slice.slice_id} was reclaimed; abandoning it"
                )
            if self.stall_after_batches is not None and batches >= self.stall_after_batches:
                raise _StallRequested()

        try:
            executor.run_experiments(tasks, plan.baselines, on_batch=finish)
        except _StallRequested:
            stop_beat.set()
            heartbeat_thread.join()
            self._log(
                f"stalling after {batches} batch(es) on slice {plan_slice.slice_id} "
                "(fault injection: lease held, heartbeat stopped)"
            )
            while True:  # hold the lease until SIGKILLed; expiry frees the slice
                time.sleep(3600)
        except LeaseLostError as error:
            self._log(f"{error}; {ran} completed experiment(s) stay in the store")
            return ran, False
        finally:
            stop_beat.set()
            heartbeat_thread.join()

        missing = len(executor.pending(tasks))
        if missing or lease_lost.is_set():
            leases.release(plan_slice.slice_id, self.worker_id)
            self._log(f"slice {plan_slice.slice_id} incomplete ({missing} missing); released")
            return ran, False
        leases.mark_done(
            plan_slice.slice_id,
            self.worker_id,
            start=plan_slice.start,
            stop=plan_slice.stop,
            executed=ran,
        )
        self._log(f"slice {plan_slice.slice_id} done ({ran} executed here)")
        return ran, True


# --------------------------------------------------------------------------
# Coordinator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributedSettings:
    """Coordinator-side knobs of the distributed backend."""

    #: Plan indexes per leased slice (None = :func:`default_slice_size`).
    slice_size: Optional[int] = None
    #: Seconds between progress scans of the shared store.
    poll_interval: float = 0.5
    #: Overall deadline for the campaign (None = wait forever).
    timeout: Optional[float] = None


def compact_ranges(indexes: Iterable[int]) -> str:
    """Ascending integers as inclusive runs: ``[1, 2, 5]`` -> ``"1..2, 5"``."""
    runs: list[list[int]] = []
    for index in indexes:
        if runs and index == runs[-1][1] + 1:
            runs[-1][1] = index
        else:
            runs.append([index, index])
    return ", ".join(str(first) if first == last else f"{first}..{last}" for first, last in runs)


def wait_for_completion(
    store: ShardedResultStore,
    total: int,
    settings: DistributedSettings,
    progress: Optional[ProgressCallback] = None,
    cancel: Optional[threading.Event] = None,
) -> None:
    """Block until the workers have stored all ``total`` plan indexes.

    All the coordinator does after publishing: it never executes or folds
    anything, it polls the (already opened, fingerprint-checked) store.
    ``progress(done, total)`` fires whenever a poll finds more stored than
    the last one did; ``cancel`` is checked once per poll round and raises
    :class:`~repro.core.campaign.CampaignCancelledError` without waiting for
    the workers (their completed shards stay durable for a resume).
    """
    from repro.core.campaign import CampaignCancelledError  # circular at import time

    deadline = None if settings.timeout is None else time.monotonic() + settings.timeout
    reported = 0
    while True:
        if cancel is not None and cancel.is_set():
            raise CampaignCancelledError("distributed campaign watch cancelled")
        store.refresh()
        completed = store.completed_indexes()
        done = len(completed)
        if done > reported:
            reported = done
            if progress is not None:
                progress(done, total)
        if done >= total:
            return
        if deadline is not None and time.monotonic() > deadline:
            held = ", ".join(
                f"slice {info.slice_id} by {info.worker} "
                f"({'expired' if info.expired else 'fresh'}, age {info.age:.1f}s)"
                for info in SliceLeases(store.root).outstanding()
            ) or "none"
            missing = compact_ranges(index for index in range(total) if index not in completed)
            raise DistributedTimeoutError(
                f"campaign incomplete after {settings.timeout:.0f}s: "
                f"{total - done} of {total} experiments outstanding; "
                f"missing {missing}; leases: {held}"
            )
        time.sleep(settings.poll_interval)


# --------------------------------------------------------------------------
# Inspection
# --------------------------------------------------------------------------


def render_provenance(root: str) -> str:
    """Per-worker slice provenance + outstanding leases, for ``inspect``.

    Empty string when the store has no distributed state (plain local runs
    keep their inspect output unchanged).
    """
    try:
        plan = load_plan(root)
    except DistributedPlanError as error:
        return f"Distributed campaign\n  unreadable plan: {error}"
    leases = SliceLeases(root)
    done = leases.done_records()
    outstanding = leases.outstanding()
    if plan is None and not done and not outstanding:
        return ""
    lines = ["Distributed campaign"]
    if plan is not None:
        lines.append(
            f"plan               : {plan.total} experiments in "
            f"{len(plan.slices())} slice(s) of <= {plan.slice_size}"
        )
    if done:
        lines.append("slice provenance   :")
        for record in done:
            start, stop = record.get("start"), record.get("stop")
            span = f"[{start}..{stop - 1}]" if isinstance(stop, int) else "[?]"
            lines.append(
                f"  slice {record.get('slice', '?')} {span}  "
                f"done by {record.get('worker', '?')} "
                f"({record.get('executed', '?')} executed)"
            )
    if outstanding:
        lines.append("outstanding leases :")
        for info in outstanding:
            state = "expired" if info.expired else "fresh"
            lines.append(
                f"  slice {info.slice_id}  held by {info.worker} "
                f"(age {info.age:.1f}s / ttl {info.ttl:.1f}s, {state})"
            )
    return "\n".join(lines)
