"""Tests for the distributed (multi-host) campaign backend.

The contract under test: a campaign executed by one coordinator plus any
number of worker processes over a shared directory produces a result store
whose digest is byte-identical to the serial run of the same configuration,
with zero lost and zero replayed experiments — including when a worker is
SIGKILLed mid-slice and its lease is reclaimed.  The lease lifecycle itself
(O_EXCL claim, TTL expiry, heartbeat refresh, reclamation, coordinator
re-publish) is exercised edge by edge.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import struct
import threading
import time

import pytest

from repro.core import distributed, resultstore
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.distributed import (
    DistributedPlan,
    DistributedPlanError,
    DistributedSettings,
    DistributedTimeoutError,
    DistributedWorker,
    SliceLeases,
    compact_ranges,
    default_slice_size,
    load_plan,
    publish_plan,
    render_provenance,
    wait_for_plan,
)
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.parallel import ExperimentTask
from repro.core.resultstore import ResultStoreMismatchError, ShardedResultStore
from repro.core.transport import atomic_write_bytes, transport_for
from repro.service.storeview import StoreView
from repro.workloads.workload import WorkloadKind

import smoke  # noqa: E402 - the CI smoke driver, tests/smoke.py
from test_resultstore import MALFORMED_CASES, malformed  # noqa: E402 - shared hostile documents


def _tiny_config(**overrides) -> CampaignConfig:
    defaults = dict(
        workloads=(WorkloadKind.DEPLOY,),
        golden_runs=1,
        max_experiments_per_workload=6,
        seed=3,
        workers=1,
        chunk_size=1,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """One serial store-backed run every distributed test compares against."""
    root = str(tmp_path_factory.mktemp("serial-store"))
    result = Campaign(_tiny_config()).run(results_dir=root)
    return root, result


def _toy_plan(total: int = 6, slice_size: int = 3) -> DistributedPlan:
    """A plan whose tasks never execute (lease/publish plumbing tests)."""
    from repro.core.injector import FaultSpec, InjectionChannel

    fault = FaultSpec(channel=InjectionChannel.APISERVER_TO_ETCD, kind="Pod")
    tasks = [
        ExperimentTask(index=i, workload=WorkloadKind.DEPLOY, fault=fault, seed=1000 + i)
        for i in range(total)
    ]
    return DistributedPlan(
        fingerprint="toy-fingerprint",
        experiment_config=ExperimentConfig(),
        tasks=tasks,
        baselines={},
        slice_size=slice_size,
    )


# ------------------------------------------------------------------ plumbing


def test_default_slice_size_splits_into_about_eight():
    assert default_slice_size(1) == 1
    assert default_slice_size(8) == 1
    assert default_slice_size(80) == 10
    assert default_slice_size(81) == 11


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "file.bin")
    atomic_write_bytes(path, b"payload")
    with open(path, "rb") as handle:
        assert handle.read() == b"payload"
    assert os.listdir(tmp_path) == ["file.bin"]


def test_plan_publish_roundtrip_is_idempotent_and_refuses_foreign(tmp_path):
    root = str(tmp_path / "store")
    os.makedirs(root)
    plan = _toy_plan()
    assert load_plan(root) is None
    assert publish_plan(root, plan) is True
    loaded = load_plan(root)
    assert loaded.fingerprint == plan.fingerprint
    assert loaded.tasks == plan.tasks
    assert [(s.start, s.stop) for s in loaded.slices()] == [(0, 3), (3, 6)]

    # Coordinator resume: re-publishing the identical plan is a no-op.
    assert publish_plan(root, plan) is False

    # A different campaign must not silently replace the published plan.
    foreign = _toy_plan()
    foreign.fingerprint = "other-fingerprint"
    with pytest.raises(DistributedPlanError):
        publish_plan(root, foreign)


def test_wait_for_plan_times_out_without_coordinator(tmp_path):
    with pytest.raises(DistributedTimeoutError):
        wait_for_plan(str(tmp_path), timeout=0.2, poll_interval=0.05)


def test_wait_for_plan_rejects_plan_manifest_fingerprint_mismatch(tmp_path):
    root = str(tmp_path / "store")
    os.makedirs(root)
    ShardedResultStore(root).open("manifest-fingerprint", total=6)
    publish_plan(root, _toy_plan())  # fingerprint "toy-fingerprint"
    with pytest.raises(DistributedPlanError):
        wait_for_plan(root, timeout=1.0)


@pytest.mark.parametrize(
    "case", MALFORMED_CASES + ("unknown-workload", "zero-slice-size", "shuffled-indexes")
)
def test_malformed_plan_is_a_plan_error_never_a_key_or_type_error(tmp_path, case):
    """Whatever is wrong with the bytes under PLAN.json, every reader says
    so by name: workers and coordinators get DistributedPlanError, inspect
    prints it, the service's status poll answers without a plan."""
    root = str(tmp_path / "store")
    publish_plan(root, _toy_plan())
    transport = transport_for(root)
    valid = transport.get("PLAN.json")
    if case in MALFORMED_CASES:
        hostile = malformed(valid, case, "tasks")
    else:
        document = json.loads(valid)
        if case == "unknown-workload":
            document["tasks"][0]["workload"] = "no-such-workload"
        elif case == "zero-slice-size":
            document["slice_size"] = 0
        elif case == "shuffled-indexes":
            document["tasks"].reverse()
        hostile = json.dumps(document).encode("utf-8")
    transport.put("PLAN.json", hostile)

    with pytest.raises(DistributedPlanError) as excinfo:
        load_plan(root)
    if case == "other-version":
        assert "plan format 1, this code reads 2" in str(excinfo.value)
    with pytest.raises(DistributedPlanError):
        wait_for_plan(root, timeout=1.0)
    with pytest.raises(DistributedPlanError):
        publish_plan(root, _toy_plan())  # a coordinator never overwrites it
    assert "unreadable plan: " in render_provenance(root)
    assert StoreView(root).plan_summary() is None


class _CreatesFileWhenUnpickled:
    """A pickle of this runs ``open(path, "w")`` in whoever unpickles it."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def test_store_bytes_are_never_unpickled(tmp_path):
    """Whoever can write the store must not thereby run code in the worker,
    the coordinator or the service: a hostile pickle under the old and the
    new plan and prep keys is, to every reader, just an unreadable document."""
    marker = tmp_path / "executed"
    hostile = pickle.dumps(_CreatesFileWhenUnpickled(str(marker)))
    root = str(tmp_path / "store")
    transport = transport_for(root)
    for key in ("PLAN.pkl", "PLAN.json", "prep.pkl", "prep.json"):
        transport.put(key, hostile)

    with pytest.raises(DistributedPlanError):
        wait_for_plan(root, timeout=1.0)  # what a worker does first
    assert "unreadable plan: " in render_provenance(root)  # inspect
    assert StoreView(root).plan_summary() is None  # serve's status poll
    config = _tiny_config(max_experiments_per_workload=2)
    with pytest.raises(DistributedPlanError):  # a coordinator
        Campaign(config).run(results_dir=root, backend="distributed")
    # A local run recomputes the unreadable prep and completes.
    assert len(Campaign(config).run(results_dir=root).results) == 2
    assert json.loads(transport.get("prep.json"))["version"] == resultstore.STORE_VERSION
    assert not marker.exists()

    pickle.loads(hostile).close()  # the sentinel is live: unpickling it fires
    assert marker.exists()


# --------------------------------------------------------- lease lifecycle


def test_double_claim_has_exactly_one_winner(tmp_path):
    leases = SliceLeases(str(tmp_path), ttl=30.0)
    assert leases.try_claim(0, "worker-a") is True
    assert leases.try_claim(0, "worker-b") is False
    info = leases.lease_info(0)
    assert info.worker == "worker-a"
    assert not info.expired
    # Other slices stay claimable.
    assert leases.try_claim(1, "worker-b") is True


def test_concurrent_claims_have_exactly_one_winner(tmp_path):
    # The O_EXCL create is the arbiter: many threads racing for one slice
    # must produce exactly one owner.
    leases = SliceLeases(str(tmp_path), ttl=30.0)
    outcomes: list[tuple[str, bool]] = []
    barrier = threading.Barrier(8)

    def contend(name: str) -> None:
        barrier.wait()
        outcomes.append((name, SliceLeases(str(tmp_path), ttl=30.0).try_claim(7, name)))

    threads = [threading.Thread(target=contend, args=(f"w{i}",)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    winners = [name for name, won in outcomes if won]
    assert len(winners) == 1
    assert leases.lease_info(7).worker == winners[0]


def _backdate(leases: SliceLeases, slice_id: int, seconds: float) -> None:
    path = leases._lease_path(slice_id)
    stat = os.stat(path)
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


def test_expired_lease_is_reclaimed_fresh_lease_is_not(tmp_path):
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    assert leases.try_claim(0, "crashed-worker")
    # Fresh: a second worker cannot steal it.
    assert leases.try_claim(0, "worker-b") is False
    # Expired (mtime older than the owner's TTL): reclamation succeeds.
    _backdate(leases, 0, seconds=6.0)
    assert leases.lease_info(0).expired
    assert leases.try_claim(0, "worker-b") is True
    assert leases.lease_info(0).worker == "worker-b"


def test_expiry_honors_the_owners_recorded_ttl(tmp_path):
    # The claimer promised a 60s TTL; a reclaimer configured with a short
    # TTL must still respect the owner's contract.
    owner = SliceLeases(str(tmp_path), ttl=60.0)
    assert owner.try_claim(0, "long-ttl-worker")
    impatient = SliceLeases(str(tmp_path), ttl=0.1)
    _backdate(owner, 0, seconds=5.0)  # old, but well within the owner's 60s
    assert impatient.lease_info(0).expired is False
    assert impatient.try_claim(0, "impatient") is False


def test_unreadable_lease_still_counts_and_expires_by_age(tmp_path):
    # A claimer that died between the O_EXCL create and the payload write
    # leaves an empty lease file; it must block the slice only until it
    # ages out (treating it as absent would deadlock the slice: O_EXCL can
    # never succeed against an existing file).
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    os.makedirs(leases.lease_dir, exist_ok=True)
    open(leases._lease_path(0), "wb").close()
    info = leases.lease_info(0)
    assert info is not None and info.worker == "?"
    assert leases.try_claim(0, "worker-b") is False  # young: still a lease
    _backdate(leases, 0, seconds=6.0)
    assert leases.try_claim(0, "worker-b") is True
    assert leases.lease_info(0).worker == "worker-b"


def test_heartbeat_refresh_prevents_reclamation(tmp_path):
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    _backdate(leases, 0, seconds=6.0)
    # The owner heartbeats just in time: the lease is fresh again.
    assert leases.heartbeat(0, "worker-a") is True
    assert not leases.lease_info(0).expired
    assert leases.try_claim(0, "worker-b") is False


def test_heartbeat_detects_lost_lease(tmp_path):
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    _backdate(leases, 0, seconds=6.0)
    assert leases.try_claim(0, "worker-b")  # reclaimed
    # The original owner's next heartbeat must report the loss, not refresh
    # worker-b's lease.
    before = os.stat(leases._lease_path(0)).st_mtime
    assert leases.heartbeat(0, "worker-a") is False
    assert os.stat(leases._lease_path(0)).st_mtime == before
    # An absent lease is also a loss.
    leases.release(0)
    assert leases.heartbeat(0, "worker-a") is False


def test_release_by_evicted_owner_leaves_new_owners_lease_alone(tmp_path):
    # A worker that lost its lease releases on the way out; the new owner's
    # fresh lease must survive, or a third worker could double-claim the
    # slice while the second still runs it.
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    _backdate(leases, 0, seconds=6.0)
    assert leases.try_claim(0, "worker-b")
    leases.release(0, "worker-a")
    assert leases.lease_info(0).worker == "worker-b"
    # The rightful owner (and the administrative form) still release.
    leases.release(0, "worker-b")
    assert leases.lease_info(0) is None


def test_done_marker_blocks_claims_and_records_provenance(tmp_path):
    leases = SliceLeases(str(tmp_path), ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    leases.mark_done(0, "worker-a", start=0, stop=3, executed=3)
    assert leases.is_done(0)
    assert leases.lease_info(0) is None  # lease released with the marker
    assert leases.try_claim(0, "worker-b") is False
    (record,) = leases.done_records()
    assert record["worker"] == "worker-a"
    assert (record["start"], record["stop"], record["executed"]) == (0, 3, 3)


class RecordingTransport:
    """Forwards every transport op and records ``(op, key)`` — assert on the
    recorded sequence, not on timing."""

    def __init__(self, inner):
        self.inner = inner
        self.ops: list[tuple[str, str]] = []

    def __getattr__(self, name):
        target = getattr(self.inner, name)

        def recorded(key, *args, **kwargs):
            self.ops.append((name, key))
            return target(key, *args, **kwargs)

        return recorded


@pytest.fixture()
def recorded_ops(monkeypatch) -> list[tuple[str, str]]:
    """Every transport op the store and plan/lease layers issue from here
    on, in order, as ``(op, key)`` — budgets are asserted on this sequence,
    never on a clock."""
    ops: list[tuple[str, str]] = []
    for module in (resultstore, distributed):

        def recording_transport_for(root, real=module.transport_for):
            recorder = RecordingTransport(real(root))
            recorder.ops = ops
            return recorder

        monkeypatch.setattr(module, "transport_for", recording_transport_for)
    return ops


def test_claim_round_stats_each_done_marker_once(tmp_path):
    # One claim round over [done, freshly held, free]: each slice costs one
    # stat of its .done marker (two HEADs per slice on an object store used
    # to go out: the round pre-checked what try_claim checks first anyway).
    leases = SliceLeases(str(tmp_path), ttl=30.0)
    assert leases.try_claim(0, "worker-a")
    leases.mark_done(0, "worker-a", start=0, stop=3, executed=3)
    assert leases.try_claim(1, "worker-b")
    recorder = RecordingTransport(leases.transport)
    leases.transport = recorder

    assert leases.claim_first(range(3), "worker-c") == 2
    assert recorder.ops == [
        ("stat", "leases/slice-00000.done"),
        ("stat", "leases/slice-00001.done"),
        ("stat", "leases/slice-00001.lease"),
        ("get", "leases/slice-00001.lease"),
        ("stat", "leases/slice-00002.done"),
        ("stat", "leases/slice-00002.lease"),
        ("put_if_absent", "leases/slice-00002.lease"),
    ]
    # Nothing left to claim: the round reports it instead of spinning.
    assert leases.claim_first(range(2), "worker-c") is None


# ------------------------------------------------- end-to-end distributed


def test_distributed_run_matches_serial_digest(serial_reference, tmp_path):
    serial_root, serial_result = serial_reference
    root = str(tmp_path / "dist")
    config = _tiny_config()

    outcome: dict = {}

    def coordinate() -> None:
        try:
            outcome["result"] = Campaign(config).run(
                results_dir=root,
                backend="distributed",
                distributed=DistributedSettings(
                    slice_size=2, poll_interval=0.05, timeout=600
                ),
            )
        except BaseException as error:  # noqa: BLE001 - surfaced in the assert below
            outcome["error"] = error

    coordinator = threading.Thread(target=coordinate)
    coordinator.start()
    deadline = time.monotonic() + 300
    while not os.path.exists(os.path.join(root, "PLAN.json")):
        assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"
        assert time.monotonic() < deadline, "coordinator never published the plan"
        time.sleep(0.05)

    workers = [
        DistributedWorker(
            root, worker_id=f"w{i}", poll_interval=0.05, lease_ttl=30.0, wait_timeout=60
        )
        for i in (1, 2)
    ]
    reports = [None, None]

    def run_worker(position: int) -> None:
        reports[position] = workers[position].run()

    threads = [threading.Thread(target=run_worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    coordinator.join()
    assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"

    result = outcome["result"]
    store = ShardedResultStore(root)
    total = serial_result.total_experiments()
    # Byte-identical merged digest, zero lost, zero replayed.
    assert store.results_digest() == ShardedResultStore(serial_root).results_digest()
    assert store.record_count() == total
    assert store.stored_record_count() == total
    assert result.total_experiments() == total
    assert result.classification_counts() == serial_result.classification_counts()
    # Every experiment ran exactly once, somewhere.
    assert sum(report.experiments_run for report in reports) == total
    # Every slice carries provenance.
    leases = SliceLeases(root)
    done = leases.done_records()
    assert sorted(record["start"] for record in done) == list(range(0, total, 2))
    assert leases.outstanding() == []


@pytest.fixture(scope="module")
def smoke_root(tmp_path_factory):
    """Shared by the smoke scenarios below: their serial reference is made once."""
    return tmp_path_factory.mktemp("smoke")


@pytest.mark.parametrize("scenario", ["distributed", "objectstore"])
def test_sigkilled_worker_reclaim_matches_serial(smoke_root, scenario):
    """The acceptance bar, as CI runs it (``python3 tests/smoke.py``): SIGKILL
    a worker mid-slice, over a shared directory and over the object-store
    transport; the campaign still ends in the serial run's document, zero
    experiments lost and zero replayed.  Every check lives in
    :func:`smoke.reclaim`."""
    smoke.run_scenario(smoke_root, scenario)


def test_unrescued_reclaim_scenario_fails_naming_the_missing_indexes(smoke_root):
    """The proof can fail: with nobody to reclaim the victim's slice the
    coordinator times out, and the driver's failure names exactly the plan
    indexes the victim did not store."""
    with pytest.raises(smoke.SmokeFailure) as excinfo:
        with smoke.Smoke(smoke_root, "unrescued") as scenario:
            smoke.reclaim(scenario, rescuers=0, coordinator_timeout=3)
    reason = excinfo.value.reason
    assert "coordinator exited 2: error: campaign incomplete after 3s" in reason
    stored = set(ShardedResultStore(str(smoke_root / "unrescued" / "store")).completed_indexes())
    assert len(stored) == 1
    unstored = compact_ranges(sorted(set(range(smoke.TOTAL)) - stored))
    assert f"outstanding; missing {unstored}; leases" in reason
    assert "slice 0 by victim" in reason
    assert "stalling after 1 batch(es)" in str(excinfo.value)  # the transcript


def test_compact_ranges_names_runs_and_singletons():
    assert compact_ranges([1, 2, 5]) == "1..2, 5"
    assert compact_ranges([0]) == "0"
    assert compact_ranges([]) == ""


def test_distributed_rerun_of_completed_store_is_a_noop_resume(
    serial_reference, tmp_path, monkeypatch
):
    # Coordinator crash-after-completion: a rerun must re-publish (no-op),
    # re-run zero experiments, and return the identical result.
    serial_root, serial_result = serial_reference
    root = str(tmp_path / "dist")
    config = _tiny_config()

    worker_done = threading.Event()

    def run_worker() -> None:
        try:
            DistributedWorker(
                root, worker_id="only", poll_interval=0.05, wait_timeout=120
            ).run()
        finally:
            worker_done.set()

    thread = threading.Thread(target=run_worker)
    thread.start()
    first = Campaign(config).run(
        results_dir=root,
        backend="distributed",
        distributed=DistributedSettings(poll_interval=0.05, timeout=600),
    )
    thread.join()
    assert worker_done.is_set()

    def forbidden(*args, **kwargs):
        raise AssertionError("a completed distributed campaign re-ran an experiment")

    monkeypatch.setattr(ExperimentRunner, "run_experiment", forbidden)
    monkeypatch.setattr(ExperimentRunner, "run_golden", forbidden)
    resumed = Campaign(config).run(
        results_dir=root,
        backend="distributed",
        distributed=DistributedSettings(poll_interval=0.05, timeout=60),
    )
    assert resumed.classification_counts() == first.classification_counts()
    assert ShardedResultStore(root).results_digest() == (
        ShardedResultStore(serial_root).results_digest()
    )

    # And a different configuration is rejected, not silently mixed in
    # (the prep fingerprint check fires even before the plan comparison).
    with pytest.raises(ResultStoreMismatchError):
        Campaign(_tiny_config(golden_runs=2)).run(
            results_dir=root,
            backend="distributed",
            distributed=DistributedSettings(poll_interval=0.05, timeout=60),
        )


# --------------------------------------------------------------------- CLI


def test_cli_backend_distributed_requires_results_dir(capsys):
    from repro.cli import main

    assert main(["campaign", "--backend", "distributed"]) == 2
    assert "--results-dir" in capsys.readouterr().err


def test_cli_worker_times_out_without_plan(tmp_path, capsys):
    from repro.cli import main

    exit_code = main(
        ["worker", "--results-dir", str(tmp_path), "--wait-timeout", "0.2", "--quiet"]
    )
    assert exit_code == 2
    assert "no campaign plan" in capsys.readouterr().err


def test_cli_run_rejects_unknown_backend():
    with pytest.raises(ValueError):
        Campaign(_tiny_config()).run(backend="bogus")
    with pytest.raises(ValueError):
        Campaign(_tiny_config()).run(backend="distributed")  # no results_dir


def test_cli_inspect_reports_provenance_and_outstanding_leases(
    serial_reference, tmp_path, capsys
):
    from repro.cli import main

    serial_root, _ = serial_reference
    # Serial stores stay clean: no distributed section at all.
    assert main(["inspect", serial_root]) == 0
    assert "Distributed campaign" not in capsys.readouterr().out

    # A store with a published plan, one done slice, and one held lease.
    root = str(tmp_path / "store")
    os.makedirs(root)
    ShardedResultStore(root).open("toy-fingerprint", total=6)
    publish_plan(root, _toy_plan())
    leases = SliceLeases(root, ttl=30.0)
    assert leases.try_claim(0, "worker-a")
    leases.mark_done(0, "worker-a", start=0, stop=3, executed=3)
    assert leases.try_claim(1, "worker-b")

    json_path = str(tmp_path / "inspect.json")
    assert main(["inspect", root, "--json", json_path]) == 0
    out = capsys.readouterr().out
    assert "Distributed campaign" in out
    assert "done by worker-a (3 executed)" in out
    assert "held by worker-b" in out
    assert "fresh" in out
    with open(json_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["stored_records"] == 0  # no shards in this toy store


def _assert_refused_untouched_and_inspectable(
    root, serial_root, found, expected_digest, tmp_path, recorded_ops, capsys
):
    """A store of another format cannot be resumed, appended to or
    federated: each is refused by name before a single mutating op reaches
    it, and ``inspect`` still reads the store and prints its digest."""
    from repro.cli import main
    from repro.core.federate import federate_stores

    refusal = f"store format {found}, this code reads {resultstore.STORE_VERSION}"
    for backend in ("local", "distributed"):
        with pytest.raises(ResultStoreMismatchError, match=refusal):
            Campaign(_tiny_config()).run(results_dir=root, backend=backend)
    with pytest.raises(ResultStoreMismatchError, match=refusal):
        federate_stores(str(tmp_path / "merged"), [root])
    with pytest.raises(ResultStoreMismatchError, match=refusal):
        federate_stores(str(tmp_path / "merged"), [serial_root, root])
    reads = {"get", "get_with_stat", "stat", "list", "list_iter", "locate"}
    assert {op for op, _ in recorded_ops} <= reads, recorded_ops
    assert not os.path.exists(tmp_path / "merged")

    assert main(["inspect", root]) == 0
    out = capsys.readouterr().out
    assert expected_digest[:16] in out


def _write_manifest(root: str, version: int, total: int) -> None:
    manifest = {"version": version, "fingerprint": "f" * 64, "total": total}
    atomic_write_bytes(
        os.path.join(root, "MANIFEST.json"), json.dumps(manifest).encode("utf-8")
    )


def test_format_1_store_is_refused_untouched_but_still_inspectable(
    serial_reference, tmp_path, recorded_ops, capsys
):
    """A store of format 1 (manifest version 1: fingerprint a function of
    numpy's scalar repr, prep and plan as pickles) cannot be resumed — its
    identity cannot be recomputed."""
    import shutil

    serial_root, serial_result = serial_reference
    root = str(tmp_path / "legacy")
    shutil.copytree(serial_root, root)
    os.remove(os.path.join(root, "prep.json"))
    for name in ("prep.pkl", "PLAN.pkl"):
        atomic_write_bytes(os.path.join(root, name), b"\x80\x04legacy pickle")
    _write_manifest(root, 1, len(serial_result.results))

    _assert_refused_untouched_and_inspectable(
        root,
        serial_root,
        1,
        ShardedResultStore(serial_root).results_digest(),
        tmp_path,
        recorded_ops,
        capsys,
    )


def _listed_series(packed: str) -> list:
    """A stored (format-4) series as the list formats 1-3 stored, decoded
    without the codec under test."""
    raw = base64.b64decode(packed)
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def _legacy_store(serial_root: str, root: str, version: int, total: int) -> str:
    """A copy of the serial store as store format ``version`` (2 or 3) wrote
    it: each series a JSON list, held twice in format 2 (its records also
    carry ``client_observations.latency_series``).  Returns the digest of
    the copy's own records."""
    import hashlib
    import shutil

    shutil.copytree(serial_root, root, ignore=shutil.ignore_patterns("shard-*"))
    serial = ShardedResultStore(serial_root)
    records = []
    expected = hashlib.sha256()
    for index in sorted(serial.completed_indexes()):
        record = serial.load_record(index)
        assert "latency_series" not in record["client_observations"]
        series = _listed_series(record["latency_series"])
        record = dict(record, latency_series=series)
        if version == 2:
            record["client_observations"] = dict(
                record["client_observations"], latency_series=series
            )
        records.append((index, record))
        expected.update(resultstore.canonical_bytes({"index": index, "result": record}) + b"\n")
    ShardedResultStore(root).write_shard_dicts(records)
    prep_path = os.path.join(root, "prep.json")
    with open(prep_path, "rb") as handle:
        prep = json.loads(handle.read())
    atomic_write_bytes(prep_path, resultstore.canonical_bytes(dict(prep, version=version)))
    _write_manifest(root, version, total)
    assert expected.hexdigest() != serial.results_digest()
    return expected.hexdigest()


def test_format_2_store_is_refused_untouched_but_still_inspectable(
    serial_reference, tmp_path, recorded_ops, capsys
):
    """A store of format 2 holds each latency series twice: refused for
    resume, append and federation, and ``inspect`` prints the digest of its
    own records, not the digest format 4 gives the same results."""
    serial_root, serial_result = serial_reference
    root = str(tmp_path / "legacy")
    digest = _legacy_store(serial_root, root, 2, len(serial_result.results))
    recorded_ops.clear()  # the set-up above wrote; from here on nothing may

    _assert_refused_untouched_and_inspectable(
        root, serial_root, 2, digest, tmp_path, recorded_ops, capsys
    )


def test_format_3_store_is_refused_untouched_but_still_inspectable(
    serial_reference, tmp_path, recorded_ops, capsys
):
    """A store of format 3 holds each latency series once, as a JSON list of
    decimal floats: refused for resume, append and federation, and
    ``inspect`` prints the digest of its own records."""
    serial_root, serial_result = serial_reference
    root = str(tmp_path / "legacy")
    digest = _legacy_store(serial_root, root, 3, len(serial_result.results))
    recorded_ops.clear()  # the set-up above wrote; from here on nothing may

    _assert_refused_untouched_and_inspectable(
        root, serial_root, 3, digest, tmp_path, recorded_ops, capsys
    )


# ------------------------------------- paginated + batched object-store runs


def test_paginated_batched_objectstore_campaign_matches_serial(
    serial_reference, tmp_path
):
    """The scale acceptance bar: a distributed campaign over an object store
    that forces limit=2 listing pages, executed by --shard-batch 4 workers,
    still produces a store digest byte-identical to the serial POSIX run,
    with zero lost and zero replayed experiments — while storing fewer
    shard objects than batches."""
    from repro.core.objstore import LocalObjectStore

    serial_root, serial_result = serial_reference
    total = serial_result.total_experiments()
    config = _tiny_config(shard_batch=4)
    server = LocalObjectStore(("127.0.0.1", 0), max_page=2).start()
    try:
        root = f"{server.url}/dist"
        outcome: dict = {}

        def coordinate() -> None:
            try:
                outcome["result"] = Campaign(config).run(
                    results_dir=root,
                    backend="distributed",
                    distributed=DistributedSettings(
                        slice_size=2, poll_interval=0.05, timeout=600
                    ),
                )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                outcome["error"] = error

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        deadline = time.monotonic() + 300
        while load_plan(root) is None:
            assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"
            assert time.monotonic() < deadline, "coordinator never published the plan"
            time.sleep(0.05)

        worker = DistributedWorker(
            root,
            worker_id="w1",
            shard_batch=4,
            poll_interval=0.05,
            lease_ttl=30.0,
            wait_timeout=60,
        )
        worker_thread = threading.Thread(target=worker.run)
        worker_thread.start()
        worker_thread.join()
        coordinator.join()
        assert "error" not in outcome, f"coordinator failed: {outcome.get('error')}"

        store = ShardedResultStore(root)
        assert store.results_digest() == ShardedResultStore(serial_root).results_digest()
        assert store.record_count() == total
        assert store.stored_record_count() == total  # appends duplicated nothing
        # chunk_size=1 makes every experiment its own batch (6 of them), and
        # the single worker's shard group spans its slices, so exactly
        # ceil(6/4) shard objects exist — the full configured coalescing.
        assert len(store.shard_keys()) == -(-total // 4)
        assert outcome["result"].classification_counts() == (
            serial_result.classification_counts()
        )
    finally:
        server.stop()


# ------------------------------------------------- CLI flag validation


@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", "--slice-size", "0"],
        ["campaign", "--poll-interval", "0"],
        ["campaign", "--coordinator-timeout", "-5"],
        ["campaign", "--shard-batch", "0"],
        ["worker", "--results-dir", "x", "--shard-batch", "-1"],
        ["worker", "--results-dir", "x", "--poll-interval", "0"],
        ["worker", "--results-dir", "x", "--lease-ttl", "0"],
        ["autofederate", "dest", "src", "--poll-interval", "0"],
        ["autofederate", "dest", "src", "--timeout", "0"],
    ],
)
def test_cli_rejects_non_positive_tuning_flags_naming_them(argv, capsys):
    """A non-positive slice size, poll interval, timeout, or shard batch
    used to range from a silent busy-loop to a ZeroDivisionError deep in the
    worker; the CLI must reject each one up front, naming the flag."""
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err  # the offending flag is named
    assert "invalid value" in err


def test_published_plan_carries_shard_batch_to_inheriting_workers(tmp_path):
    # campaign --shard-batch N publishes the coalescing factor with the
    # plan; a worker that sets no --shard-batch of its own inherits it
    # (silently ignoring the coordinator's flag was the old behavior).
    root = str(tmp_path)
    plan = _toy_plan()
    plan.shard_batch = 5
    publish_plan(root, plan)
    assert load_plan(root).shard_batch == 5
    worker = DistributedWorker(root, worker_id="w", wait_timeout=5)
    assert worker.shard_batch is None  # None = inherit from the plan
