"""Tests for the pluggable shard-store transports.

Two layers of contract: the :class:`ShardTransport` operations themselves
(atomic put, exactly-one-winner put-if-absent, generation-conditional
delete/refresh — exercised identically against the POSIX backend and the
object-store emulation server), and the storage protocols built on top of
them (the result store and the slice-lease lifecycle, which must behave the
same over either backend).  The POSIX transport additionally guarantees the
historical on-disk layout byte for byte, so stores written before the
transport layer existed resume unchanged.
"""

from __future__ import annotations

import http.client
import itertools
import os
import socket
import threading
import time

import pytest

from repro.core.classification import GoldenBaseline
from repro.core.distributed import SliceLeases
from repro.core.experiment import RecordedField
from repro.core.objstore import LocalObjectStore
from repro.core.resultstore import ResultStoreMismatchError, ShardedResultStore
from repro.core.transport import (
    LIST_PAGE_ENV,
    ObjectStoreTransport,
    PosixTransport,
    TransportKeyError,
    _temp_path_for,
    atomic_write_bytes,
    transport_for,
)

from test_resultstore import _full_result  # noqa: E402 - shared result factory

_BUCKETS = itertools.count()


@pytest.fixture(scope="module")
def objstore_server():
    server = LocalObjectStore(("127.0.0.1", 0)).start()
    yield server
    server.stop()


class Backend:
    """One transport under test plus the knobs the tests need around it."""

    def __init__(self, root, transport, backdate):
        self.root = root
        self.transport = transport
        self.backdate = backdate  # backdate(key, seconds): age an object


@pytest.fixture(params=["posix", "objstore"])
def backend(request, tmp_path, objstore_server) -> Backend:
    if request.param == "posix":
        root = str(tmp_path / "store")

        def backdate(key: str, seconds: float) -> None:
            path = os.path.join(root, *key.split("/"))
            stat = os.stat(path)
            os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))

        return Backend(root, PosixTransport(root), backdate)

    bucket = f"bucket-{next(_BUCKETS)}"
    root = f"{objstore_server.url}/{bucket}"

    def backdate(key: str, seconds: float) -> None:
        objstore_server.backdate(f"{bucket}/{key}", seconds)

    return Backend(root, ObjectStoreTransport(root), backdate)


# ------------------------------------------------------------- dispatching


def test_transport_for_picks_backend_by_root_shape(tmp_path):
    assert isinstance(transport_for(str(tmp_path)), PosixTransport)
    assert isinstance(
        transport_for("objstore://127.0.0.1:9999/bucket"), ObjectStoreTransport
    )
    with pytest.raises(ValueError):
        ObjectStoreTransport("objstore://127.0.0.1:9999")  # no bucket
    with pytest.raises(ValueError):
        ObjectStoreTransport("/just/a/path")


def test_posix_layout_is_the_historical_one(tmp_path):
    # Keys map onto the exact paths the pre-transport store used, so stores
    # written by either code generation are interchangeable.
    root = str(tmp_path / "store")
    transport = PosixTransport(root)
    transport.put("MANIFEST.json", b"{}")
    transport.put("shards/shard-00000000-00000001.jsonl.gz", b"gz")
    assert transport.locate("MANIFEST.json") == os.path.join(root, "MANIFEST.json")
    assert os.path.isfile(os.path.join(root, "MANIFEST.json"))
    assert os.path.isfile(
        os.path.join(root, "shards", "shard-00000000-00000001.jsonl.gz")
    )


# ---------------------------------------------------------------- contract


def test_put_get_roundtrip_and_overwrite(backend):
    transport = backend.transport
    with pytest.raises(TransportKeyError):
        transport.get("a/missing")
    assert transport.stat("a/missing") is None
    transport.put("a/obj", b"one")
    assert transport.get("a/obj") == b"one"
    transport.put("a/obj", b"two")  # atomic overwrite
    data, stat = transport.get_with_stat("a/obj")
    assert data == b"two"
    assert stat.size == len(b"two")
    assert transport.stat("a/obj").generation == stat.generation


def test_every_write_changes_the_generation(backend):
    transport = backend.transport
    transport.put("g/obj", b"one")
    first = transport.stat("g/obj").generation
    transport.put("g/obj", b"one")  # same content still re-generates
    assert transport.stat("g/obj").generation != first


def test_put_if_absent_has_exactly_one_winner(backend):
    transport = backend.transport
    assert transport.put_if_absent("race/obj", b"mine") is True
    assert transport.put_if_absent("race/obj", b"theirs") is False
    assert transport.get("race/obj") == b"mine"


def test_concurrent_put_if_absent_has_exactly_one_winner(backend):
    transport = backend.transport
    outcomes: list[tuple[str, bool]] = []
    barrier = threading.Barrier(8)

    def contend(name: str) -> None:
        barrier.wait()
        fresh = transport_for(backend.root)  # own connections per contender
        outcomes.append((name, fresh.put_if_absent("hot/obj", name.encode())))

    threads = [threading.Thread(target=contend, args=(f"w{i}",)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    winners = [name for name, won in outcomes if won]
    assert len(winners) == 1
    assert backend.transport.get("hot/obj") == winners[0].encode()


def test_list_is_flat_prefix_scoped_and_sorted(backend):
    transport = backend.transport
    transport.put("dir/b", b"2")
    transport.put("dir/a", b"1")
    transport.put("other/c", b"3")
    assert transport.list("dir/") == ["dir/a", "dir/b"]
    assert transport.list("dir/a") == ["dir/a"]
    assert transport.list("empty/") == []


def test_list_iter_streams_the_same_keys_as_list(backend):
    transport = backend.transport
    for name in ("c", "a", "b"):
        transport.put(f"iter/{name}", b"x")
    assert list(transport.list_iter("iter/")) == ["iter/a", "iter/b", "iter/c"]
    assert list(transport.list_iter("iter/")) == transport.list("iter/")


def test_listing_an_unpopulated_store_is_empty_not_an_error(backend):
    # A coordinator (`inspect`, `autofederate`) polls stores whose worker
    # hasn't created anything yet — the backing directory/bucket does not
    # exist at all.  Both backends must answer "empty", never raise.
    transport = backend.transport
    assert transport.list("shards/") == []
    assert list(transport.list_iter("shards/")) == []
    store = ShardedResultStore(backend.root)
    assert store.shard_keys() == []
    assert store.completed_indexes() == {}
    assert store.stored_record_count() == 0


def test_append_contract(backend):
    transport = backend.transport
    # generation=None is the put-if-absent of appends: exactly one creator.
    first = transport.append("ap/obj", b"one", None)
    assert first is not None
    assert transport.get("ap/obj") == b"one"
    assert transport.append("ap/obj", b"x", None) is None  # already exists
    assert transport.get("ap/obj") == b"one"
    # A matching generation extends; the returned token is the new state.
    second = transport.append("ap/obj", b"two", first)
    assert second is not None and second != first
    assert transport.get("ap/obj") == b"onetwo"
    assert transport.stat("ap/obj").generation == second
    # A stale generation writes nothing.
    assert transport.append("ap/obj", b"three", first) is None
    assert transport.get("ap/obj") == b"onetwo"
    # An absent key with a generation precondition writes nothing.
    assert transport.append("ap/missing", b"x", first) is None
    assert transport.stat("ap/missing") is None


def test_delete_is_idempotent_and_conditional_delete_respects_generation(backend):
    transport = backend.transport
    transport.put("d/obj", b"x")
    generation = transport.stat("d/obj").generation
    transport.put("d/obj", b"y")  # replaced: the old generation is stale
    assert transport.delete_if_unchanged("d/obj", generation) is False
    assert transport.get("d/obj") == b"y"
    assert transport.delete_if_unchanged("d/obj", transport.stat("d/obj").generation)
    assert transport.stat("d/obj") is None
    assert transport.delete_if_unchanged("d/obj", generation) is False  # absent
    transport.delete("d/obj")  # idempotent no-op


def test_refresh_bumps_mtime_only_under_matching_generation(backend):
    transport = backend.transport
    transport.put("r/obj", b"x")
    before = transport.stat("r/obj")
    backend.backdate("r/obj", 100.0)
    aged = transport.stat("r/obj")
    assert aged.mtime < before.mtime
    current = aged.generation
    assert transport.refresh("r/obj", current) is True
    refreshed = transport.stat("r/obj")
    assert refreshed.mtime > aged.mtime
    assert refreshed.generation != current
    assert transport.refresh("r/obj", current) is False  # stale token
    assert transport.refresh("r/missing", current) is False


# ------------------------------------------------------ listing pagination


def test_paginated_listing_covers_every_boundary(objstore_server):
    # Page size 1, a page exactly equal to the key count, and pages larger
    # than the key count must all stream the identical sorted key set.
    root = f"{objstore_server.url}/page-{next(_BUCKETS)}"
    seed = ObjectStoreTransport(root)
    keys = [f"s/k{i:02d}" for i in range(5)]
    for key in keys:
        seed.put(key, b"x")
    for page_size in (1, 2, 5, 7):
        transport = ObjectStoreTransport(root, page_size=page_size)
        assert transport.list("s/") == keys
        assert list(transport.list_iter("s/")) == keys


def test_keys_added_between_pages_follow_cursor_semantics(objstore_server):
    # S3 listing semantics: a key created behind the cursor while paging is
    # missed by *this* iteration, a key created ahead of it is included.
    root = f"{objstore_server.url}/cursor-{next(_BUCKETS)}"
    transport = ObjectStoreTransport(root, page_size=2)
    for i in range(4):
        transport.put(f"s/k{i}0", b"x")
    stream = transport.list_iter("s/")
    assert [next(stream), next(stream)] == ["s/k00", "s/k10"]  # page 1 served
    transport.put("s/k05", b"x")  # behind the cursor: missed
    transport.put("s/k90", b"x")  # ahead of the cursor: included
    assert list(stream) == ["s/k20", "s/k30", "s/k90"]
    # A fresh iteration sees the full current key set.
    assert transport.list("s/") == ["s/k00", "s/k05", "s/k10", "s/k20", "s/k30", "s/k90"]


def test_server_side_max_page_caps_even_greedy_clients():
    # A server configured with --max-page never produces an unbounded
    # listing response, whatever limit the client asked for — and clients
    # page through transparently.
    server = LocalObjectStore(("127.0.0.1", 0), max_page=2).start()
    try:
        transport = ObjectStoreTransport(f"{server.url}/b")  # default page size
        keys = [f"s/k{i}" for i in range(5)]
        for key in keys:
            transport.put(key, b"x")
        page, truncated = server.list_keys("b/s/")
        assert len(page) == 2 and truncated  # the raw protocol is capped
        assert transport.list("s/") == keys  # the client still sees it all
    finally:
        server.stop()


def test_page_size_env_override(monkeypatch):
    monkeypatch.setenv(LIST_PAGE_ENV, "3")
    assert ObjectStoreTransport("objstore://127.0.0.1:1/b").page_size == 3
    monkeypatch.setenv(LIST_PAGE_ENV, "bogus")
    with pytest.warns(RuntimeWarning):
        transport = ObjectStoreTransport("objstore://127.0.0.1:1/b")
    assert transport.page_size == 1000
    monkeypatch.delenv(LIST_PAGE_ENV)
    assert ObjectStoreTransport("objstore://127.0.0.1:1/b", page_size=7).page_size == 7


def test_campaign_digest_with_forced_pagination_matches_unpaginated(tmp_path):
    # The acceptance bar for pagination: a store-backed campaign run against
    # a server that forces limit=2 listing pages produces a digest
    # byte-identical to the unpaginated POSIX run of the same configuration.
    from repro.core.campaign import Campaign, CampaignConfig
    from repro.workloads.workload import WorkloadKind

    config = dict(
        workloads=(WorkloadKind.DEPLOY,),
        golden_runs=1,
        max_experiments_per_workload=4,
        seed=3,
        workers=1,
        chunk_size=2,
    )
    plain_root = str(tmp_path / "plain")
    Campaign(CampaignConfig(**config)).run(results_dir=plain_root)
    server = LocalObjectStore(("127.0.0.1", 0), max_page=2).start()
    try:
        paged_root = f"{server.url}/paged"
        Campaign(CampaignConfig(**config)).run(results_dir=paged_root)
        paged = ShardedResultStore(paged_root)
        plain = ShardedResultStore(plain_root)
        assert paged.results_digest() == plain.results_digest()
        assert paged.record_count() == plain.record_count()
        assert paged.stored_record_count() == plain.stored_record_count()
    finally:
        server.stop()


# ------------------------------------------------------------------ the wire
#
# Helpers shared with tests/test_service.py: both in-tree HTTP servers answer
# through one ``ResponseHandler``, so both are held to the same wire tests.


def keepalive_seconds(address, path: str, exchanges: int = 20) -> float:
    """Wall-clock of ``exchanges`` sequential GETs over ONE connection."""
    connection = http.client.HTTPConnection(*address[:2], timeout=10)
    try:
        started = time.perf_counter()
        for _ in range(exchanges):
            connection.request("GET", path)
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        return time.perf_counter() - started
    finally:
        connection.close()


def assert_accepted_sockets_have_nagle_off(server, path: str) -> None:
    """The clock-free form of the stall test: with Nagle on, a response
    written as headers-then-body parks the body behind the client's delayed
    ACK (~40 ms per small-body exchange on a keep-alive connection)."""
    accepted = []
    accept = server.get_request

    def recording_accept():
        request, client_address = accept()
        accepted.append(request)
        return request, client_address

    server.get_request = recording_accept
    connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
    try:
        connection.request("GET", path)
        connection.getresponse().read()  # answered, so the handler is set up
        (request,) = accepted
        assert request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    finally:
        connection.close()
        del server.get_request


def assert_bad_content_length_answers_400(address, method: str, path: str, probe: str) -> None:
    """``Content-Length: abc`` used to escape the handler as a ValueError
    (no response, connection dropped) and ``-1`` to park its thread in
    ``rfile.read(-1)``; both must answer 400 and leave the connection — and
    the server — serving the next well-formed request."""
    for bad in ("abc", "-1"):
        connection = http.client.HTTPConnection(*address[:2], timeout=2)
        try:
            connection.putrequest(method, path)
            connection.putheader("Content-Length", bad)
            connection.endheaders()
            rejected = connection.getresponse()
            assert rejected.status == 400, bad
            assert b"Content-Length" in rejected.read()  # the one-line body
            connection.request("GET", probe)  # the same connection still serves
            served = connection.getresponse()
            assert served.status == 200, bad
            served.read()
        finally:
            connection.close()
        keepalive_seconds(address, probe, exchanges=1)  # and so does a fresh one


def test_small_body_exchanges_do_not_wait_out_a_delayed_ack(objstore_server):
    # 44 ms per exchange before the fix (0.88 s per twenty), ~0.15 ms after.
    ObjectStoreTransport(f"{objstore_server.url}/wire").put("small", b"x" * 100)
    address = objstore_server.server_address
    assert keepalive_seconds(address, "/k/wire/small") < 0.4
    assert keepalive_seconds(address, "/list?prefix=wire/") < 0.4


def test_object_store_accepted_sockets_have_nagle_off(objstore_server):
    assert_accepted_sockets_have_nagle_off(objstore_server, "/healthz")


def test_object_store_put_with_bad_content_length_is_400(objstore_server):
    assert_bad_content_length_answers_400(
        objstore_server.server_address, "PUT", "/k/wire/bad", probe="/healthz"
    )
    assert ObjectStoreTransport(f"{objstore_server.url}/wire").stat("bad") is None


# --------------------------------------- conditional ops under lost responses


class _DroppingTransport(ObjectStoreTransport):
    """Fault injection: lose the response of a chosen request *after* the
    server has applied it — the flaky-connection case the retry-ambiguity
    rules exist for.  ``drop_when(method, path)`` selects the one request
    whose response to drop (auto-cleared after firing); ``fail_when`` drops
    *every* matching response, simulating an endpoint that stays down."""

    def __init__(self, root: str):
        super().__init__(root)
        self.drop_when = None
        self.fail_when = None

    def _connection(self):
        real = super()._connection()
        transport = self

        class _Proxy:
            def __init__(self):
                self._pending = None

            def request(self, method, path, *args, **kwargs):
                self._pending = (method, path)
                return real.request(method, path, *args, **kwargs)

            def getresponse(self):
                response = real.getresponse()  # the server has acted by now
                drop = transport.drop_when
                if drop is not None and self._pending and drop(*self._pending):
                    transport.drop_when = None
                    response.read()  # drain, then lose it
                    raise http.client.HTTPException("injected: response dropped")
                fail = transport.fail_when
                if fail is not None and self._pending and fail(*self._pending):
                    response.read()
                    raise http.client.HTTPException("injected: endpoint down")
                return response

            def close(self):
                real.close()

        return _Proxy()


def _drop_refresh(method, path):
    return method == "POST" and "op=refresh" in path


def test_retried_refresh_does_not_wrongly_surrender(objstore_server):
    # The bug: a heartbeat whose first attempt applied but whose response
    # was lost saw 412 on the retry and concluded the lease was gone, making
    # the owner surrender a slice it still held.
    transport = _DroppingTransport(f"{objstore_server.url}/retry-{next(_BUCKETS)}")
    transport.put("lease", b"owner-a")
    generation = transport.stat("lease").generation
    transport.drop_when = _drop_refresh
    assert transport.refresh("lease", generation, expected=b"owner-a") is True
    assert transport.stat("lease").generation != generation  # applied exactly once


def test_retried_refresh_still_reports_a_genuinely_lost_lease(objstore_server):
    transport = _DroppingTransport(f"{objstore_server.url}/retry-{next(_BUCKETS)}")
    transport.put("lease", b"owner-a")
    generation = transport.stat("lease").generation
    transport.put("lease", b"owner-b")  # reclaimed by someone else
    transport.drop_when = _drop_refresh
    assert transport.refresh("lease", generation, expected=b"owner-a") is False
    # Without an expected payload the ambiguous case stays conservative:
    # the refresh applied (new generation), but the transport cannot prove
    # it was ours, so it reports the lease as lost.
    current = transport.stat("lease").generation
    transport.drop_when = _drop_refresh
    assert transport.refresh("lease", current) is False
    assert transport.stat("lease").generation != current  # ... yet it applied


def test_ambiguity_reread_failure_degrades_to_loss_not_a_crash(objstore_server):
    # If the store stays flaky through the ambiguity re-read itself, the
    # conditional op must answer a conservative False — an exception here
    # would escape into the worker's heartbeat thread, which has no handler,
    # and silently kill the abort signal while the slice keeps running.
    transport = _DroppingTransport(f"{objstore_server.url}/retry-{next(_BUCKETS)}")
    transport.put("lease", b"owner-a")
    generation = transport.stat("lease").generation
    transport.drop_when = _drop_refresh
    transport.fail_when = lambda method, path: method == "GET" and path.startswith("/k/")
    assert transport.refresh("lease", generation, expected=b"owner-a") is False
    transport.fail_when = None

    generation = transport.stat("lease").generation
    transport.drop_when = lambda method, path: method == "DELETE"
    transport.fail_when = lambda method, path: method == "HEAD"
    assert transport.delete_if_unchanged("lease", generation) is False
    transport.fail_when = None


def test_retried_conditional_delete_recognizes_its_own_success(objstore_server):
    # The bug: a reclaim whose conditional delete applied but lost its
    # response concluded False from the retry's 404 — "the lease I freed is
    # still someone else's" — even though the slice was in fact freed.
    transport = _DroppingTransport(f"{objstore_server.url}/retry-{next(_BUCKETS)}")
    transport.put("lease", b"owner-a")
    generation = transport.stat("lease").generation
    transport.drop_when = lambda method, path: method == "DELETE"
    assert transport.delete_if_unchanged("lease", generation) is True
    assert transport.stat("lease") is None


def test_retried_conditional_delete_keeps_precondition_failures(objstore_server):
    transport = _DroppingTransport(f"{objstore_server.url}/retry-{next(_BUCKETS)}")
    transport.put("lease", b"owner-a")
    stale = transport.stat("lease").generation
    transport.put("lease", b"owner-b")  # the generation we hold is stale
    transport.drop_when = lambda method, path: method == "DELETE"
    assert transport.delete_if_unchanged("lease", stale) is False
    assert transport.get("lease") == b"owner-b"  # the new owner survived


def test_retried_append_does_not_duplicate_the_batch(objstore_server):
    # An append whose first attempt applied must not be re-applied by the
    # ambiguity rule: duplicated members would double the batch's records.
    transport = _DroppingTransport(f"{objstore_server.url}/retry-{next(_BUCKETS)}")
    first = transport.append("shard", b"alpha|", None)
    transport.drop_when = lambda method, path: "append=1" in path
    second = transport.append("shard", b"beta|", first)
    assert second is not None
    assert transport.get("shard") == b"alpha|beta|"
    # And a dropped *create* resolves the same way.
    transport.drop_when = lambda method, path: "append=1" in path
    created = transport.append("shard2", b"solo", None)
    assert created is not None
    assert transport.get("shard2") == b"solo"


def test_heartbeat_survives_a_dropped_refresh_response(objstore_server):
    # End to end through the lease layer: a worker whose heartbeat response
    # is lost must keep its lease, not surrender the slice.
    root = f"{objstore_server.url}/retry-{next(_BUCKETS)}"
    leases = SliceLeases(root, ttl=30.0)
    transport = _DroppingTransport(root)
    leases.transport = transport
    assert leases.try_claim(0, "worker-a")
    transport.drop_when = _drop_refresh
    assert leases.heartbeat(0, "worker-a") is True
    assert leases.lease_info(0).worker == "worker-a"
    # A genuinely reclaimed lease still reads as lost.
    leases.release(0)
    assert leases.try_claim(0, "worker-b")
    transport.drop_when = _drop_refresh
    assert leases.heartbeat(0, "worker-a") is False


# ------------------------------------------------- store over any backend


def test_store_round_trip_over_object_store(backend):
    store = ShardedResultStore(backend.root)
    store.open("fp", total=4)
    records = [(index, _full_result(index)) for index in range(4)]
    store.write_shard(records[:2])
    store.write_shard(records[2:])
    assert store.record_count() == 4
    assert store.stored_record_count() == 4
    assert list(store.iter_all()) == [result for _, result in records]
    assert store.compressed_bytes() > 0

    # A fresh store instance (a different process in real life) sees it all.
    again = ShardedResultStore(backend.root)
    assert again.load_result(3) == records[3][1]
    with pytest.raises(ResultStoreMismatchError):
        ShardedResultStore(backend.root).open("other-fp", total=4)


def test_store_digest_is_transport_independent(tmp_path, objstore_server):
    records = [(index, _full_result(index)) for index in range(4)]
    posix = ShardedResultStore(str(tmp_path / "posix"))
    remote = ShardedResultStore(f"{objstore_server.url}/digest-{next(_BUCKETS)}")
    for store in (posix, remote):
        store.open("fp", total=4)
        store.write_shard(records)
    assert posix.results_digest() == remote.results_digest()


def test_store_prep_round_trip_over_object_store(objstore_server):
    store = ShardedResultStore(f"{objstore_server.url}/prep-{next(_BUCKETS)}")
    prepared = [
        (
            GoldenBaseline(workload="deploy", baseline_series=[0.5]),
            [RecordedField("Pod", "web", None, "spec.priority", "int", 0)],
        )
    ]
    store.save_prep("prep-fp", prepared)
    assert store.load_prep("prep-fp") == prepared
    with pytest.raises(ResultStoreMismatchError):
        store.load_prep("other-fp")


def test_finished_campaign_reruns_without_prep_or_replay(backend, monkeypatch):
    """Resume rests on the prep and campaign fingerprints being the same
    before and after the prep's trip through the store: a rerun that
    re-prepared, or replayed one experiment, would mean identity drifted."""
    from repro.core.campaign import Campaign, CampaignConfig
    from repro.core.experiment import ExperimentRunner
    from repro.core.parallel import CampaignExecutor
    from repro.workloads.workload import WorkloadKind

    config = CampaignConfig(
        workloads=(WorkloadKind.DEPLOY,),
        golden_runs=2,
        max_experiments_per_workload=2,
        seed=3,
        workers=1,
    )
    first = Campaign(config).run(results_dir=backend.root)
    digest = ShardedResultStore(backend.root).results_digest()

    def forbidden(*args, **kwargs):
        raise AssertionError("a finished campaign re-prepared or replayed on rerun")

    monkeypatch.setattr(CampaignExecutor, "prepare_workloads", forbidden)
    monkeypatch.setattr(ExperimentRunner, "run_experiment", forbidden)
    rerun = Campaign(config).run(results_dir=backend.root)
    assert list(rerun.results) == list(first.results)
    assert rerun.baselines == first.baselines
    assert rerun.recorded_fields == first.recorded_fields
    store = ShardedResultStore(backend.root)
    assert store.results_digest() == digest
    assert store.stored_record_count() == store.record_count() == 2


def test_truncated_shard_over_object_store_yields_readable_prefix(objstore_server):
    root = f"{objstore_server.url}/trunc-{next(_BUCKETS)}"
    store = ShardedResultStore(root)
    store.open("fp", total=8)
    store.write_shard([(index, _full_result(index)) for index in range(8)])
    (key,) = store.shard_keys()
    payload = store.transport.get(key)
    store.transport.put(key, payload[: len(payload) // 2])
    store.refresh()
    completed = set(store.completed_indexes())
    assert completed < set(range(8))
    for index in sorted(completed):
        assert store.load_result(index) == _full_result(index)


# --------------------------------------------- lease lifecycle, per backend


def test_lease_double_claim_single_winner(backend):
    leases = SliceLeases(backend.root, ttl=30.0)
    assert leases.try_claim(0, "worker-a") is True
    assert leases.try_claim(0, "worker-b") is False
    info = leases.lease_info(0)
    assert info.worker == "worker-a"
    assert not info.expired
    assert leases.try_claim(1, "worker-b") is True


def test_lease_expiry_and_reclamation(backend):
    leases = SliceLeases(backend.root, ttl=5.0)
    assert leases.try_claim(0, "crashed-worker")
    assert leases.try_claim(0, "worker-b") is False  # fresh
    backend.backdate(leases._lease_key(0), 6.0)
    assert leases.lease_info(0).expired
    assert leases.try_claim(0, "worker-b") is True
    assert leases.lease_info(0).worker == "worker-b"


def test_lease_expiry_honors_owner_recorded_ttl(backend):
    owner = SliceLeases(backend.root, ttl=60.0)
    assert owner.try_claim(0, "long-ttl-worker")
    impatient = SliceLeases(backend.root, ttl=0.1)
    backend.backdate(owner._lease_key(0), 5.0)  # old, within the owner's 60s
    assert impatient.lease_info(0).expired is False
    assert impatient.try_claim(0, "impatient") is False


def test_lease_heartbeat_refreshes_and_detects_loss(backend):
    leases = SliceLeases(backend.root, ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    backend.backdate(leases._lease_key(0), 6.0)
    # The owner heartbeats just in time: the lease is fresh again.
    assert leases.heartbeat(0, "worker-a") is True
    assert not leases.lease_info(0).expired
    assert leases.try_claim(0, "worker-b") is False

    backend.backdate(leases._lease_key(0), 6.0)
    assert leases.try_claim(0, "worker-b")  # reclaimed
    # The evicted owner's heartbeat reports the loss without refreshing the
    # new owner's lease.
    before = backend.transport.stat(leases._lease_key(0))
    assert leases.heartbeat(0, "worker-a") is False
    after = backend.transport.stat(leases._lease_key(0))
    assert (after.mtime, after.generation) == (before.mtime, before.generation)
    leases.release(0)
    assert leases.heartbeat(0, "worker-a") is False  # absent is also a loss


def test_lease_release_by_evicted_owner_spares_new_owner(backend):
    leases = SliceLeases(backend.root, ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    backend.backdate(leases._lease_key(0), 6.0)
    assert leases.try_claim(0, "worker-b")
    leases.release(0, "worker-a")
    assert leases.lease_info(0).worker == "worker-b"
    leases.release(0, "worker-b")
    assert leases.lease_info(0) is None


def test_lease_done_marker_blocks_claims_and_keeps_provenance(backend):
    leases = SliceLeases(backend.root, ttl=5.0)
    assert leases.try_claim(0, "worker-a")
    leases.mark_done(0, "worker-a", start=0, stop=3, executed=3)
    assert leases.is_done(0)
    assert leases.lease_info(0) is None
    assert leases.try_claim(0, "worker-b") is False
    (record,) = leases.done_records()
    assert record["worker"] == "worker-a"
    assert (record["start"], record["stop"], record["executed"]) == (0, 3, 3)
    assert leases.outstanding() == []


# ------------------------------------------------- atomic_write_bytes fix


def test_temp_names_are_unique_within_one_thread():
    # The historical name embedded only the pid, so two in-flight writes of
    # one target inside one process shared a temp file.
    first = _temp_path_for("/store/LEASE")
    second = _temp_path_for("/store/LEASE")
    assert first != second
    for name in (first, second):
        assert name.startswith("/store/LEASE.")
        assert name.endswith(".tmp")
        assert str(os.getpid()) in name


def test_concurrent_atomic_writes_to_one_path_never_collide(tmp_path):
    # Regression: the worker heartbeat thread and the main loop both write
    # lease files; with pid-only temp names they scribbled over each other's
    # in-flight temp file.  Hammering one target from many threads must end
    # with one intact payload and zero leftover temp files.
    target = str(tmp_path / "lease")
    payloads = [f"payload-{i:02d}".encode() * 64 for i in range(8)]
    barrier = threading.Barrier(8)
    errors: list[BaseException] = []

    def write(payload: bytes) -> None:
        barrier.wait()
        try:
            for _ in range(25):
                atomic_write_bytes(target, payload)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    with open(target, "rb") as handle:
        assert handle.read() in payloads  # one writer's bytes, intact
    assert os.listdir(tmp_path) == ["lease"]  # no temp residue
