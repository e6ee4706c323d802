"""Tests for the campaign service API redesign.

Three contracts under test:

* :class:`CampaignSpec` is the single submission surface — it round-trips
  through JSON without changing identity, rejects unknown/invalid fields
  naming them, represents every ``repro.cli campaign`` flag, and both the
  CLI and the HTTP service build the same spec from the same description.
* The ``/v1`` HTTP API: submission is idempotent on content identity,
  progress/tables/status are computed live from the shard store, quota
  overflow answers 429 + ``Retry-After``, and ``GET /v1/campaigns/{id}``
  serves the byte-identical document ``inspect --json`` writes.
* Statelessness: a service SIGKILLed mid-campaign and restarted against the
  same ``--state`` store rehydrates from the index, resumes the campaign
  with zero replays, and the final digest is byte-identical to serial.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import threading
import time

import pytest

from repro.cli import build_parser, main
from repro.core.distributed import publish_plan
from repro.core.objstore import LocalObjectStore
from repro.core.report import STORE_DOCUMENT_SCHEMA, document_to_bytes, store_document
from repro.core.resultstore import ShardedResultStore
from repro.core.transport import StoreURLError, resolve_store_url, transport_for
from repro.service import (
    CampaignHandle,
    CampaignService,
    CampaignServiceServer,
    CampaignSpec,
    ServiceClient,
    ServiceError,
    SpecError,
)

import smoke  # noqa: E402 - the CI smoke driver: the one way to spawn repro.cli
from test_distributed import (  # noqa: E402,F401 - shared op-recording fixture and toy plan
    _toy_plan as toy_plan,
    recorded_ops,
)
from test_resultstore import MALFORMED_CASES, malformed  # noqa: E402 - shared hostile documents
from test_transport import (  # noqa: E402 - wire helpers shared by both HTTP servers
    assert_accepted_sockets_have_nagle_off,
    assert_bad_content_length_answers_400,
    keepalive_seconds,
)

def _tiny_spec(store_url: str, **overrides) -> CampaignSpec:
    """The 6-experiment campaign the distributed tests also use."""
    kwargs = dict(
        workloads=("deploy",),
        golden_runs=1,
        max_experiments=6,
        seed=3,
        workers=1,
        chunk_size=1,
        store_url=store_url,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """One serial run of the tiny campaign: (store root, digest)."""
    root = str(tmp_path_factory.mktemp("serial-ref") / "store")
    CampaignHandle(_tiny_spec(root)).run()
    return root, ShardedResultStore(root).results_digest()


@pytest.fixture()
def service_server(tmp_path):
    service = CampaignService(str(tmp_path / "state"), max_campaigns=4)
    server = CampaignServiceServer(("127.0.0.1", 0), service).start()
    client = ServiceClient(server.url)
    client.wait_ready(timeout=30)
    yield server, client
    server.stop()


# --------------------------------------------------------------------------
# CampaignSpec: round-trip, validation, CLI coverage
# --------------------------------------------------------------------------


class TestCampaignSpec:
    def test_json_roundtrip_preserves_fingerprint(self, tmp_path):
        spec = _tiny_spec(str(tmp_path / "store"), shard_batch=3, seed=11)
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()
        assert restored.campaign_id() == spec.campaign_id()

    def test_fingerprint_depends_on_content_and_store(self, tmp_path):
        one = _tiny_spec(str(tmp_path / "a"))
        assert one.fingerprint() != _tiny_spec(str(tmp_path / "a"), seed=4).fingerprint()
        assert one.fingerprint() != _tiny_spec(str(tmp_path / "b")).fingerprint()

    def test_unknown_fields_rejected_by_name(self):
        with pytest.raises(SpecError, match="max_expermnts"):
            CampaignSpec.from_dict({"max_expermnts": 60})
        # The removed pickle-checkpoint field is unknown like any other.
        with pytest.raises(SpecError, match="checkpoint"):
            CampaignSpec.from_dict({"checkpoint": "x"})

    def test_not_an_object_rejected(self):
        with pytest.raises(SpecError, match="JSON object"):
            CampaignSpec.from_dict(["deploy"])
        with pytest.raises(SpecError, match="not valid JSON"):
            CampaignSpec.from_json("{nope")

    @pytest.mark.parametrize(
        ("kwargs", "named"),
        [
            (dict(workloads=("warp",)), "warp"),
            (dict(workloads=()), "workloads"),
            (dict(golden_runs=0), "golden_runs"),
            (dict(seed="7"), "seed"),
            (dict(workers=0), "workers"),
            (dict(shard_batch=0), "shard_batch"),
            (dict(backend="cloud"), "backend"),
            (dict(poll_interval=0), "poll_interval"),
            (dict(timeout=-1), "timeout"),
            (dict(store_url="s3://bucket/x"), "s3://bucket/x"),
            (dict(backend="distributed"), "store_url"),
        ],
    )
    def test_invalid_fields_rejected_by_name(self, kwargs, named):
        with pytest.raises(SpecError, match=re.escape(named)):
            CampaignSpec(**kwargs)

    def test_max_experiments_zero_normalizes_to_none(self):
        assert CampaignSpec(max_experiments=0).max_experiments is None
        assert CampaignSpec(max_experiments=0) == CampaignSpec(max_experiments=None)

    def test_every_campaign_flag_is_representable(self, tmp_path):
        """Each CLI `campaign` flag that shapes execution lands in the spec."""
        store = str(tmp_path / "store")
        args = build_parser().parse_args(
            [
                "campaign",
                "--workloads", "deploy,scale",
                "--seed", "11",
                "--golden-runs", "3",
                "--max-experiments", "12",
                "--workers", "2",
                "--chunk-size", "4",
                "--shard-batch", "2",
                "--backend", "distributed",
                "--results-dir", store,
                "--slice-size", "5",
                "--poll-interval", "0.25",
                "--coordinator-timeout", "60",
            ]
        )
        spec = CampaignSpec.from_cli_args(args)
        assert spec == CampaignSpec(
            workloads=("deploy", "scale"),
            seed=11,
            golden_runs=3,
            max_experiments=12,
            workers=2,
            chunk_size=4,
            shard_batch=2,
            backend="distributed",
            store_url=store,
            slice_size=5,
            poll_interval=0.25,
            timeout=60.0,
        )
        config = spec.to_config()
        assert [kind.value for kind in config.workloads] == ["deploy", "scale"]
        assert (config.golden_runs, config.seed) == (3, 11)
        assert config.max_experiments_per_workload == 12
        assert (config.workers, config.chunk_size, config.shard_batch) == (2, 4, 2)
        settings = spec.distributed_settings()
        assert (settings.slice_size, settings.poll_interval, settings.timeout) == (
            5, 0.25, 60.0,
        )

    def test_campaign_and_submit_build_identical_specs(self, tmp_path):
        """The no-duplicated-parsing criterion: both subcommands produce the
        same spec from the same flag vocabulary."""
        store = str(tmp_path / "store")
        flags = ["--workloads", "deploy", "--seed", "5", "--results-dir", store]
        parser = build_parser()
        campaign_args = parser.parse_args(["campaign", *flags])
        submit_args = parser.parse_args(
            ["submit", "--server", "http://127.0.0.1:1", *flags]
        )
        assert CampaignSpec.from_cli_args(campaign_args) == CampaignSpec.from_cli_args(
            submit_args
        )


# --------------------------------------------------------------------------
# resolve_store_url: the one store-root parser
# --------------------------------------------------------------------------


class TestResolveStoreURL:
    def test_posix_and_objstore_roots_pass_through(self, tmp_path):
        assert resolve_store_url(str(tmp_path)) == str(tmp_path)
        assert (
            resolve_store_url("objstore://127.0.0.1:1/bucket")
            == "objstore://127.0.0.1:1/bucket"
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "s3://bucket/key", "https://example.com/store", "objstore://host:1"],
    )
    def test_malformed_roots_rejected_naming_option(self, bad):
        with pytest.raises(StoreURLError, match=re.escape("--results-dir")):
            resolve_store_url(bad, option="--results-dir")

    def test_cli_paths_reject_bad_urls_naming_them(self, tmp_path, capsys):
        cases = [
            ["inspect", "s3://bucket/store"],
            ["worker", "--results-dir", "s3://bucket/store"],
            ["federate", "objstore://host:1", str(tmp_path / "src")],
            ["autofederate", str(tmp_path / "dest"), "s3://bucket/store",
             "--timeout", "1"],
            ["campaign", "--results-dir", "s3://bucket/store"],
        ]
        for argv in cases:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "error:" in err
            assert "s3://bucket/store" in err or "objstore://host:1" in err

    def test_distributed_without_store_names_results_dir(self, capsys):
        assert main(["campaign", "--backend", "distributed"]) == 2
        assert "--results-dir" in capsys.readouterr().err


# --------------------------------------------------------------------------
# objstore --max-page validation (PR 5 idiom)
# --------------------------------------------------------------------------


class TestMaxPageValidation:
    @pytest.mark.parametrize("bad", ["0", "-3", "nope"])
    def test_cli_rejects_bad_max_page_naming_flag(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["objstore", "--max-page", bad])
        assert excinfo.value.code == 2
        assert "--max-page" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_server_rejects_bad_max_page(self, bad):
        with pytest.raises(ValueError, match=re.escape("--max-page")):
            LocalObjectStore(("127.0.0.1", 0), max_page=bad)

    def test_server_accepts_valid_cap(self):
        server = LocalObjectStore(("127.0.0.1", 0), max_page=2)
        try:
            assert server.max_page == 2
        finally:
            server.server_close()


# --------------------------------------------------------------------------
# The /v1 HTTP API
# --------------------------------------------------------------------------


class TestServiceAPI:
    def test_health_and_readiness(self, service_server):
        _, client = service_server
        assert client.healthy()
        assert client.ready()

    def test_submit_runs_and_serves_inspect_document(
        self, service_server, tmp_path, capsys
    ):
        server, client = service_server
        store = str(tmp_path / "store")
        spec = _tiny_spec(store)
        response = client.submit(spec)
        assert response["id"] == spec.campaign_id()
        assert response["fingerprint"] == spec.fingerprint()
        assert response["spec"] == spec.to_dict()
        status = client.wait(response["id"], timeout=300)
        assert status["state"] == "complete"
        assert status["completed"] == status["total"] == 6
        assert status["stored_records"] == 6

        # Byte-identity: GET /v1/campaigns/{id} == inspect --json (satellite 2).
        json_path = str(tmp_path / "inspect.json")
        assert main(["inspect", store, "--json", json_path]) == 0
        capsys.readouterr()
        with open(json_path, "rb") as handle:
            cli_bytes = handle.read()
        http_bytes = client.document(response["id"])
        assert http_bytes == cli_bytes
        document = json.loads(http_bytes)
        assert document["schema"] == STORE_DOCUMENT_SCHEMA
        assert document["experiments"] == 6

        # Resubmission of the same document is idempotent.
        again = client.submit(spec)
        assert again["id"] == response["id"]
        assert [c["id"] for c in client.campaigns()] == [response["id"]]

        # Paper tables as JSON.
        tables = client.tables(response["id"])
        assert tables["schema"] == STORE_DOCUMENT_SCHEMA
        assert "deploy" in tables["table4_orchestrator_failures"]
        assert set(tables) >= {"table3_of_cf_matrix", "table5_client_failures"}

        # A second service over the same state rehydrates the completed
        # campaign as a terminal record without starting a runner.
        rehydrated = CampaignService(server.service.state_root)
        assert rehydrated.rehydrate() == 1
        assert rehydrated.list_campaigns()["campaigns"][0]["state"] == "complete"
        assert rehydrated.document_bytes(response["id"]) == cli_bytes

    def test_rehydrates_parent_format_record_with_null_checkpoint(self, tmp_path):
        # Index records persisted before the `checkpoint` spec field was
        # removed carry `"checkpoint": null`; a restarted service must still
        # re-adopt (and resume) those campaigns under their recorded ids.
        service = CampaignService(str(tmp_path / "state"))
        spec = _tiny_spec(str(tmp_path / "store"), max_experiments=2)

        def persist(campaign_id, checkpoint, without=None, **fields):
            record = {
                "id": campaign_id,
                "fingerprint": "f" * 64,
                "spec": {**spec.to_dict(), "checkpoint": checkpoint, **fields},
                "submitted_at": 1.0,
                "cancelled": False,
            }
            record.pop(without, None)
            service.transport.put(
                f"campaigns/{campaign_id}.json", json.dumps(record).encode("utf-8")
            )

        persist("0123456789abcdef", None)
        persist("fedcba9876543210", "/tmp/c.pkl")  # non-null: still foreign
        persist("00000000deadbeef", None, store_url=None)  # no store: nothing to manage
        # Every listing and response reads both keys: a record without one is
        # foreign too, and must not take `GET /v1/campaigns` down with it.
        persist("1111111111111111", None, without="id")
        persist("2222222222222222", None, without="fingerprint")
        assert service.rehydrate() == 1
        (summary,) = service.list_campaigns()["campaigns"]
        assert summary["id"] == "0123456789abcdef" != spec.campaign_id()
        assert service.describe("0123456789abcdef")["spec"] == spec.to_dict()
        # In flight when the old process died: the new one resumes it.
        handle = service._get("0123456789abcdef").handle
        assert handle is not None and handle.wait(timeout=300)
        assert handle.state == "complete"

    def test_unknown_campaign_is_404(self, service_server):
        _, client = service_server
        with pytest.raises(ServiceError) as excinfo:
            client.describe("deadbeef00000000")
        assert excinfo.value.status == 404

    def test_invalid_spec_is_400_naming_field(self, service_server):
        _, client = service_server
        status, raw, _ = client._request(
            "POST", "/v1/campaigns", {"workloads": ["deploy"], "max_expermnts": 9}
        )
        assert status == 400
        assert "max_expermnts" in json.loads(raw)["error"]
        status, raw, _ = client._request(
            "POST", "/v1/campaigns", {"workloads": ["deploy"], "checkpoint": "x"}
        )
        assert status == 400
        assert "checkpoint" in json.loads(raw)["error"]

    def test_store_url_required_for_service_campaigns(self, service_server):
        _, client = service_server
        with pytest.raises(ServiceError) as excinfo:
            client.submit(CampaignSpec(workloads=("deploy",)))
        assert excinfo.value.status == 400
        assert "store_url" in str(excinfo.value)

    def test_document_before_results_is_503(self, service_server, tmp_path):
        _, client = service_server
        # A distributed campaign with no workers: admitted, but its store
        # stays empty, so the document endpoint must defer, not 500.
        spec = _tiny_spec(str(tmp_path / "store"), backend="distributed")
        response = client.submit(spec)
        with pytest.raises(ServiceError) as excinfo:
            client.document(response["id"])
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after is not None
        client.cancel(response["id"])

    def test_quota_answers_429_with_retry_after(self, tmp_path):
        service = CampaignService(str(tmp_path / "state"), max_campaigns=1)
        server = CampaignServiceServer(("127.0.0.1", 0), service).start()
        client = ServiceClient(server.url)
        try:
            client.wait_ready(timeout=30)
            # Occupies the only slot forever: distributed, no workers.
            first = client.submit(
                _tiny_spec(str(tmp_path / "store-a"), backend="distributed")
            )
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    _tiny_spec(str(tmp_path / "store-b"), backend="distributed")
                )
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == service.retry_after
            # DELETE cancels cooperatively and frees the slot.
            client.cancel(first["id"])
            status = client.wait(first["id"], timeout=60)
            assert status["state"] == "cancelled"
            second = client.submit(
                _tiny_spec(str(tmp_path / "store-b"), backend="distributed")
            )
            client.cancel(second["id"])
        finally:
            server.stop()

    def test_status_reports_distributed_provenance_shape(
        self, service_server, tmp_path
    ):
        _, client = service_server
        spec = _tiny_spec(str(tmp_path / "store"), backend="distributed")
        response = client.submit(spec)
        status = client.describe(response["id"])
        assert status["backend"] == "distributed"
        assert "slices_done" in status and "outstanding_leases" in status
        client.cancel(response["id"])


# --------------------------------------------------------------------------
# The wire: the service answers through the object store's ResponseHandler
# --------------------------------------------------------------------------


class TestServiceWire:
    def test_small_body_exchanges_do_not_wait_out_a_delayed_ack(self, service_server):
        server, _ = service_server
        assert keepalive_seconds(server.server_address, "/healthz") < 0.4

    def test_accepted_sockets_have_nagle_off(self, service_server):
        server, _ = service_server
        assert_accepted_sockets_have_nagle_off(server, "/healthz")

    def test_submit_with_bad_content_length_is_400(self, service_server):
        server, client = service_server
        assert_bad_content_length_answers_400(
            server.server_address, "POST", "/v1/campaigns", probe="/healthz"
        )
        assert client.campaigns() == []


# --------------------------------------------------------------------------
# Request budget: what one service read costs the store, as recorded ops
# --------------------------------------------------------------------------


def _shard_keys(root: str) -> list[str]:
    return ShardedResultStore(root).shard_keys()


def _gets(ops, prefix: str) -> list[str]:
    return [key for op, key in ops if op in ("get", "get_with_stat") and key.startswith(prefix)]


def _cold_document(root: str) -> bytes:
    return document_to_bytes(store_document(ShardedResultStore(root)))


def _manage(tmp_path, store: str) -> tuple[CampaignService, str]:
    """A service managing ``store`` without a runner (the record is marked
    cancelled, so rehydration starts none): reads only, nothing simulates."""
    service = CampaignService(str(tmp_path / "state"))
    spec = _tiny_spec(store)
    record = {
        "id": spec.campaign_id(),
        "fingerprint": spec.fingerprint(),
        "spec": spec.to_dict(),
        "submitted_at": 1.0,
        "cancelled": True,
    }
    service.transport.put(
        f"campaigns/{record['id']}.json", json.dumps(record).encode("utf-8")
    )
    assert service.rehydrate() == 1
    return service, record["id"]


@pytest.fixture()
def finished_store(tmp_path, serial_reference) -> str:
    """A private copy of the finished six-shard serial store, with a plan
    published so ``status`` has one to report."""
    store = str(tmp_path / "store")
    shutil.copytree(serial_reference[0], store)
    plan = toy_plan(total=6, slice_size=2)
    plan.fingerprint = ShardedResultStore(store).manifest()["fingerprint"]
    publish_plan(store, plan)
    return store


class TestRequestBudget:
    def test_reads_of_a_finished_store_stop_downloading_it(
        self, tmp_path, finished_store, recorded_ops
    ):
        shards = _shard_keys(finished_store)
        assert len(shards) == 6
        service, campaign_id = _manage(tmp_path, finished_store)

        first = service.status(campaign_id)
        assert (first["completed"], first["total"], first["stored_records"]) == (6, 6, 6)
        assert first["plan"] == {"total": 6, "slices": 3}
        del recorded_ops[:]
        assert service.status(campaign_id) == first
        assert _gets(recorded_ops, "shards/") == []
        assert _gets(recorded_ops, "PLAN.json") == []
        # One listing and one stat per shard is the whole validation.
        assert [op for op, key in recorded_ops if key == "shards/"] == ["list_iter"]
        assert sorted(key for op, key in recorded_ops if op == "stat" and key in shards) == shards

        del recorded_ops[:]
        document = service.document_bytes(campaign_id)
        assert sorted(_gets(recorded_ops, "shards/")) == shards  # each at most once
        del recorded_ops[:]
        assert service.document_bytes(campaign_id) == document
        assert _gets(recorded_ops, "shards/") == []
        assert sorted(key for op, key in recorded_ops if op == "stat" and key in shards) == shards

        del recorded_ops[:]
        tables = service.tables(campaign_id)
        assert tables["experiments"] == 6
        assert sorted(_gets(recorded_ops, "shards/")) == shards

        assert document == _cold_document(finished_store)
        (summary,) = service.list_campaigns()["campaigns"]
        assert (summary["completed"], summary["stored_records"]) == (6, 6)

    def test_a_landed_or_rewritten_shard_is_reflected_by_the_next_read(
        self, tmp_path, finished_store, recorded_ops
    ):
        transport = transport_for(finished_store)
        shards = _shard_keys(finished_store)
        late_key, late_bytes = shards[-1], transport.get(shards[-1])
        transport.delete(late_key)
        service, campaign_id = _manage(tmp_path, finished_store)
        status = service.status(campaign_id)
        assert (status["completed"], status["stored_records"]) == (5, 5)
        partial = service.document_bytes(campaign_id)
        assert json.loads(partial)["experiments"] == 5

        # A further shard lands: only that shard is downloaded.
        transport.put(late_key, late_bytes)
        del recorded_ops[:]
        status = service.status(campaign_id)
        assert (status["completed"], status["stored_records"]) == (6, 6)
        assert _gets(recorded_ops, "shards/") == [late_key]
        document = service.document_bytes(campaign_id)
        assert document != partial
        assert document == _cold_document(finished_store)

        # An existing shard is rewritten under a new generation, now holding
        # a replayed copy of its neighbour's record (gzip members concatenate).
        transport.put(shards[0], transport.get(shards[0]) + transport.get(shards[1]))
        del recorded_ops[:]
        status = service.status(campaign_id)
        assert (status["completed"], status["stored_records"]) == (6, 7)
        assert _gets(recorded_ops, "shards/") == [shards[0]]
        replayed = json.loads(service.document_bytes(campaign_id))
        assert (replayed["experiments"], replayed["stored_records"]) == (6, 7)
        assert replayed["results_digest"] == json.loads(document)["results_digest"]
        assert service.document_bytes(campaign_id) == _cold_document(finished_store)

    def test_plan_is_reread_only_under_a_new_generation(
        self, tmp_path, finished_store, recorded_ops
    ):
        service, campaign_id = _manage(tmp_path, finished_store)
        assert service.status(campaign_id)["plan"] == {"total": 6, "slices": 3}
        transport = transport_for(finished_store)
        plan_bytes = transport.get("PLAN.json")

        transport.put("PLAN.json", b"not a plan")  # replaced and unreadable
        assert "plan" not in service.status(campaign_id)
        transport.put("PLAN.json", plan_bytes)  # replaced again: re-read once
        del recorded_ops[:]
        assert service.status(campaign_id)["plan"] == {"total": 6, "slices": 3}
        assert service.status(campaign_id)["plan"] == {"total": 6, "slices": 3}
        assert _gets(recorded_ops, "PLAN.json") == ["PLAN.json"]
        transport.delete("PLAN.json")
        assert "plan" not in service.status(campaign_id)

    @pytest.mark.parametrize("case", MALFORMED_CASES)
    def test_status_answers_200_without_a_plan_when_it_is_malformed(
        self, tmp_path, finished_store, case
    ):
        """The status handler used to drop the connection on a plan that
        unpickled fine but lacked a field (a bare KeyError out of the view)."""
        transport = transport_for(finished_store)
        transport.put("PLAN.json", malformed(transport.get("PLAN.json"), case, "tasks"))
        service, campaign_id = _manage(tmp_path, finished_store)
        server = CampaignServiceServer(("127.0.0.1", 0), service).start()
        try:
            status = ServiceClient(server.url).status(campaign_id)
        finally:
            server.stop()
        assert "plan" not in status
        assert (status["completed"], status["total"]) == (6, 6)

    def test_concurrent_polls_while_shards_land(self, tmp_path, serial_reference):
        """Eight pollers against one campaign while a writer lands its shards
        one by one: every answer is well-formed and the final document is the
        serial one.  The view's lock guards three attributes and no I/O, so
        the pollers overlap freely; a lost update could only cost a re-fetch."""
        serial_store, serial_digest = serial_reference
        store = str(tmp_path / "store")
        shutil.copytree(serial_store, store)
        transport = transport_for(store)
        shards = {key: transport.get(key) for key in _shard_keys(store)}
        for key in shards:
            transport.delete(key)
        service, campaign_id = _manage(tmp_path, store)

        landed = threading.Event()
        problems: list[str] = []

        def land() -> None:
            for key, payload in shards.items():
                transport.put(key, payload)
                time.sleep(0.01)
            landed.set()

        def poll() -> None:
            seen = 0
            try:
                while True:
                    final = landed.is_set()  # read first: one more full round after it
                    status = service.status(campaign_id)
                    document = json.loads(service.document_bytes(campaign_id))
                    count = document["experiments"]
                    if not (seen <= count <= 6 and document["stored_records"] == count):
                        problems.append(f"document went {seen} -> {document}")
                    if not (0 <= status["completed"] <= status["stored_records"] <= 6):
                        problems.append(f"status {status}")
                    if sum(document["classification_counts"].values()) != count:
                        problems.append(f"tally disagrees with itself: {document}")
                    seen = count
                    if final:
                        if count != 6:
                            problems.append(f"final document holds {count} of 6")
                        return
            except Exception as error:  # noqa: BLE001 - surfaced below
                problems.append(repr(error))

        threads = [threading.Thread(target=poll) for _ in range(8)]
        threads.append(threading.Thread(target=land))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        final = service.document_bytes(campaign_id)
        assert final == _cold_document(store)
        assert json.loads(final)["results_digest"] == serial_digest


# --------------------------------------------------------------------------
# Statelessness: SIGKILL the service mid-campaign, restart, digest == serial
# --------------------------------------------------------------------------


def test_service_restart_mid_campaign_digest_identical_to_serial(
    tmp_path, serial_reference
):
    """The tentpole proof: kill the service mid-campaign, restart it against
    the same state store, and the rehydrated service resumes the campaign to
    an ``inspect --json`` digest byte-identical to the serial run."""
    serial_store, serial_digest = serial_reference
    state = str(tmp_path / "state")
    store = str(tmp_path / "store")

    with smoke.Smoke(tmp_path, "restart") as scenario:
        process, client = scenario.serve("service", state)
        response = client.submit(_tiny_spec(store))
        campaign_id = response["id"]
        # Let it run until at least one shard is durable, then SIGKILL the
        # service mid-campaign (experiments are still outstanding).
        deadline = time.monotonic() + 300
        reader = ShardedResultStore(store)
        while True:
            reader.refresh()
            if reader.has_manifest() and 0 < reader.record_count():
                break
            assert time.monotonic() < deadline, "no shard appeared before deadline"
            time.sleep(0.1)
        process.kill()

        process, client = scenario.serve("service-restarted", state)
        # /readyz recovery implies the index was listed and the campaign
        # rehydrated; the resumed run must finish with zero replays.
        status = client.wait(campaign_id, timeout=300)
        assert status["state"] == "complete"
        assert status["completed"] == status["total"] == 6
        assert status["stored_records"] == 6
        document = json.loads(client.document(campaign_id))
        assert document["results_digest"] == serial_digest
        assert document["stored_records"] == document["experiments"] == 6
