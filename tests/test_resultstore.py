"""Tests for the streaming sharded result store.

The store's contract: every field of an :class:`ExperimentResult` survives
the gzip-JSONL round trip exactly; a truncated (partially written) shard
yields its readable prefix and resume re-runs only what was lost; a store
written by a different campaign configuration is rejected; and a store-backed
campaign produces results identical to the in-memory run at any worker
count while reading at most one shard at a time.
"""

from __future__ import annotations

import dataclasses
import gzip
import io
import json
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConfig
from repro.core import resultstore
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.classification import (
    ClientFailure,
    ClientObservations,
    GoldenBaseline,
    OrchestratorFailure,
    OrchestratorObservations,
)
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    ExperimentTask,
    RecordedField,
)
from repro.core.federate import federate_stores
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.core.parallel import (
    WorkloadPrep,
    campaign_fingerprint,
    prep_fingerprint,
    tasks_fingerprint,
)
from repro.core.resultstore import (
    ResultStoreMismatchError,
    ShardedResultStore,
    StoredResults,
    baseline_from_dict,
    baseline_to_dict,
    canonical_bytes,
    config_from_dict,
    config_to_dict,
    recorded_field_from_dict,
    recorded_field_to_dict,
    result_from_dict,
    result_to_dict,
    task_from_dict,
    task_to_dict,
)
from repro.workloads.workload import WorkloadKind


def _tiny_config(**overrides) -> CampaignConfig:
    defaults = dict(
        workloads=(WorkloadKind.DEPLOY,),
        golden_runs=1,
        max_experiments_per_workload=4,
        seed=3,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _full_result(index: int = 0) -> ExperimentResult:
    """An ExperimentResult with every field set to a non-default value."""
    fault = FaultSpec(
        channel=InjectionChannel.COMPONENT_TO_APISERVER,
        kind="Deployment",
        field_path="spec.replicas",
        name="webapp-1",
        namespace="default",
        component="kube-controller-manager",
        fault_type=FaultType.DATA_TYPE_SET,
        bit_index=4,
        set_value=0,
        occurrence=2,
    )
    return ExperimentResult(
        workload=WorkloadKind.FAILOVER,
        fault=fault,
        seed=1000 + index,
        injected=True,
        activated=True,
        dropped=True,
        orchestrator_failure=OrchestratorFailure.STA,
        client_failure=ClientFailure.SU,
        client_zscore=3.75,
        orchestrator_observations=OrchestratorObservations(
            final_ready_replicas=5,
            final_desired_replicas=6,
            final_endpoints=4,
            peak_total_pods=20,
            final_total_pods=18,
            pods_created=25,
            pod_count_growing=True,
            network_manager_ready=2,
            dns_ready=1,
            expected_network_manager=3,
            kcm_is_leader=False,
            scheduler_is_leader=False,
            etcd_alarm=True,
            scrape_failures=3,
            app_pod_restarts=2,
            settle_time=41.5,
            final_reachability=0.4,
            unreachable_running_pods=2,
        ),
        client_observations=ClientObservations(
            latency_series=[0.01, 0.0, 0.25],
            error_count=7,
            error_bursts=2,
            total_requests=30,
            unreachable_from_some_point=True,
        ),
        latency_series=[0.01, 0.0, 0.25],
        user_error_count=3,
        user_request_count=9,
        component_error_count=1,
        injection_time=105.25,
        pods_created=25,
        workload_started_at=45.0,
        finished_at=105.0,
    )


# ------------------------------------------------------------------- codec


def test_result_round_trips_every_field_through_json():
    original = _full_result()
    clone = result_from_dict(json.loads(json.dumps(result_to_dict(original))))
    assert clone == original
    assert clone.fault == original.fault
    assert clone.orchestrator_observations == original.orchestrator_observations
    assert clone.client_observations == original.client_observations


def test_golden_result_with_defaults_round_trips():
    # Golden runs have fault=None and unclassified failures.
    original = ExperimentResult(workload=WorkloadKind.DEPLOY, fault=None, seed=7)
    clone = result_from_dict(json.loads(json.dumps(result_to_dict(original))))
    assert clone == original


# Record format 3 stores the latency series once.  One real run per
# injection channel and one golden run, against format 2 rebuilt from the
# result's own fields (not from the codec under test).

_REAL_RUNS = {
    "golden": (WorkloadKind.DEPLOY, None, 7),
    InjectionChannel.APISERVER_TO_ETCD.value: (
        WorkloadKind.DEPLOY,
        FaultSpec(
            channel=InjectionChannel.APISERVER_TO_ETCD,
            kind="Deployment",
            field_path="spec.replicas",
            fault_type=FaultType.BIT_FLIP,
        ),
        7,
    ),
    InjectionChannel.COMPONENT_TO_APISERVER.value: (
        WorkloadKind.FAILOVER,
        FaultSpec(
            channel=InjectionChannel.COMPONENT_TO_APISERVER,
            kind="Pod",
            field_path="spec.nodeName",
            component="kube-scheduler",
            fault_type=FaultType.BIT_FLIP,
        ),
        8,
    ),
}


@pytest.fixture(scope="module")
def real_results() -> dict[str, ExperimentResult]:
    runner = ExperimentRunner()
    return {
        name: runner.run_golden(workload, seed=seed)
        if fault is None
        else runner.run_experiment(workload, fault, seed=seed)
        for name, (workload, fault, seed) in _REAL_RUNS.items()
    }


def _format_2_dict(result: ExperimentResult) -> dict:
    """A record as store format 2 wrote it: every field of the result, enums
    by value, and the series under both names."""
    data = {field.name: getattr(result, field.name) for field in dataclasses.fields(result)}
    data.update(
        workload=result.workload.value,
        fault=resultstore.fault_to_dict(result.fault),
        orchestrator_failure=result.orchestrator_failure and result.orchestrator_failure.value,
        client_failure=result.client_failure and result.client_failure.value,
        orchestrator_observations=dataclasses.asdict(result.orchestrator_observations),
        client_observations=dataclasses.asdict(result.client_observations),
    )
    return data


def test_real_runs_cover_every_injection_channel(real_results):
    injected = [result for result in real_results.values() if result.fault is not None]
    assert {result.fault.channel for result in injected} == set(InjectionChannel)
    assert all(result.injected and result.latency_series for result in injected)


@pytest.mark.parametrize("name", list(_REAL_RUNS))
def test_format_3_record_is_format_2_minus_the_nested_series(real_results, name):
    result = real_results[name]
    expected = _format_2_dict(result)
    assert expected["client_observations"].pop("latency_series") == result.latency_series
    assert result_to_dict(result) == expected


@pytest.mark.parametrize("name", list(_REAL_RUNS))
def test_format_2_and_format_3_records_decode_to_equal_results(real_results, name):
    result = real_results[name]
    from_2 = result_from_dict(json.loads(json.dumps(_format_2_dict(result))))
    from_3 = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
    assert from_2 == from_3 == result
    assert from_3.client_observations.latency_series is from_3.latency_series


def test_result_to_dict_refuses_divergent_series():
    result = _full_result()
    result.client_observations.latency_series = [0.01, 0.0, 0.5]
    with pytest.raises(ValueError, match="latency_series"):
        result_to_dict(result)


# Record format 4 stores the series packed: base64 of its little-endian
# float64 bytes.  Series are drawn as raw 64-bit patterns, so every double
# (-0.0, subnormals, infinities, NaN payloads) is reachable, and compared as
# struct bytes, since NaN != NaN.


def _doubles(bits: list[int]) -> list[float]:
    return list(struct.unpack(f"<{len(bits)}d", struct.pack(f"<{len(bits)}Q", *bits)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
@example([])
@example([0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF])  # -0.0, subnormals
@example([0x7FF0000000000000, 0xFFF0000000000000])  # +inf, -inf
@example([0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8DEADBEEF0001])  # NaN payloads
def test_packed_series_round_trip_is_bit_exact(bits):
    series = _doubles(bits)
    packed = resultstore._pack_series(series)
    assert isinstance(packed, str)
    unpacked = resultstore._unpack_series(json.loads(json.dumps(packed)))
    assert struct.pack(f"<{len(bits)}Q", *bits) == struct.pack(f"<{len(unpacked)}d", *unpacked)


@pytest.mark.parametrize("name", list(_REAL_RUNS))
def test_packed_and_list_records_decode_to_equal_results(real_results, name):
    result = real_results[name]
    stored = resultstore._stored_dict(result)
    assert stored["latency_series"] == resultstore._pack_series(result.latency_series)
    assert dict(stored, latency_series=result.latency_series) == result_to_dict(result)
    from_list = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
    from_packed = result_from_dict(json.loads(json.dumps(stored)))
    assert from_packed == from_list == result
    assert from_packed.client_observations.latency_series is from_packed.latency_series


@pytest.mark.parametrize(
    "series",
    ["not base64!", "AAAA", resultstore._pack_series([1.0])[:-4], 0.5, None, {"0": 1.0}, (1.0,)],
    ids=["not-base64", "3-bytes", "cut-double", "float", "none", "dict", "tuple"],
)
def test_malformed_series_raises_value_error_naming_it(series):
    with pytest.raises(ValueError, match="latency_series"):
        result_from_dict(dict(result_to_dict(_full_result()), latency_series=series))


# One serialization: every campaign object survives the JSON round trip
# exactly, and its identity (the fingerprint) survives with it.

_names = st.text(max_size=12)
_scalars = st.none() | st.booleans() | st.integers() | _names
_seconds = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)

_faults = st.builds(
    FaultSpec,
    channel=st.sampled_from(InjectionChannel),
    kind=_names,
    field_path=st.none() | _names,
    name=st.none() | _names,
    namespace=st.none() | _names,
    component=st.none() | _names,
    fault_type=st.sampled_from(FaultType),
    bit_index=st.integers(0, 4095),
    set_value=_scalars,
    occurrence=st.integers(1, 10),
)
_tasks = st.builds(
    ExperimentTask,
    index=st.integers(0, 10**6),
    workload=st.sampled_from(WorkloadKind),
    fault=_faults,
    seed=st.integers(0, 2**31),
)
_recorded_fields = st.builds(
    RecordedField,
    kind=_names,
    name=_names,
    namespace=st.none() | _names,
    path=_names,
    value_type=st.sampled_from(["int", "str", "bool"]),
    example_value=st.booleans() | st.integers() | _names,
)
_configs = st.builds(
    ExperimentConfig,
    boot_seconds=_seconds,
    setup_seconds=_seconds,
    run_seconds=_seconds | st.integers(1, 600),  # a spec may say 90, not 90.0
    max_events=st.integers(1, 10**6),
    failover_node=_names,
    cluster=st.builds(
        ClusterConfig,
        worker_nodes=st.integers(1, 8),
        control_plane_nodes=st.sampled_from([1, 3]),
        pod_eviction_timeout=_seconds,
        seed=st.integers(0, 1000),
        apiserver_cache=st.booleans(),
    ),
)


@st.composite
def _baselines(draw):
    """Baselines built the way production builds them, through
    ``GoldenBaseline.from_golden_runs``, so whatever it leaves in the lists
    is in here."""
    runs = draw(st.integers(1, 4))
    latency = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
    return GoldenBaseline.from_golden_runs(
        workload=draw(st.sampled_from(WorkloadKind)).value,
        series=draw(st.lists(st.lists(latency, max_size=6), min_size=runs, max_size=runs)),
        expected_replicas=draw(st.integers(0, 10)),
        expected_endpoints=draw(st.integers(0, 10)),
        pods_created=draw(st.lists(st.integers(0, 50), min_size=runs, max_size=runs)),
        settle_times=draw(st.lists(_seconds, min_size=runs, max_size=runs)),
        client_errors=draw(st.lists(st.integers(0, 9), min_size=runs, max_size=runs)),
    )


def _through_json(to_dict, from_dict, value):
    return from_dict(json.loads(json.dumps(to_dict(value))))


@settings(max_examples=50, deadline=None)
@given(st.lists(_tasks, max_size=4), _configs, st.none() | _baselines(), st.lists(_recorded_fields, max_size=3))
def test_campaign_objects_and_their_fingerprints_survive_json(tasks, config, baseline, recorded):
    tasks_back = [_through_json(task_to_dict, task_from_dict, task) for task in tasks]
    config_back = _through_json(config_to_dict, config_from_dict, config)
    baseline_back = _through_json(baseline_to_dict, baseline_from_dict, baseline)
    recorded_back = [
        _through_json(recorded_field_to_dict, recorded_field_from_dict, field)
        for field in recorded
    ]
    assert (tasks_back, config_back, baseline_back, recorded_back) == (
        tasks, config, baseline, recorded,
    )
    assert [canonical_bytes(recorded_field_to_dict(field)) for field in recorded_back] == [
        canonical_bytes(recorded_field_to_dict(field)) for field in recorded
    ]
    # Identity is a function of the stored bytes, so it survives the trip.
    assert tasks_fingerprint(tasks_back) == tasks_fingerprint(tasks)
    assert campaign_fingerprint(tasks_back, config_back, {"w": baseline_back}) == (
        campaign_fingerprint(tasks, config, {"w": baseline})
    )
    preps = [WorkloadPrep(WorkloadKind.DEPLOY, golden_runs=2, record_seed=50)]
    assert prep_fingerprint(config_back, preps) == prep_fingerprint(config, preps)


def test_fingerprint_does_not_depend_on_numpy_scalar_types():
    """The parent hashed ``repr(baseline)``: ``np.float64(1.25)`` on numpy 2,
    ``1.25`` on numpy 1 and after a JSON round trip — three identities for
    one baseline.  Production now emits plain floats, and the fingerprint
    reads the same bytes from either."""
    baseline = GoldenBaseline.from_golden_runs(
        "deploy", [[1.0, 1.5], [1.5, 1.0]], 6, 6, [10, 12], [30.0, 31.0], [0, 1]
    )
    assert all(type(value) is float for value in baseline.baseline_series)
    np = pytest.importorskip("numpy")
    as_numpy = dataclasses.replace(
        baseline, baseline_series=[np.float64(value) for value in baseline.baseline_series]
    )
    config = ExperimentConfig()
    assert campaign_fingerprint([], config, {"deploy": as_numpy}) == (
        campaign_fingerprint([], config, {"deploy": baseline})
    )
    # ...and it still tells two baselines apart.
    other = dataclasses.replace(baseline, expected_replicas=7)
    assert campaign_fingerprint([], config, {"deploy": other}) != (
        campaign_fingerprint([], config, {"deploy": baseline})
    )


# ------------------------------------------------------------------- store


def test_store_round_trip_through_gzip_shards(tmp_path):
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=4)
    records = [(index, _full_result(index)) for index in range(4)]
    store.write_shard(records[:2])
    store.write_shard(records[2:])
    assert store.record_count() == 4
    assert list(store.iter_all()) == [result for _, result in records]
    assert store.load_result(3) == records[3][1]
    assert store.compressed_bytes() > 0


def test_result_writers_pack_the_series_and_the_dict_writer_copies_verbatim(tmp_path):
    """``write_shard`` and ``BatchedShardWriter.write`` store the series
    packed; ``write_shard_dicts`` (federation's path) writes the dict it is
    given, list series and all, byte for byte."""
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=3)
    store.write_shard([(0, _full_result(0))])
    store.batched_writer(2).write([(1, _full_result(1))])
    listed = result_to_dict(_full_result(2))
    path = store.write_shard_dicts([(2, listed)])
    for index in (0, 1):
        record = store.load_record(index)
        assert record["latency_series"] == resultstore._pack_series([0.01, 0.0, 0.25])
        assert store.load_result(index) == _full_result(index)
    with open(path, "rb") as handle:
        assert gzip.decompress(handle.read()) == canonical_bytes(
            {"index": 2, "result": listed}
        ) + b"\n"
    assert store.load_result(2) == _full_result(2)


def test_store_shard_bytes_are_deterministic(tmp_path):
    # Same results -> byte-identical shard (gzip mtime pinned to 0).
    a = ShardedResultStore(str(tmp_path / "a"))
    b = ShardedResultStore(str(tmp_path / "b"))
    a.open("fp", 2)
    b.open("fp", 2)
    records = [(index, _full_result(index)) for index in range(2)]
    path_a = a.write_shard(records)
    path_b = b.write_shard(records)
    with open(path_a, "rb") as ha, open(path_b, "rb") as hb:
        assert ha.read() == hb.read()
    assert a.results_digest() == b.results_digest()


def test_store_rejects_foreign_fingerprint(tmp_path):
    root = str(tmp_path / "store")
    store = ShardedResultStore(root)
    store.open("fingerprint-a", total=4)
    ShardedResultStore(root).open("fingerprint-a", total=4)  # same plan: fine
    with pytest.raises(ResultStoreMismatchError):
        ShardedResultStore(root).open("fingerprint-b", total=4)


def test_store_prep_round_trip_and_mismatch(tmp_path):
    store = ShardedResultStore(str(tmp_path / "store"))
    prepared = [
        (
            GoldenBaseline(workload="deploy", baseline_series=[0.5, 1.25], golden_maes=[0.1]),
            [RecordedField("Pod", "web", "default", "spec.nodeName", "str", "worker-1")],
        ),
        (None, []),  # golden_runs=0: fields only (the propagation experiments)
    ]
    store.save_prep("prep-fp", prepared)
    assert store.load_prep("prep-fp") == prepared
    with pytest.raises(ResultStoreMismatchError):
        store.load_prep("other-fp")
    absent = ShardedResultStore(str(tmp_path / "absent"))
    assert absent.load_prep("prep-fp") is None


#: The ways a stored plan or prep document can be wrong without being absent.
MALFORMED_CASES = (
    "truncated",
    "not-json",
    "non-object",
    "other-version",
    "missing-field",
    "mistyped-field",
    "mistyped-entry",
)


def malformed(valid: bytes, case: str, list_key: str) -> bytes:
    """``valid`` (a plan or prep document) damaged as ``case`` names;
    ``list_key`` is its field holding the list of tasks / prepared entries."""
    document = json.loads(valid)
    if case == "truncated":
        return valid[: len(valid) // 2]
    if case == "not-json":
        return b"\x80\x04\x95\x10not json"
    if case == "non-object":
        return b"[1, 2]"
    if case == "other-version":
        document["version"] = 1
    elif case == "missing-field":
        del document["fingerprint"]
    elif case == "mistyped-field":
        document[list_key] = 5
    elif case == "mistyped-entry":
        document[list_key][0] = "not an object"
    return json.dumps(document).encode("utf-8")


@pytest.mark.parametrize("case", MALFORMED_CASES)
def test_malformed_prep_means_recompute_never_an_exception(tmp_path, case):
    store = ShardedResultStore(str(tmp_path / "store"))
    store.save_prep("prep-fp", [(GoldenBaseline(workload="deploy"), [])])
    store.transport.put(
        "prep.json", malformed(store.transport.get("prep.json"), case, "prepared")
    )
    assert store.load_prep("prep-fp") is None


def test_truncated_shard_yields_readable_prefix(tmp_path):
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=8)
    path = store.write_shard([(index, _full_result(index)) for index in range(8)])

    # Chop the gzip stream in half: the tail record(s) are lost, the prefix
    # must still parse, and nothing may raise.
    with open(path, "rb") as handle:
        payload = handle.read()
    with open(path, "wb") as handle:
        handle.write(payload[: len(payload) // 2])

    store.refresh()
    completed = set(store.completed_indexes())
    assert completed < set(range(8))  # strictly fewer than written
    for index in sorted(completed):
        assert store.load_result(index) == _full_result(index)


def test_plan_order_iteration_loads_each_shard_once(tmp_path, monkeypatch):
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=6)
    for start in range(0, 6, 2):
        store.write_shard([(index, _full_result(index)) for index in range(start, start + 2)])

    loads: list[str] = []
    original = ShardedResultStore._load_shard

    def counting_load(self, path):
        loads.append(path)
        return original(self, path)

    monkeypatch.setattr(ShardedResultStore, "_load_shard", counting_load)
    view = StoredResults(store, list(range(6)))
    assert len(view) == 6
    assert [result.seed for result in view] == [1000 + index for index in range(6)]
    # Plan-order streaming decompresses each of the 3 shards exactly once:
    # peak memory is one shard, not the campaign.
    assert len(loads) == 3
    assert len(set(loads)) == 3


def test_refresh_only_parses_new_shards(tmp_path, monkeypatch):
    # Shards are immutable once renamed into place, so a refresh (the
    # distributed coordinator and workers poll the store continuously) must
    # decompress only shards it has never seen — not the whole store again.
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=4)
    store.write_shard([(index, _full_result(index)) for index in range(0, 2)])

    parses: list[str] = []
    original = ShardedResultStore._get_shard

    def counting(self, key):
        parses.append(key)
        return original(self, key)

    monkeypatch.setattr(ShardedResultStore, "_get_shard", counting)
    assert set(store.completed_indexes()) == {0, 1}
    assert len(parses) == 1
    store.write_shard([(index, _full_result(index)) for index in range(2, 4)])
    store.refresh()
    assert set(store.completed_indexes()) == {0, 1, 2, 3}
    assert len(parses) == 2  # only the new shard was decompressed
    # The raw-record count rides the same cache: no further decompression.
    assert store.stored_record_count() == 4
    assert len(parses) == 2

    # A shard truncated in place (same path, smaller size) is re-parsed.
    victim = store.shard_paths()[0]
    with open(victim, "rb") as handle:
        payload = handle.read()
    with open(victim, "wb") as handle:
        handle.write(payload[: len(payload) // 2])
    store.refresh()
    assert set(store.completed_indexes()) < {0, 1, 2, 3}
    assert len(parses) == 3


def test_same_size_rewrite_invalidates_the_parse_cache(tmp_path):
    # Regression: the parse cache used to be keyed on file *size* alone, so
    # a same-named shard atomically replaced by equal-size different content
    # (e.g. a truncated shard whose readable prefix parsed, then rewritten)
    # was served stale.  The cache now keys on the full generation token
    # (size + mtime + identity).
    import os

    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=4)
    path = store.write_shard([(index, _full_result(index)) for index in range(4)])
    assert set(store.completed_indexes()) == {0, 1, 2, 3}

    # Equal-size, different content: corrupt one byte mid-stream, shortening
    # the readable prefix without changing the file size.
    with open(path, "rb") as handle:
        payload = bytearray(handle.read())
    payload[len(payload) // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(payload)
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))

    store.refresh()
    assert set(store.completed_indexes()) < {0, 1, 2, 3}  # not served stale


def test_record_with_index_but_no_result_ends_the_readable_prefix(tmp_path):
    # Regression: a shard line holding an "index" but no "result" used to
    # yield an empty dict that exploded much later as a KeyError deep inside
    # result_from_dict during aggregation; it is a truncation like any
    # other — the shard ends at the last complete record before it.
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=3)
    good = json.dumps({"index": 0, "result": result_to_dict(_full_result(0))})
    lost = json.dumps({"index": 1})  # the write died between the two fields
    after = json.dumps({"index": 2, "result": result_to_dict(_full_result(2))})
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as stream:
        for line in (good, lost, after):
            stream.write(line.encode("utf-8") + b"\n")
    store.transport.put("shards/shard-00000000-00000002.jsonl.gz", buffer.getvalue())

    assert set(store.completed_indexes()) == {0}
    assert store.load_result(0) == _full_result(0)
    assert len(store.results_digest()) == 64  # aggregation no longer explodes
    assert list(store.iter_all()) == [_full_result(0)]


def _gzip_member(records: list[tuple[int, dict]], level: int = 9) -> bytes:
    """One shard member written by ``GzipFile`` at ``level``, mtime 0.  The
    default, gzip's level 9, is how stores were written before
    ``SHARD_GZIP_LEVEL``."""
    buffer = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buffer, mtime=0, compresslevel=level) as stream:
        for index, data in records:
            stream.write(canonical_bytes({"index": index, "result": data}) + b"\n")
    return buffer.getvalue()


def test_shard_with_a_member_failing_its_crc_yields_no_record(tmp_path):
    # A damaged byte can leave every line of a member parseable: here one
    # digit of a stored (uncompressed) member.  Only the member's CRC tells,
    # and it is checked after the member's last line, so the shard hands out
    # nothing rather than the altered record; resume re-runs all four.
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=4)
    records = [(index, result_to_dict(_full_result(index))) for index in range(4)]
    intact = _gzip_member(records[2:], level=0)
    damaged = intact.replace(b'"seed":1002', b'"seed":1009')
    assert damaged != intact and len(damaged) == len(intact)
    store.transport.put("shards/shard-00000000-00000003.jsonl.gz", _gzip_member(records[:2]) + damaged)
    assert store.completed_indexes() == {}


def test_scan_leaves_fresh_shard_in_read_cache(tmp_path, monkeypatch):
    # The distributed coordinator's hot path: each poll scans the store and
    # immediately folds the indexes it just discovered.  The scan must hand
    # its decompressed records to the read cache so the fold doesn't gunzip
    # the same (typically single new) shard a second time.
    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=2)
    store.write_shard([(index, _full_result(index)) for index in range(2)])
    store.refresh()
    assert set(store.completed_indexes()) == {0, 1}

    def explode(self, path):
        raise AssertionError("freshly scanned shard was decompressed twice")

    monkeypatch.setattr(ShardedResultStore, "_load_shard", explode)
    assert store.load_result(1) == _full_result(1)


def test_streaming_pass_memory_is_bounded_by_one_shard(tmp_path):
    # 2,000 results across 100 shards: a full streaming pass (the tally all
    # aggregations fold from) must peak far below the materialized campaign,
    # i.e. peak memory tracks the shard size, not the experiment count.
    import tracemalloc

    from repro.core.campaign import CampaignResult

    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=2000)
    for start in range(0, 2000, 20):
        store.write_shard([(index, _full_result(index)) for index in range(start, start + 20)])

    tracemalloc.start()
    materialized = list(store.iter_all())
    _, materialized_peak = tracemalloc.get_traced_memory()
    assert len(materialized) == 2000
    del materialized
    tracemalloc.stop()

    store.refresh()
    tracemalloc.start()
    campaign = CampaignResult(results=store.all_results())
    assert campaign.total_experiments() == 2000
    assert campaign.activation_rate() == 1.0
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # The streaming pass keeps the index map (a few dozen bytes per index)
    # and one decompressed shard; the result payloads — the part that grows
    # with experiment size — never accumulate.  5x headroom keeps the
    # assertion robust across allocator details.
    assert streaming_peak < materialized_peak / 5


def test_random_point_reads_memory_is_bounded_by_one_shard(tmp_path):
    # The read cache keeps one shard's raw lines and parses only the records
    # asked for: 200 reads in random order over 100 shards × 20 records peak
    # below holding two shards' records.
    import random
    import tracemalloc

    store = ShardedResultStore(str(tmp_path / "store"))
    store.open("fp", total=2000)
    for start in range(0, 2000, 20):
        store.write_shard([(index, _full_result(index)) for index in range(start, start + 20)])

    reader = ShardedResultStore(str(tmp_path / "store"))
    reader.completed_indexes()
    tracemalloc.start()
    two_shards = [reader.load_record(index) for index in range(40)]
    _, two_shards_peak = tracemalloc.get_traced_memory()
    del two_shards
    tracemalloc.stop()

    reader.refresh()
    reader.completed_indexes()
    rng = random.Random(7)
    tracemalloc.start()
    for _ in range(200):
        reader.load_record(rng.randrange(2000))
    _, reads_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert reads_peak < two_shards_peak


def _two_shard_store(root: str) -> tuple[ShardedResultStore, list[tuple[int, dict]]]:
    store = ShardedResultStore(root)
    store.open("fp", total=6)
    records = [(index, result_to_dict(_full_result(index))) for index in range(6)]
    store.write_shard_dicts(records[:3])
    store.write_shard_dicts(records[3:])
    return store, records


def test_a_point_read_parses_one_line_and_a_repeat_read_none(tmp_path, monkeypatch):
    store, records = _two_shard_store(str(tmp_path))
    assert len(store.completed_indexes()) == 6  # leaves the second shard parsed
    parsed: list[bytes] = []
    original = resultstore._parse_shard_line

    def counting(raw):
        parsed.append(raw)
        return original(raw)

    monkeypatch.setattr(resultstore, "_parse_shard_line", counting)
    assert store.load_record(1) == records[1][1]  # the first shard: read raw
    assert len(parsed) == 1
    assert store.load_record(1) == records[1][1]
    assert len(parsed) == 1
    assert store.load_result(2) == _full_result(2)
    assert len(parsed) == 2


class _AppendingBeforeRead:
    """A transport that appends one member to ``key`` just before the first
    read of it: a worker's append landing between a scan's stat and get."""

    def __init__(self, inner, key: str, member: bytes):
        self._inner = inner
        self._key = key
        self._member: bytes | None = member

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _append_once(self, key: str) -> None:
        if key == self._key and self._member is not None:
            member, self._member = self._member, None
            assert self._inner.append(key, member, self._inner.stat(key).generation)

    def get(self, key: str) -> bytes:
        self._append_once(key)
        return self._inner.get(key)

    def get_with_stat(self, key: str):
        self._append_once(key)
        return self._inner.get_with_stat(key)


def test_scan_caches_the_generation_of_the_bytes_it_parsed(tmp_path):
    # The parse cache's index list is also the line position of each record
    # for positional reads, so it must be keyed by the generation of the
    # bytes it came from, not by a stat taken before the read.
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=4)
    records = [(index, result_to_dict(_full_result(index))) for index in range(4)]
    store.write_shard_dicts(records[:2])
    (key,) = store.shard_keys()
    store.transport = _AppendingBeforeRead(store.transport, key, resultstore._encode_member(records[2:]))
    assert set(store.completed_indexes()) == {0, 1, 2, 3}
    assert store.shard_cache[key] == (store.transport.stat(key).generation, [0, 1, 2, 3])
    store.refresh()  # drop the scan's parsed records: reads go by position
    for index, data in reversed(records):
        assert store.load_record(index) == data


def test_a_read_after_the_shard_changed_names_the_index_and_the_shard(tmp_path):
    store, records = _two_shard_store(str(tmp_path))
    first, second = store.shard_keys()
    assert len(store.completed_indexes()) == 6
    # The first shard is rewritten without index 0: a new generation, read
    # through the validating parser, which no longer finds the index.
    store.transport.put(first, resultstore._encode_member(records[1:3]))
    with pytest.raises(KeyError, match=rf"index 0 .*{re.escape(first)}"):
        store.load_record(0)
    assert store.load_record(1) == records[1][1]
    store.transport.delete(second)
    with pytest.raises(KeyError, match=rf"index 4 .*{re.escape(second)}"):
        store.load_record(4)
    with pytest.raises(KeyError, match="index 9 is not in the store"):
        store.load_record(9)


def _layout_member(shard: int, member: int, lines: list, damaged: bool) -> bytes:
    """One gzip member of the property's layouts: ``("record", n)`` lines
    carry a result naming where they were written, ``("lost", n)`` lines
    are ``{"index": n}`` and end the readable prefix.  A damaged member is
    stored (level 0) with one character of a record changed, so every line
    still parses and only the CRC tells."""
    raw = [
        canonical_bytes(
            {"index": index}
            if kind == "lost"
            else {"index": index, "result": {"seed": index, "writer": f"s{shard}m{member}p{position}"}}
        )
        + b"\n"
        for position, (kind, index) in enumerate(lines)
    ]
    buffer = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buffer, mtime=0, compresslevel=0 if damaged else 3) as stream:
        stream.write(b"".join(raw))
    payload = buffer.getvalue()
    return payload.replace(b'"writer":"s', b'"writer":"S', 1) if damaged else payload


_layout_lines = st.tuples(st.sampled_from(["record", "record", "record", "lost"]), st.integers(0, 7))
_layout_shards = st.fixed_dictionaries(
    {
        "members": st.lists(st.lists(_layout_lines, min_size=1, max_size=4), min_size=1, max_size=3),
        "torn": st.none() | st.floats(0.05, 0.95),
        "damaged": st.none() | st.integers(0, 2),
    }
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_layout_shards, min_size=1, max_size=4), st.lists(st.integers(0, 8), max_size=30))
def test_point_reads_equal_a_full_parse_in_any_order(layout, reads):
    # Plain and batched shards, indexes repeated within and across shards,
    # torn trailing members, lines that end the readable prefix and members
    # failing their CRC, read in any order: every read equals a full parse
    # of the shards in key order (later shards win), and the digest holds.
    import hashlib
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        writer = ShardedResultStore(root)
        for number, shard in enumerate(layout):
            members = [
                _layout_member(number, position, lines, shard["damaged"] == position)
                for position, lines in enumerate(shard["members"])
            ]
            if shard["torn"] is not None:
                members[-1] = members[-1][: max(1, int(len(members[-1]) * shard["torn"]))]
            writer.transport.put(f"shards/shard-{number:08d}-{number:08d}.jsonl.gz", b"".join(members))

        reference: dict[int, dict] = {}
        for key in writer.shard_keys():
            reference.update(resultstore._shard_lines(writer.transport.get(key), resultstore._parse_shard_line))
        expected = hashlib.sha256()
        for index in sorted(reference):
            expected.update(canonical_bytes({"index": index, "result": reference[index]}) + b"\n")

        store = ShardedResultStore(root)
        for index in reads:
            if index in reference:
                assert store.load_record(index) == reference[index]
            else:
                with pytest.raises(KeyError):
                    store.load_record(index)
        assert set(store.completed_indexes()) == set(reference)
        assert store.results_digest() == expected.hexdigest()
        assert ShardedResultStore(root).results_digest() == expected.hexdigest()


# ------------------------------------------------- store-backed campaigns


@pytest.fixture(scope="module")
def streamed_campaign(tmp_path_factory):
    """One small serial campaign run in memory and into a store."""
    config = _tiny_config(workers=1, chunk_size=2)
    in_memory = Campaign(config).run()
    root = str(tmp_path_factory.mktemp("streamed") / "results")
    streamed = Campaign(config).run(results_dir=root)
    return config, in_memory, root, streamed


def test_streaming_campaign_matches_in_memory_and_resumes(streamed_campaign, monkeypatch):
    config, in_memory, root, streamed = streamed_campaign
    assert list(streamed.results) == in_memory.results
    # StoredResults compares element-wise against plain lists too, so whole
    # CampaignResult comparisons work whether a campaign streamed or not.
    assert streamed.results == in_memory.results
    assert streamed.baselines == in_memory.baselines
    assert streamed.classification_counts() == in_memory.classification_counts()

    # Rerunning the same configuration replays zero completed experiments:
    # progress reports everything done immediately and no experiment runs.
    calls: list[tuple[int, int]] = []

    def forbidden(*args, **kwargs):
        raise AssertionError("a completed experiment was re-executed on resume")

    monkeypatch.setattr(ExperimentRunner, "run_experiment", forbidden)
    resumed = Campaign(config).run(
        results_dir=root, progress=lambda done, total: calls.append((done, total))
    )
    total = len(in_memory.results)
    assert calls == [(total, total)]
    assert list(resumed.results) == in_memory.results


def test_tables_folded_from_the_store_equal_the_in_memory_tables(streamed_campaign):
    """The science guard of the record format: the paper's tables folded
    from the store, whose records hold each latency series once and packed,
    are the in-memory run's tables byte for byte."""
    from repro.core import report

    _, in_memory, root, _ = streamed_campaign
    store = ShardedResultStore(root)
    records = [store.load_record(index) for index in store.completed_indexes()]
    assert all(
        "latency_series" not in record["client_observations"]
        and isinstance(record["latency_series"], str)
        for record in records
    )
    folded, _ = report.fold_store(store)
    assert canonical_bytes(report.tables_document(folded)) == canonical_bytes(
        report.tables_document(in_memory)
    )


def test_streaming_campaign_resumes_after_truncated_shard(tmp_path):
    config = _tiny_config(workers=1, chunk_size=2)
    root = str(tmp_path / "results")
    first = Campaign(config).run(results_dir=root)
    expected = list(first.results)

    # Truncate the last shard mid-record, as an interrupted run would.
    store = ShardedResultStore(root)
    victim = store.shard_paths()[-1]
    with open(victim, "rb") as handle:
        payload = handle.read()
    with open(victim, "wb") as handle:
        handle.write(payload[: len(payload) // 2])
    store.refresh()
    survivors = set(store.completed_indexes())
    lost = len(expected) - len(survivors)
    assert lost > 0

    calls: list[tuple[int, int]] = []
    resumed = Campaign(config).run(
        results_dir=root, progress=lambda done, total: calls.append((done, total))
    )
    assert list(resumed.results) == expected
    # The first progress call reports the surviving results; only the lost
    # ones are re-executed.
    assert calls[0] == (len(survivors), len(expected))
    assert calls[-1] == (len(expected), len(expected))


def test_streaming_campaign_rejects_changed_configuration(tmp_path):
    root = str(tmp_path / "results")
    Campaign(_tiny_config(workers=1)).run(results_dir=root)
    with pytest.raises(ResultStoreMismatchError):
        Campaign(_tiny_config(workers=1, golden_runs=2)).run(results_dir=root)


@pytest.mark.parametrize("backend", ["local", "distributed"])
def test_mispointed_results_dir_is_left_untouched(tmp_path, backend):
    # A foreign store whose prep.json is missing cannot be recognized as
    # foreign until the campaign fingerprint is computed; the run must still
    # be rejected *before* anything is written into the foreign store — no
    # prep, no shard and (distributed coordinator) no published plan.
    import os

    def tree():
        return {
            path: path.read_bytes()
            for path in (tmp_path / "results").rglob("*")
            if path.is_file()
        }

    root = str(tmp_path / "results")
    Campaign(_tiny_config(workers=1)).run(results_dir=root)
    os.remove(os.path.join(root, "prep.json"))
    before = tree()
    with pytest.raises(ResultStoreMismatchError):
        Campaign(_tiny_config(workers=1, golden_runs=2)).run(results_dir=root, backend=backend)
    assert tree() == before


def test_streaming_campaign_skips_prep_on_resume(tmp_path, monkeypatch):
    config = _tiny_config(workers=1, max_experiments_per_workload=2)
    root = str(tmp_path / "results")
    first = Campaign(config).run(results_dir=root)

    def explode(*args, **kwargs):
        raise AssertionError("prep must come from the result store on resume")

    monkeypatch.setattr(ExperimentRunner, "run_golden", explode)
    resumed = Campaign(config).run(results_dir=root)
    assert list(resumed.results) == list(first.results)
    assert resumed.baselines == first.baselines
    assert resumed.recorded_fields == first.recorded_fields


# --------------------------------------------------------------------- CLI


def test_cli_campaign_results_dir_and_inspect(tmp_path, capsys):
    from repro.cli import main

    root = str(tmp_path / "results")
    exit_code = main(
        [
            "campaign",
            "--workloads",
            "deploy",
            "--golden-runs",
            "1",
            "--max-experiments",
            "2",
            "--seed",
            "3",
            "--workers",
            "1",
            "--quiet",
            "--results-dir",
            root,
        ]
    )
    assert exit_code == 0
    assert "Campaign summary" in capsys.readouterr().out

    json_path = str(tmp_path / "inspect.json")
    assert main(["inspect", root, "--json", json_path]) == 0
    out = capsys.readouterr().out
    assert "Result store summary" in out
    assert "shards" in out
    with open(json_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["experiments"] == 2
    assert sum(payload["classification_counts"].values()) == 2
    assert payload["results_digest"] == ShardedResultStore(root).results_digest()


def test_cli_inspect_rejects_non_store_directory(tmp_path, capsys):
    from repro.cli import main

    assert main(["inspect", str(tmp_path)]) == 2
    assert "not a result store" in capsys.readouterr().err


def test_cli_rejects_removed_checkpoint_flag(tmp_path, capsys):
    # The pickle checkpoint is gone; --results-dir is the one persistence path.
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "--checkpoint", str(tmp_path / "x.ckpt")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --checkpoint" in capsys.readouterr().err


def test_cli_names_bad_count_values(capsys):
    from repro.cli import main

    for flags in (["--workers", "0"], ["--chunk-size", "-2"], ["--workers", "lots"]):
        with pytest.raises(SystemExit):
            main(["campaign", *flags])
        err = capsys.readouterr().err
        assert "invalid value" in err
        assert flags[1] in err


# ------------------------------------------------------ batched shard upload


def test_batched_writer_coalesces_batches_into_one_shard(tmp_path):
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=8)
    writer = store.batched_writer(3)
    for start in (0, 2, 4):
        writer.write([(start, _full_result(start)), (start + 1, _full_result(start + 1))])
    assert len(store.shard_keys()) == 1  # three batches, one object
    # The fourth batch starts a fresh group.
    writer.write([(6, _full_result(6)), (7, _full_result(7))])
    assert len(store.shard_keys()) == 2

    # A fresh store instance (another process) reads every record exactly
    # once; concatenated gzip members decompress as one stream.
    again = ShardedResultStore(str(tmp_path))
    assert again.record_count() == 8
    assert again.stored_record_count() == 8
    for index in range(8):
        assert again.load_result(index) == _full_result(index)


def test_batched_and_per_batch_layouts_share_the_digest(tmp_path):
    records = [(index, _full_result(index)) for index in range(6)]
    per_batch = ShardedResultStore(str(tmp_path / "per-batch"))
    per_batch.open("fp", total=6)
    for index, result in records:
        per_batch.write_shard([(index, result)])
    batched = ShardedResultStore(str(tmp_path / "batched"))
    batched.open("fp", total=6)
    writer = batched.batched_writer(4)
    for index, result in records:
        writer.write([(index, result)])
    assert len(batched.shard_keys()) < len(per_batch.shard_keys())
    assert batched.results_digest() == per_batch.results_digest()


def test_batched_writer_truncated_tail_keeps_earlier_members(tmp_path):
    # A shard whose last appended member is torn (the worker died mid-append)
    # must still yield every earlier batch: members are self-contained.
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=6)
    writer = store.batched_writer(3)
    for start in (0, 2, 4):
        writer.write([(start, _full_result(start)), (start + 1, _full_result(start + 1))])
    (key,) = store.shard_keys()
    payload = store.transport.get(key)
    store.transport.put(key, payload[:-20])  # tear into the last member
    fresh = ShardedResultStore(str(tmp_path))
    completed = set(fresh.completed_indexes())
    assert {0, 1, 2, 3} <= completed
    assert completed < set(range(6))
    for index in sorted(completed):
        assert fresh.load_result(index) == _full_result(index)


def test_batched_writer_never_destroys_a_predecessors_later_members(tmp_path):
    # A lease-losing worker may have appended *more* batches to the shard
    # this batch's name points at ("already written shards always survive").
    # A replaying successor that finds the key taken must keep every record
    # readable there — skipping its own write when the batch is already
    # covered — never overwrite the object down to its own batch.
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=4)
    predecessor = store.batched_writer(4)
    predecessor.write([(0, _full_result(0)), (1, _full_result(1))])
    predecessor.write([(2, _full_result(2)), (3, _full_result(3))])  # appended

    replayer = ShardedResultStore(str(tmp_path)).batched_writer(4)
    replayer.write([(0, _full_result(0)), (1, _full_result(1))])  # stale pending

    fresh = ShardedResultStore(str(tmp_path))
    assert fresh.record_count() == 4  # records 2-3 survived the replay
    assert fresh.stored_record_count() == 4  # and nothing was duplicated
    for index in range(4):
        assert fresh.load_result(index) == _full_result(index)


def test_batched_writer_replaces_a_fully_torn_namesake(tmp_path):
    # The legitimate overwrite case: the existing object's readable prefix
    # does not cover this batch (a predecessor died mid-create), so the
    # readable records and the batch are rewritten together, each index once.
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=2)
    writer = store.batched_writer(4)
    writer.write([(0, _full_result(0)), (1, _full_result(1))])
    (key,) = store.shard_keys()
    payload = store.transport.get(key)
    store.transport.put(key, payload[: len(payload) // 2])  # torn mid-create

    replayer = ShardedResultStore(str(tmp_path)).batched_writer(4)
    replayer.write([(0, _full_result(0)), (1, _full_result(1))])
    fresh = ShardedResultStore(str(tmp_path))
    assert fresh.record_count() == 2
    assert fresh.stored_record_count() == 2
    for index in range(2):
        assert fresh.load_result(index) == _full_result(index)


def test_level9_members_and_fast_members_share_one_store(tmp_path, monkeypatch):
    # A store begun at level 9 keeps working under the fast level: a batched
    # group opened with a level-9 member takes a fast member appended to the
    # same object, plain shards of both levels sit side by side, and the
    # federated result is indistinguishable from an all-new store.
    records = [(index, result_to_dict(_full_result(index))) for index in range(10)]
    new = ShardedResultStore(str(tmp_path / "new"))
    new.open("fp", total=10)
    for start in range(0, 10, 2):
        new.write_shard_dicts(records[start : start + 2])

    mixed = ShardedResultStore(str(tmp_path / "mixed"))
    mixed.open("fp", total=10)
    mixed.transport.put("shards/shard-00000000-00000001.jsonl.gz", _gzip_member(records[0:2]))
    writer = mixed.batched_writer(4)
    with monkeypatch.context() as patch:
        patch.setattr(resultstore, "_encode_member", _gzip_member)
        writer.write_dicts(records[2:4])
    writer.write_dicts(records[4:6])  # appended to the level-9 object
    mixed.write_shard_dicts(records[6:8])
    group = mixed.transport.get("shards/shard-00000002-00000003.jsonl.gz")
    head = _gzip_member(records[2:4])
    assert group[: len(head)] == head
    assert group[len(head) :] == resultstore._encode_member(records[4:6])
    assert group[len(head) :] != _gzip_member(records[4:6])

    rest = ShardedResultStore(str(tmp_path / "rest"))
    rest.open("fp", total=10)
    rest.write_shard_dicts(records[8:10])
    federated = str(tmp_path / "federated")
    federate_stores(federated, [str(tmp_path / "mixed"), str(tmp_path / "rest")])

    for root in (str(tmp_path / "mixed"), federated):
        store = ShardedResultStore(root)
        for index, data in records[: store.record_count()]:
            assert store.load_record(index) == data
    merged = ShardedResultStore(federated)
    assert (merged.results_digest(), merged.record_count(), merged.stored_record_count()) == (
        new.results_digest(), new.record_count(), new.stored_record_count(),
    )


def test_batched_writer_abandons_a_replaced_shard_group(tmp_path):
    # If the open shard changes hands (a reclaimed slice re-ran the same
    # indexes), the writer must not append to the impostor — it starts a
    # fresh shard and no record is lost or duplicated.
    store = ShardedResultStore(str(tmp_path))
    store.open("fp", total=4)
    writer = store.batched_writer(10)
    writer.write([(0, _full_result(0)), (1, _full_result(1))])
    (key,) = store.shard_keys()
    store.transport.put(key, store.transport.get(key))  # replaced: new generation
    writer.write([(2, _full_result(2)), (3, _full_result(3))])
    fresh = ShardedResultStore(str(tmp_path))
    assert fresh.record_count() == 4
    assert fresh.stored_record_count() == 4
    assert len(fresh.shard_keys()) == 2
