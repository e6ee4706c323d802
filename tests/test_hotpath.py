"""Regression tests for the profiled hot path.

Covers the codec's decode cache (aliasing and corrupted-bytes bypass), its
encode memo and seeded decodes (type-exactness, eviction under concurrency,
byte flips), the apiserver's copy semantics under its snapshot/blob caches,
compiled field paths, the store's bucketed watch dispatch, the write count
of one experiment per injection channel, and the ``repro.cli profile``
subcommand.
"""

import marshal
import struct
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.experiment as experiment
from repro.apiserver.apiserver import APIServer
from repro.apiserver.client import APIClient
from repro.cli import main
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.etcd.store import EtcdStore
from repro.hotpath import COUNTERS
from repro.objects.kinds import make_configmap, make_node, make_pod
from repro.serialization import (
    DecodeError,
    clear_codec_caches,
    codec,
    compile_path,
    decode,
    decode_shared,
    encode,
    seed_decode,
)
from repro.sim.engine import Simulation
from repro.workloads.workload import WorkloadKind


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_codec_caches()
    yield
    clear_codec_caches()


def _apiserver() -> APIServer:
    return APIServer(Simulation(), EtcdStore())


# ------------------------------------------------------------- decode cache


def test_decode_cache_returns_equal_but_independent_trees():
    data = encode(make_pod("cached", labels={"app": "x"}))
    first = decode(data)
    second = decode(data)
    assert first == second
    assert first is not second
    # Mutating one reader's tree must not leak into the other, nor into any
    # future decode of the same bytes.
    first["metadata"]["labels"]["app"] = "mutated"
    first["spec"]["containers"].append({"name": "rogue"})
    assert second["metadata"]["labels"]["app"] == "x"
    third = decode(data)
    assert third["metadata"]["labels"]["app"] == "x"
    assert third == second


def test_decode_cache_hit_counted():
    COUNTERS.reset()
    data = encode(make_pod("counted"))
    decode(data)
    decode(data)
    decode(data)
    assert COUNTERS.decodes == 1
    assert COUNTERS.decode_cache_hits == 2


def test_corrupted_bytes_bypass_cache_and_raise_every_time():
    data = encode(make_pod("victim"))
    decode(data)  # prime the cache with the healthy bytes
    corrupted = bytearray(data)
    corrupted[1] ^= 0x80  # break the varint framing
    for _ in range(3):
        with pytest.raises(DecodeError):
            decode(bytes(corrupted))
    # The healthy bytes still decode, from cache, unaffected.
    assert decode(data)["metadata"]["name"] == "victim"


def test_decode_shared_returns_shared_tree_on_hit():
    data = encode(make_pod("shared"))
    first = decode_shared(data)
    second = decode_shared(data)
    assert first is second  # the informer-cache read path shares the tree
    # A plain decode of the same bytes still hands out an independent copy.
    copied = decode(data)
    assert copied == first
    assert copied is not first
    copied["metadata"]["name"] = "mutated"
    assert decode_shared(data)["metadata"]["name"] == "shared"


class _EvictedOnRefresh(OrderedDict):
    """An LRU whose entry vanishes as a hit refreshes it — what another
    thread evicting it between the hit's two dictionary calls looks like."""

    def move_to_end(self, key, last=True):
        self.pop(key, None)
        super().move_to_end(key, last)


def test_cache_hit_tolerates_concurrent_eviction(monkeypatch):
    pod = make_pod("raced")
    data = encode(pod)
    for cache in ("_decode_cache", "_encode_memo"):
        monkeypatch.setattr(codec, cache, _EvictedOnRefresh(getattr(codec, cache)))
    decode(data)
    decode_shared(data)  # present, then evicted mid-hit: a miss, not KeyError
    assert decode(data)["metadata"]["name"] == "raced"
    assert encode(pod) == data


# ------------------------------------------------ encode memo, seeded decode


def _same(a, b) -> bool:
    """Type-exact tree equality: key order, ``True`` vs ``1``, NaN and -0.0."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[key], b[key]) for key in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _normal(node) -> bool:
    """Reference for decode normal form (no tuple, no int beyond 64 bits)."""
    if type(node) is dict:
        return all(_normal(value) for value in node.values())
    if type(node) is list:
        return all(_normal(value) for value in node)
    if type(node) is tuple:
        return False
    return type(node) is not int or -(2**63) <= node < 2**63


_EDGE_INTS = [2**63 - 1, 2**63, 2**63 + 1, -(2**63) - 1, -(2**63), -(2**63) + 1]
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**66), max_value=2**66),
    st.sampled_from(_EDGE_INTS),
    st.floats(),
    st.sampled_from([-0.0, float("nan")]),
    st.text(max_size=12),  # non-ASCII included, surrogates excluded
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=24,
)


def _config_map(tree) -> dict:
    return {**make_configmap("cm", namespace="default"), "data": tree}


_CM_KEY = "/registry/configmaps/default/cm"


def test_unhooked_write_decodes_nothing_and_a_hooked_one_decodes():
    api = _apiserver()
    before = COUNTERS.decodes
    api.create("Pod", make_pod("p"))
    assert COUNTERS.decodes == before  # seeded: the watch event hit
    api.set_etcd_write_hook(lambda context, data: bytes(bytearray(data)))
    api.update("Pod", api.get("Pod", "p"))
    assert COUNTERS.decodes == before + 1  # equal bytes, but not encode's own


@settings(max_examples=150, deadline=None)
@given(_TREES)
def test_seeded_cache_entry_is_exactly_what_decode_gives(tree):
    clear_codec_caches()
    api = _apiserver()
    before = COUNTERS.decodes
    api.create("ConfigMap", _config_map(tree))
    seeded = COUNTERS.decodes == before
    data = api.store.get(_CM_KEY).value
    if seeded:
        assert _same(api._cache[_CM_KEY], codec._decode_message(data))
    # Seeding is declined exactly where decoding would not give the tree back.
    assert seeded == _normal(tree)


@settings(max_examples=150, deadline=None)
@given(_TREES, _TREES)
def test_memoised_encode_equals_cold_encode(first, second):
    clear_codec_caches()
    trees = [
        {"metadata": {"resourceVersion": 7}, "t": first},
        {"t": second, "metadata": {"name": "b", "resourceVersion": 300}},
    ]
    cold = [encode(tree) for tree in trees]
    assert [encode(tree) for tree in trees] == cold  # memo hits, no aliasing
    assert cold == [codec._encode_message(tree) for tree in trees]
    clear_codec_caches()
    assert not codec._encode_memo
    assert [encode(tree) for tree in trees] == cold


@settings(max_examples=150, deadline=None)
@given(_TREES, st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=3))
def test_byte_flips_never_alias_a_cache_entry(tree, flips):
    clear_codec_caches()
    api = _apiserver()
    api.create("ConfigMap", _config_map(tree))  # seeds the cache when it can
    data = api.store.get(_CM_KEY).value
    corrupted = bytearray(data)
    for flip in flips:
        corrupted[flip % len(data)] ^= 1 << (flip // len(data) % 8)
    corrupted = bytes(corrupted)
    try:
        expected = codec._decode_message(corrupted)
    except DecodeError:
        for read in (decode, decode_shared):
            with pytest.raises(DecodeError):
                read(corrupted)
        assert corrupted not in codec._decode_cache
        return
    assert _same(decode(corrupted), expected)
    assert _same(decode_shared(corrupted), expected)


#: Versions where the varint grows a byte, the signed 64-bit ends, and one
#: past them (an int the memo must leave to a plain encode).
_EDGE_VERSIONS = [0, 1, 127, 128, 16383, 16384, 2**63 - 1, -(2**63), -1, 2**63]
_ABSENT = object()
_VERSIONS = st.one_of(
    st.sampled_from(_EDGE_VERSIONS),
    st.integers(min_value=0, max_value=2**40),
    st.sampled_from([True, False, "12", None, 12.0, _ABSENT]),
)
_KEYS = st.sampled_from(["name", "namespace", "uid", "labels", "generation", "x"])


@st.composite
def _api_objects(draw):
    """An API-shaped tree and several versions to stamp into copies of it."""
    meta_entries = draw(st.lists(st.tuples(_KEYS, _TREES), max_size=4, unique_by=lambda e: e[0]))
    at = draw(st.integers(min_value=0, max_value=len(meta_entries)))
    metadata = draw(
        st.one_of(
            st.just(meta_entries),
            _LEAVES,
            st.lists(_LEAVES, max_size=3),
        )
    )
    top = [("apiVersion", "v1"), ("kind", draw(st.sampled_from(["Pod", "Lease"])))]
    body = st.tuples(st.sampled_from(["spec", "status", "data"]), _TREES)
    top += draw(st.lists(body, max_size=3, unique_by=lambda e: e[0]))
    position = draw(st.integers(min_value=0, max_value=len(top)))
    versions = draw(st.lists(_VERSIONS, min_size=1, max_size=4))

    def stamp(version):
        if metadata is meta_entries:
            entries = list(meta_entries)
            if version is not _ABSENT:
                entries.insert(at, ("resourceVersion", version))
            meta = dict(entries)
        else:
            meta = metadata
        return dict(top[:position] + [("metadata", meta)] + top[position:])

    return [stamp(version) for version in versions]


@settings(max_examples=300, deadline=None)
@given(_api_objects())
def test_versioned_encode_equals_uncached_encode_cold_and_warm(objects):
    clear_codec_caches()
    for _ in ("cold", "warm"):
        for obj in objects:
            before = marshal.dumps(obj)
            data = encode(obj)
            assert marshal.dumps(obj) == before  # the argument is not mutated
            assert data == codec._encode_message(obj)
            seed_decode(data)
            try:
                expected = codec._decode_message(data)
            except DecodeError:
                with pytest.raises(DecodeError):
                    decode_shared(data)
                continue
            assert _same(decode_shared(data), expected)
            assert _same(decode(data), expected)


def test_encode_memo_hits_across_versions_and_never_serves_a_none_version():
    pod = make_pod("memo")
    hits = COUNTERS.encode_memo_hits
    stamped = []
    for version in (1, 127, 128, 16384):
        pod["metadata"]["resourceVersion"] = version
        stamped.append(encode(pod))
    assert COUNTERS.encode_memo_hits == hits + 3
    assert len(codec._encode_memo) == 1
    # A None version has the blanked tree's marshal bytes: it must not be
    # served a cut from the memo.
    pod["metadata"]["resourceVersion"] = None
    assert encode(pod) == codec._encode_message(pod)
    assert COUNTERS.encode_memo_hits == hits + 3
    assert [decode(data)["metadata"]["resourceVersion"] for data in stamped] == [1, 127, 128, 16384]


# --------------------------------------------------- apiserver copy semantics


def test_get_returns_independent_copies():
    api = _apiserver()
    api.create("Pod", make_pod("p", labels={"app": "web"}))
    a = api.get("Pod", "p")
    b = api.get("Pod", "p")
    assert a == b and a is not b
    a["metadata"]["labels"]["app"] = "defaced"
    assert api.get("Pod", "p")["metadata"]["labels"]["app"] == "web"


def test_list_returns_independent_copies_even_on_snapshot_hits():
    api = _apiserver()
    api.create("Pod", make_pod("p1", labels={"app": "web"}))
    api.create("Pod", make_pod("p2", labels={"app": "web"}))
    first = api.list("Pod")
    second = api.list("Pod")  # snapshot hit
    assert first == second
    first[0]["metadata"]["labels"]["app"] = "defaced"
    assert all(pod["metadata"]["labels"]["app"] == "web" for pod in api.list("Pod"))


def test_copy_false_reads_share_the_cache_entry():
    api = _apiserver()
    api.create("Pod", make_pod("p"))
    ref_a = api.get("Pod", "p", copy=False)
    ref_b = api.get("Pod", "p", copy=False)
    assert ref_a is ref_b  # informer contract: shared, read-only
    listed = api.list("Pod", copy=False)
    assert listed[0] is ref_a
    # A write replaces the entry wholesale; held refs keep the old snapshot.
    updated = api.get("Pod", "p")
    updated["metadata"]["labels"] = {"app": "v2"}
    api.update("Pod", updated)
    assert ref_a.get("metadata", {}).get("labels") != {"app": "v2"}
    assert api.get("Pod", "p", copy=False)["metadata"]["labels"] == {"app": "v2"}


def test_at_rest_corruption_still_raises_after_restart_with_caches():
    api = _apiserver()
    api.create("Pod", make_pod("p"))
    key = "/registry/pods/default/p"
    api.get("Pod", "p")  # warm every cache layer
    api.store._data[key].value = b"\xff\xff\xff\xff"
    # Masked by the watch cache until restart...
    assert api.get("Pod", "p")["metadata"]["name"] == "p"
    api.restart()
    # ...then the undecodable object is purged (paper §II-D).
    from repro.apiserver.errors import NotFoundError

    with pytest.raises(NotFoundError):
        api.get("Pod", "p")


# ------------------------------------------------------------ field selector


def test_field_selector_matches_bound_pods_only():
    api = _apiserver()
    bound = make_pod("bound", node_name="worker-1")
    api.create("Pod", bound)
    api.create("Pod", make_pod("pending"))
    client = APIClient(api, component="test")
    names = [
        pod["metadata"]["name"]
        for pod in client.list("Pod", field_selector={"spec.nodeName": "worker-1"})
    ]
    assert names == ["bound"]
    # A pod whose spec was corrupted into a scalar (at rest, the injector's
    # channel — validation never sees it) cannot match the selector.
    broken = api.get("Pod", "bound")
    broken["spec"] = "corrupted"
    api.store.put("/registry/pods/default/bound", encode(broken))
    assert client.list("Pod", field_selector={"spec.nodeName": "worker-1"}) == []


# ------------------------------------------------------------ compiled paths


def test_compiled_path_equivalent_to_interpreted_path():
    def interpreted(obj, path):
        # The reference: split and walk on every access.
        for part in path.split("."):
            obj = obj[part]
        return obj

    obj = make_pod("p", node_name="n1", labels={"app": "x"})
    for path in ("metadata.name", "metadata.labels.app", "spec.nodeName"):
        compiled = compile_path(path)
        assert compiled.get(obj) == interpreted(obj, path)
        assert compiled.find(obj) == interpreted(obj, path)
    missing = compile_path("spec.template.metadata.labels")
    sentinel = object()
    assert missing.find(obj, sentinel) is sentinel
    compile_path("metadata.labels.tier").set(obj, "backend")
    mirror = make_pod("p", node_name="n1", labels={"app": "x"})
    mirror["metadata"]["labels"]["tier"] = "backend"
    assert obj["metadata"]["labels"] == mirror["metadata"]["labels"]


# -------------------------------------------------------- store watch buckets


def test_store_skips_event_construction_without_subscribers():
    COUNTERS.reset()
    store = EtcdStore()
    store.put("/registry/pods/default/p", b"x")
    assert COUNTERS.watch_events_skipped == 1
    assert COUNTERS.watch_dispatches == 0


def test_store_dispatches_to_matching_prefix_in_registration_order():
    store = EtcdStore()
    seen: list[tuple[str, str]] = []
    store.watch("/registry/", lambda event: seen.append(("broad", event.key)))
    store.watch("/registry/pods/", lambda event: seen.append(("pods", event.key)))
    store.put("/registry/pods/default/p", b"x")
    store.put("/registry/nodes/n", b"y")
    assert seen == [
        ("broad", "/registry/pods/default/p"),
        ("pods", "/registry/pods/default/p"),
        ("broad", "/registry/nodes/n"),
    ]


def test_store_keys_bisect_matches_a_full_scan():
    store = EtcdStore()
    keys = ["/registry/pods/a/x", "/registry/pods/a", "/registry/pods/ab/y", "/registry/podsx", "/r"]
    for key in keys:
        store.put(key, b"v")
    prefixes = ("", "/", "/registry/pods/", "/registry/pods/a", "/registry/pods/a/", "/registry/podsx", "/z")
    for prefix in prefixes:
        assert store.keys(prefix) == sorted(key for key in keys if key.startswith(prefix))
        assert [entry.key for entry in store.range(prefix)] == store.keys(prefix)


# ------------------------------------------------------------- write count

#: The self-check experiments of the benchmark (one per injection channel) and
#: what each costs: ``COUNTERS`` deltas of encodes, validations and watch
#: dispatches, and the Apiserver's request-log length.  The campaign digest
#: cannot see a write that converges to the state it would have reached
#: anyway — a kubelet re-reporting a status it already wrote changes no
#: verdict — so these counts are pinned on their own.  To re-derive after a
#: deliberate change of the write sequence: run this test's body on the
#: commit before the change and print ``delta`` and ``len(request_log)``.
_WRITE_COUNTS = [
    (
        WorkloadKind.DEPLOY,
        FaultSpec(
            channel=InjectionChannel.APISERVER_TO_ETCD,
            kind="Deployment",
            field_path="spec.replicas",
            fault_type=FaultType.BIT_FLIP,
        ),
        7,
        (644, 643, 643, 643),
    ),
    (
        WorkloadKind.FAILOVER,
        FaultSpec(
            channel=InjectionChannel.COMPONENT_TO_APISERVER,
            kind="Pod",
            field_path="spec.nodeName",
            component="kube-scheduler",
            fault_type=FaultType.BIT_FLIP,
        ),
        8,
        (703, 618, 620, 620),
    ),
]


@pytest.mark.parametrize(
    "workload, fault, seed, expected", _WRITE_COUNTS, ids=["etcd-channel", "component-channel"]
)
def test_experiment_write_count_is_pinned(monkeypatch, workload, fault, seed, expected):
    # The run's cluster is a copy of the workload's prefix snapshot, not the
    # one constructed: record the cluster the observables are collected from.
    clusters = []
    collect = experiment.ExperimentRunner._collect

    def recording_collect(self, cluster, *args):
        clusters.append(cluster)
        return collect(self, cluster, *args)

    monkeypatch.setattr(experiment.ExperimentRunner, "_collect", recording_collect)
    before = COUNTERS.snapshot()
    result = experiment.ExperimentRunner().run_experiment(workload, fault, seed=seed)
    delta = {name: COUNTERS.snapshot()[name] - before[name] for name in before}
    assert result.injected
    assert (
        delta["encodes"],
        delta["validations"],
        delta["watch_dispatches"],
        len(clusters[0].apiserver.request_log),
    ) == expected


# ------------------------------------------------------------- profile smoke


def test_profile_subcommand_reports_counters(capsys, tmp_path):
    report_path = tmp_path / "profile.txt"
    rc = main(
        [
            "profile",
            "--workloads",
            "deploy",
            "--max-experiments",
            "1",
            "--golden-runs",
            "1",
            "--top",
            "5",
            "--quiet",
            "--output",
            str(report_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for needle in (
        "hot-path counters",
        "encodes",
        "encode memo hits",
        "decodes",
        "validations",
        "watch dispatches",
        "peak RSS",
        "cProfile top 5",
    ):
        assert needle in out
    assert report_path.read_text(encoding="utf-8").count("encodes") >= 1
    # Every run and every snapshot frees itself (docs/INVARIANTS.md, "A
    # finished run frees itself"): the collector finds nothing to free.
    [collector] = [line for line in out.splitlines() if "cyclic collector" in line]
    assert ", 0 object(s) collected" in collector
