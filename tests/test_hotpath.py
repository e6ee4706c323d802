"""Regression tests for the profiled hot path.

Covers the optimizations of the profile-guided PR: the codec's decode cache
(aliasing and corrupted-bytes bypass), the apiserver's copy semantics under
its snapshot/blob caches, compiled field paths, the store's bucketed watch
dispatch, and the ``repro.cli profile`` subcommand.
"""

import pytest

from repro.apiserver.apiserver import APIServer
from repro.apiserver.client import APIClient
from repro.cli import main
from repro.etcd.store import EtcdStore
from repro.hotpath import COUNTERS
from repro.objects.kinds import make_node, make_pod
from repro.serialization import (
    DecodeError,
    clear_codec_caches,
    compile_path,
    decode,
    decode_shared,
    encode,
)
from repro.sim.engine import Simulation


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
        "decodes",
        "validations",
        "watch dispatches",
        "cProfile top 5",
    ):
        assert needle in out
    assert report_path.read_text(encoding="utf-8").count("encodes") >= 1
