"""The run-time guard (tests/determinism_guard.py) itself.

``test_digest_does_not_depend_on_the_hash_seed`` runs two campaigns under
the guard; a guard that never raised would let it pass on anything.  So:
each guarded call raises from a scoped module, the sanctioned sources and
out-of-scope modules pass, and the listing reversal really reverses.
Fixture modules mirror the package layout under a temporary ``repro/``
and are loaded under the matching ``repro.*`` name, which is what the
guard judges scope by.  The shared-tree sweep records every in-place edit
of a ``copy=False`` reference, however it is spelled, and nothing else;
a three-workload campaign runs under the whole guard.
"""

from __future__ import annotations

import glob
import importlib.util
import os
import random
import textwrap
import time

import pytest

from determinism_guard import SHARED, AmbientEntropyError, guarded
from repro.apiserver.apiserver import APIServer
from repro.apiserver.registry import storage_key
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.distributed import SliceLeases
from repro.core.injector import FaultSpec, FaultType, InjectionChannel, MutinyInjector
from repro.core.objstore import LocalObjectStore
from repro.core.resultstore import ShardedResultStore
from repro.etcd.store import EtcdStore
from repro.objects.kinds import make_deployment, make_pod
from repro.objects.meta import deep_copy
from repro.serialization import clear_codec_caches, encode
from repro.sim.engine import Simulation
from repro.sim.rng import DeterministicRNG
from repro.workloads.workload import WorkloadKind

AMBIENT = """\
import datetime, os, random, time, uuid

CALLS = {
    "wall_clock": lambda: time.time(),
    "wall_clock_ns": lambda: time.time_ns(),
    "now": lambda: datetime.datetime.now(),
    "utcnow": lambda: datetime.datetime.utcnow(),
    "module_random": lambda: random.random(),
    "module_choice": lambda: random.choice([1, 2, 3]),
    "urandom": lambda: os.urandom(4),
    "unseeded_random": lambda: random.Random(),
    "uuid4": lambda: uuid.uuid4(),
}
"""


def load_fixture(tmp_path, relpath: str, source: str = AMBIENT):
    """Write ``repro/<relpath>`` under ``tmp_path`` and import it, without
    registering it, under the matching ``repro.*`` module name."""
    path = tmp_path / "repro" / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    name = "repro." + relpath[: -len(".py")].replace("/", ".")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "call",
    ["wall_clock", "wall_clock_ns", "now", "utcnow", "module_random",
     "module_choice", "urandom", "unseeded_random", "uuid4"],
)
def test_ambient_entropy_in_scope_raises(tmp_path, call):
    calls = load_fixture(tmp_path, "controllers/ambient.py").CALLS
    with guarded() as violations:
        with pytest.raises(AmbientEntropyError, match="controllers/ambient.py"):
            calls[call]()
    assert len(violations) == 1 and "controllers/ambient.py" in violations[0]
    calls[call]()  # uninstalled: the same call works again


def test_campaign_pipeline_files_are_in_scope(tmp_path):
    calls = load_fixture(tmp_path, "core/classification.py").CALLS
    with guarded(), pytest.raises(AmbientEntropyError):
        calls["wall_clock"]()


def test_a_swallowed_violation_is_still_recorded(tmp_path):
    module = load_fixture(
        tmp_path,
        "sim/swallow.py",
        """\
        import time


        def stamp():
            try:
                return time.time()
            except Exception:
                return 0.0
        """,
    )
    with guarded() as violations:
        assert module.stamp() == 0.0
    assert violations == ["time.time() in sim/swallow.py:6 (stamp)"]


def test_seeded_streams_and_monotonic_pacing_pass(tmp_path):
    module = load_fixture(
        tmp_path,
        "controllers/seeded.py",
        """\
        import random, time

        PACE = lambda: (time.sleep(0), time.monotonic(), time.perf_counter())
        SEEDED = lambda: random.Random(7).random()
        """,
    )
    expected = DeterministicRNG(5).uniform("network-latency", 0.0, 1.0)
    with guarded() as violations:
        assert module.SEEDED() == random.Random(7).random()
        module.PACE()
        assert DeterministicRNG(5).uniform("network-latency", 0.0, 1.0) == expected
    assert violations == []


def test_rng_module_itself_is_exempt(tmp_path):
    calls = load_fixture(tmp_path, "sim/rng.py").CALLS
    with guarded() as violations:
        calls["module_random"]()
        calls["unseeded_random"]()
    assert violations == []


def test_slice_leases_may_read_the_wall_clock(tmp_path):
    module = load_fixture(
        tmp_path,
        "core/distributed.py",
        """\
        import time


        class SliceLeases:
            def age(self, mtime):
                return time.time() - mtime


        class Coordinator:
            def stamp(self):
                return time.time()
        """,
    )
    leases = SliceLeases(str(tmp_path / "store"))
    with guarded():
        assert module.SliceLeases().age(0.0) > 0
        assert leases.try_claim(0, "worker-a")
        assert leases.lease_info(0).age >= 0.0
        with pytest.raises(AmbientEntropyError, match="Coordinator.stamp"):
            module.Coordinator().stamp()


def test_out_of_scope_modules_may_use_the_wall_clock(tmp_path):
    calls = load_fixture(tmp_path, "service/clocky.py").CALLS
    store = LocalObjectStore()
    try:
        with guarded() as violations:
            calls["wall_clock"]()
            calls["module_random"]()
            before = time.time()
            stored = store.put("k", b"v", if_none_match=False, if_match=None)
            assert stored.mtime >= before  # core/objstore.py's mtimes
    finally:
        store.server_close()
    assert violations == []


def test_listings_are_reversed(tmp_path):
    names = ["b", "d", "a", "c"]
    for name in names:
        (tmp_path / name).write_text(name)
    pattern = str(tmp_path / "*")
    with guarded():
        plain = (os.listdir(tmp_path), [e.name for e in os.scandir(tmp_path)], glob.glob(pattern))
    with guarded(reverse_listings=True):
        assert os.listdir(tmp_path) == plain[0][::-1]
        with os.scandir(tmp_path) as entries:
            assert [entry.name for entry in entries] == plain[1][::-1]
        assert glob.glob(pattern) == plain[2][::-1]
        assert sorted(os.listdir(tmp_path)) == sorted(names)
    assert os.listdir(tmp_path) == plain[0]


def test_the_posix_store_lists_shards_in_name_order_when_listings_reverse(tmp_path):
    store = ShardedResultStore(str(tmp_path))
    keys = [f"shards/shard-{first:06d}.jsonl.gz" for first in (0, 3, 7, 12)]
    for key in keys:
        store.transport.put(key, b"")
    with guarded(reverse_listings=True):
        assert list(store.transport.list_iter("shards/")) == keys
        assert store.shard_keys() == keys


# ------------------------------------------------------- shared-tree sweep


def _mark(obj):
    obj["seen"] = 1


def _forward(obj):
    _mark(obj)


def item_assignment(api):
    pod = api.get("Pod", "web", copy=False)
    pod["spec"]["containers"][0]["image"] = "rogue"


def deletion(api):
    pod = api.get("Pod", "web", copy=False)
    del pod["metadata"]["labels"]


def augmented_assignment(api):
    pod = api.get("Pod", "web", copy=False)
    pod["spec"]["containers"] += [{"name": "rogue"}]


def loop_variable(api):
    for pod in api.list("Pod", copy=False):
        pod["spec"]["nodeName"] = "n1"


def mutating_method(api):
    pod = api.get("Pod", "web", copy=False)
    pod["metadata"]["labels"].update(seen="1")


def comprehension_element(api):
    [pod.setdefault("seen", 1) for pod in api.list("Pod", copy=False)]


def mutating_helper(api):
    _mark(api.get("Pod", "web", copy=False))


def transitive_helper(api):
    _forward(api.get("Pod", "web", copy=False))


def get_alias(api):
    pod = api.get("Pod", "web", copy=False)
    metadata = pod.get("metadata", {})
    metadata["seen"] = 1


#: One in-place edit of a ``copy=False`` reference per spelling.
EDITS = {
    edit.__name__: edit
    for edit in (
        item_assignment, deletion, augmented_assignment, loop_variable,
        mutating_method, comprehension_element, mutating_helper,
        transitive_helper, get_alias,
    )
}


def _apiserver_with_pod() -> APIServer:
    api = APIServer(Simulation(), EtcdStore())
    api.create("Pod", make_pod("web", labels={"app": "web"}))
    return api


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_an_edited_shared_tree_is_recorded(edit):
    with guarded() as violations:
        EDITS[edit](_apiserver_with_pod())
    assert violations == ["shared tree of Pod default/web edited in place"]


def deep_copy_read(api):
    pod = deep_copy(api.get("Pod", "web", copy=False))
    pod["metadata"]["labels"]["seen"] = "1"
    return pod


def copy_true_read(api):
    pod = api.get("Pod", "web")
    pod["metadata"]["labels"]["seen"] = "1"
    return pod


def _sanitize(pod):
    pod = deep_copy(pod)
    pod["metadata"]["labels"]["seen"] = "1"
    return pod


def rebinding_helper(api):
    return _sanitize(api.get("Pod", "web", copy=False))


#: One edit of a private copy per way of taking it; each returns the copy.
COPIES = {
    "deep_copy": deep_copy_read,
    "copy_true": copy_true_read,
    "rebinding_helper": rebinding_helper,
}


@pytest.mark.parametrize("read", sorted(COPIES))
def test_an_edit_of_a_copy_is_not_recorded(read):
    with guarded() as violations:
        api = _apiserver_with_pod()
        api.update("Pod", COPIES[read](api))
        assert api.get("Pod", "web", copy=False)["metadata"]["labels"]["seen"] == "1"
    assert violations == []
    assert len(SHARED) >= 2  # the tree before the update and the one after


def test_an_at_rest_corruption_is_not_recorded():
    # The injector corrupts the bytes the Apiserver writes to etcd, and the
    # stored value is then rewritten behind the Apiserver's back: the cache
    # keeps the tree of the bytes it was filled from, which the sweep
    # compares with, so neither is an edit.
    injector = MutinyInjector(
        FaultSpec(
            channel=InjectionChannel.APISERVER_TO_ETCD,
            kind="Deployment",
            field_path="spec.replicas",
            fault_type=FaultType.BIT_FLIP,
        )
    )
    with guarded() as violations:
        api = APIServer(Simulation(), EtcdStore())
        api.set_etcd_write_hook(injector.etcd_write_hook)
        api.create("Deployment", make_deployment("d", replicas=2))
        assert injector.injected
        key = storage_key("Deployment", "default", "d")
        flipped = api.get("Deployment", "d", copy=False)["spec"]["replicas"]
        assert flipped != 2
        rewritten = api.get("Deployment", "d")
        rewritten["spec"]["replicas"] = 99
        api.store._data[key].value = encode(rewritten)  # noqa: SLF001 - at rest, bypassing the Apiserver
        assert api.get("Deployment", "d", copy=False)["spec"]["replicas"] == flipped
        api.restart()
        assert api.get("Deployment", "d", copy=False)["spec"]["replicas"] == 99
    assert violations == []


def test_a_guarded_three_workload_campaign_edits_no_shared_tree():
    # The hash-seed test's campaigns run the deploy workload only; this one
    # sweeps the scale and failover controllers' reads too.
    clear_codec_caches()
    config = CampaignConfig(
        workloads=(WorkloadKind.DEPLOY, WorkloadKind.SCALE_UP, WorkloadKind.FAILOVER),
        golden_runs=1,
        max_experiments_per_workload=3,
        seed=3,
        workers=1,
    )
    with guarded() as violations:
        results = Campaign(config).run()
    assert len(results.results) == 9
    assert violations == []
    assert len(SHARED) > 1000
