"""Unit tests for the data store and the Raft quorum layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.etcd.raft import QuorumLost, RaftGroup
from repro.etcd.store import EtcdStore, EventType, StoreQuotaExceeded

# -------------------------------------------------------------------- store


def test_put_get_roundtrip_and_revisions():
    store = EtcdStore()
    rev1 = store.put("/registry/pods/default/a", b"one")
    rev2 = store.put("/registry/pods/default/a", b"two")
    assert rev2 > rev1
    entry = store.get("/registry/pods/default/a")
    assert entry.value == b"two"
    assert entry.version == 2
    assert entry.create_revision == rev1
    assert entry.mod_revision == rev2


def test_get_missing_returns_none():
    assert EtcdStore().get("/missing") is None


def test_range_returns_sorted_prefix_matches():
    store = EtcdStore()
    store.put("/registry/pods/ns/b", b"2")
    store.put("/registry/pods/ns/a", b"1")
    store.put("/registry/nodes/x", b"3")
    keys = [entry.key for entry in store.range("/registry/pods/")]
    assert keys == ["/registry/pods/ns/a", "/registry/pods/ns/b"]


def test_delete_and_delete_prefix():
    store = EtcdStore()
    store.put("/a/1", b"x")
    store.put("/a/2", b"y")
    store.put("/b/1", b"z")
    assert store.delete("/a/1") is True
    assert store.delete("/a/1") is False
    assert store.delete_prefix("/a/") == 1
    assert len(store) == 1


def test_values_must_be_bytes():
    with pytest.raises(TypeError):
        EtcdStore().put("/k", "not-bytes")


def test_watch_receives_put_and_delete_events():
    store = EtcdStore()
    events = []
    store.watch("/registry/pods/", events.append)
    store.put("/registry/pods/ns/a", b"1")
    store.put("/registry/pods/ns/a", b"2")
    store.put("/registry/nodes/x", b"ignored")
    store.delete("/registry/pods/ns/a")
    assert [event.type for event in events] == [EventType.PUT, EventType.PUT, EventType.DELETE]
    assert events[1].prev_value == b"1"
    assert events[2].prev_value == b"2"


def test_quota_exceeded_latches_alarm_and_blocks_writes():
    store = EtcdStore(quota_bytes=100)
    store.put("/a", b"x" * 60)
    with pytest.raises(StoreQuotaExceeded):
        store.put("/b", b"y" * 60)
    assert store.alarm_active
    # Even small writes are refused while the alarm is latched.
    with pytest.raises(StoreQuotaExceeded):
        store.put("/c", b"z")
    store.delete("/a")
    store.compact()
    assert not store.alarm_active
    store.put("/c", b"z")


def test_bytes_used_tracks_updates_and_deletes():
    store = EtcdStore()
    store.put("/a", b"12345")
    assert store.bytes_used == 5
    store.put("/a", b"123")
    assert store.bytes_used == 3
    store.delete("/a")
    assert store.bytes_used == 0


def test_stats_counters():
    store = EtcdStore()
    store.put("/a", b"1")
    store.get("/a")
    store.delete("/a")
    stats = store.stats()
    assert stats["writes"] == 1
    assert stats["deletes"] == 1
    assert stats["reads"] >= 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["put", "delete"]), st.integers(0, 5)), max_size=40))
def test_bytes_used_never_negative_and_matches_contents(operations):
    store = EtcdStore()
    for op, key_index in operations:
        key = f"/k/{key_index}"
        if op == "put":
            try:
                store.put(key, bytes(10 * (key_index + 1)))
            except StoreQuotaExceeded:
                pass
        else:
            store.delete(key)
    expected = sum(len(value) for value in store.snapshot_keys().values())
    assert store.bytes_used == expected
    assert store.bytes_used >= 0


# --------------------------------------------------------------------- raft


def test_raft_requires_members():
    with pytest.raises(ValueError):
        RaftGroup([])


def test_single_member_group_always_has_quorum():
    group = RaftGroup(["etcd-0"])
    assert group.has_quorum()
    assert group.leader == "etcd-0"
    assert group.propose() == 1


def test_three_member_group_tolerates_one_failure():
    group = RaftGroup(["etcd-0", "etcd-1", "etcd-2"])
    group.fail_member("etcd-0")
    assert group.has_quorum()
    assert group.leader == "etcd-1"
    group.propose()
    assert group.term == 2


def test_quorum_lost_with_two_failures():
    group = RaftGroup(["etcd-0", "etcd-1", "etcd-2"])
    group.fail_member("etcd-0")
    group.fail_member("etcd-1")
    assert not group.has_quorum()
    assert group.leader is None
    with pytest.raises(QuorumLost):
        group.propose()
    group.recover_member("etcd-0")
    assert group.has_quorum()
    group.propose()


def test_unknown_member_raises():
    group = RaftGroup(["a"])
    with pytest.raises(KeyError):
        group.fail_member("b")
    with pytest.raises(KeyError):
        group.recover_member("b")


def test_commits_acknowledged_by_healthy_members():
    group = RaftGroup(["a", "b", "c"])
    group.fail_member("c")
    group.propose()
    acks = {member.name: member.acked_proposals for member in group.members}
    assert acks == {"a": 1, "b": 1, "c": 0}
    stats = group.stats()
    assert stats["committed"] == 1
    assert stats["healthy"] == 2
