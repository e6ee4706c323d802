"""Edge-case tests for per-key reconcile backoff and leader election.

The basics (backoff schedule, acquire/renew/release) live in
``test_controllers.py``; these tests pin down the corner cases the
controllers rely on: a failure while already backed off, a backed-off key
not holding up the others, and leases that expire while the holder believes
it is still renewing.
"""

from __future__ import annotations

from repro.apiserver.client import APIClient
from repro.apiserver.errors import ServerUnavailableError
from repro.controllers.leaderelection import LeaderElector
from repro.controllers.replicaset import ReplicaSetController
from repro.objects.kinds import make_replicaset


def _client(control_plane, name="kube-controller-manager"):
    return APIClient(control_plane.apiserver, component=name)


# ---------------------------------------------------------------- backoff


def test_backoff_failure_while_backed_off_extends_from_now(control_plane):
    # A key can fail again (e.g. reconciled by hand) before its backoff has
    # expired; the failure count grows and the new deadline counts from now.
    controller = ReplicaSetController(control_plane.sim, _client(control_plane))
    controller.record_key_failure("k")
    control_plane.sim.run_for(0.5)
    controller.record_key_failure("k")
    assert controller._skip_until["k"] == control_plane.sim.now + 2.0
    assert controller._failures["k"] == 2


def test_backed_off_key_does_not_block_other_keys(control_plane, monkeypatch):
    client = _client(control_plane)
    controller = ReplicaSetController(control_plane.sim, client)
    for name in ("slow", "fast"):
        client.create("ReplicaSet", make_replicaset(name, replicas=1, labels={"app": name}))
    reconcile_one = controller._reconcile_one

    def failing_slow(replicaset, pods):
        if replicaset["metadata"]["name"] == "slow":
            raise ServerUnavailableError("injected")
        reconcile_one(replicaset, pods)

    monkeypatch.setattr(controller, "_reconcile_one", failing_slow)
    controller.sync()
    assert controller.key_backoff_active("default/slow")
    assert [pod["metadata"]["labels"]["app"] for pod in client.list("Pod")] == ["fast"]
    monkeypatch.undo()
    control_plane.sim.run_for(0.5)
    controller.sync()  # still backed off: skipped inside the pass
    assert len(client.list("Pod")) == 1
    control_plane.sim.run_for(0.5)
    controller.sync()
    assert sorted(pod["metadata"]["labels"]["app"] for pod in client.list("Pod")) == ["fast", "slow"]
    assert controller._skip_until == {}


def test_backoff_success_on_unknown_key_is_noop(control_plane):
    controller = ReplicaSetController(control_plane.sim, _client(control_plane))
    controller.record_key_success("never-seen")
    assert controller._failures == {} and controller._skip_until == {}


# -------------------------------------------------------- leader election


def test_lease_expires_during_renewal_gap(control_plane):
    # Holder A stops renewing (e.g. stalled); after the lease duration a
    # second candidate takes over, and A's late renewal must fail instead of
    # silently stealing leadership back.
    client = _client(control_plane)
    first = LeaderElector(
        control_plane.sim, client, "kcm-lease", identity="a", lease_duration=15.0
    )
    assert first.try_acquire_or_renew()
    control_plane.sim.run_for(16.0)

    second = LeaderElector(
        control_plane.sim, client, "kcm-lease", identity="b", lease_duration=15.0
    )
    assert second.try_acquire_or_renew()
    assert not first.try_acquire_or_renew()
    assert not first.is_leader
    assert second.is_leader


def test_lease_transitions_count_takeovers_but_not_renewals(control_plane):
    client = _client(control_plane)
    first = LeaderElector(
        control_plane.sim, client, "sched-lease", identity="a", lease_duration=10.0
    )
    first.try_acquire_or_renew()
    first.try_acquire_or_renew()  # plain renewal
    lease = client.get("Lease", "sched-lease", namespace="kube-system")
    transitions_after_renewal = lease["spec"]["leaseTransitions"]

    control_plane.sim.run_for(11.0)
    second = LeaderElector(
        control_plane.sim, client, "sched-lease", identity="b", lease_duration=10.0
    )
    second.try_acquire_or_renew()
    lease = client.get("Lease", "sched-lease", namespace="kube-system")
    assert lease["spec"]["leaseTransitions"] == transitions_after_renewal + 1
    assert lease["spec"]["holderIdentity"] == "b"
    assert lease["spec"]["acquireTime"] == control_plane.sim.now


def test_corrupted_renew_time_counts_as_expired(control_plane):
    # A renewTime corrupted into a non-number (a Mutiny value-set) makes the
    # lease look expired: another candidate can take over instead of the
    # control plane stalling forever.
    client = _client(control_plane)
    holder = LeaderElector(control_plane.sim, client, "corrupt-lease", identity="a")
    holder.try_acquire_or_renew()
    lease = client.get("Lease", "corrupt-lease", namespace="kube-system")
    lease["spec"]["renewTime"] = ""
    client.update("Lease", lease)

    challenger = LeaderElector(control_plane.sim, client, "corrupt-lease", identity="b")
    assert challenger.try_acquire_or_renew()


def test_invalid_lease_duration_falls_back_to_default(control_plane):
    # leaseDurationSeconds corrupted to True/zero must not make the lease
    # permanently un-expirable (or instantly expired in a boolean sense).
    client = _client(control_plane)
    holder = LeaderElector(
        control_plane.sim, client, "duration-lease", identity="a", lease_duration=15.0
    )
    holder.try_acquire_or_renew()
    lease = client.get("Lease", "duration-lease", namespace="kube-system")
    lease["spec"]["leaseDurationSeconds"] = True
    client.update("Lease", lease)

    control_plane.sim.run_for(5.0)
    challenger = LeaderElector(
        control_plane.sim, client, "duration-lease", identity="b", lease_duration=15.0
    )
    # 5 s < the 15 s fallback duration: the lease is still held.
    assert not challenger.try_acquire_or_renew()
    control_plane.sim.run_for(11.0)
    assert challenger.try_acquire_or_renew()


def test_release_by_non_holder_leaves_lease_untouched(control_plane):
    client = _client(control_plane)
    holder = LeaderElector(control_plane.sim, client, "rel-lease", identity="a")
    holder.try_acquire_or_renew()
    bystander = LeaderElector(control_plane.sim, client, "rel-lease", identity="b")
    bystander.release()
    lease = client.get("Lease", "rel-lease", namespace="kube-system")
    assert lease["spec"]["holderIdentity"] == "a"
    assert holder.try_acquire_or_renew()


def test_transitions_counter_tracks_leadership_regain(control_plane):
    # An elector that loses leadership and later regains it records both
    # transitions locally (the paper counts leadership changes as restarts).
    client = _client(control_plane)
    first = LeaderElector(
        control_plane.sim, client, "regain-lease", identity="a", lease_duration=10.0
    )
    assert first.try_acquire_or_renew()
    assert first.transitions == 1

    control_plane.sim.run_for(11.0)
    second = LeaderElector(
        control_plane.sim, client, "regain-lease", identity="b", lease_duration=10.0
    )
    assert second.try_acquire_or_renew()
    assert not first.try_acquire_or_renew()

    second.release()
    assert first.try_acquire_or_renew()
    assert first.transitions == 2
