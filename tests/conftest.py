"""Shared test fixtures.

``control_plane`` builds a minimal simulated control plane (sim + etcd +
apiserver + admin client) without booting a full cluster; unit tests for
controllers drive it by hand.  ``booted_cluster`` boots a full default
cluster once per test session for read-only integration assertions; tests
that mutate cluster state build their own cluster instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.apiserver.apiserver import APIServer
from repro.apiserver.client import APIClient
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.etcd.store import EtcdStore
from repro.objects.meta import reset_uid_counter
from repro.sim.engine import Simulation
from repro.sim.rng import DeterministicRNG


@dataclass
class ControlPlane:
    """A minimal control plane for controller unit tests."""

    sim: Simulation
    store: EtcdStore
    apiserver: APIServer
    admin: APIClient


@pytest.fixture()
def control_plane() -> ControlPlane:
    """A fresh, empty control plane (no controllers running)."""
    reset_uid_counter()
    sim = Simulation(rng=DeterministicRNG(0))
    store = EtcdStore()
    apiserver = APIServer(sim, store)
    admin = APIClient(apiserver, component="test-admin")
    return ControlPlane(sim=sim, store=store, apiserver=apiserver, admin=admin)


@pytest.fixture(scope="session")
def booted_cluster() -> Cluster:
    """A booted default cluster shared by read-only integration tests."""
    cluster = Cluster(ClusterConfig(seed=42))
    cluster.boot(stabilization_seconds=30.0)
    return cluster
