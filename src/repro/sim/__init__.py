"""Discrete-event simulation kernel.

Every other substrate (etcd, apiserver, controllers, kubelets, network,
workloads) is driven by a single :class:`~repro.sim.engine.Simulation`
instance: components schedule callbacks at simulated timestamps and the
engine executes them in time order.  The kernel is deliberately small and
deterministic — the same seed always produces the same event interleaving,
which makes fault-injection experiments reproducible.

The names below are imported on first access, so a process that only needs
the seeded RNG (campaign planning) does not load the event kernel.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(
    globals(),
    {
        "Event": "repro.sim.engine",
        "Simulation": "repro.sim.engine",
        "DeterministicRNG": "repro.sim.rng",
    },
)

__all__ = ["DeterministicRNG", "Event", "Simulation"]
