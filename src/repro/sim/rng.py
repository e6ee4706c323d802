"""Deterministic random number generation for the simulation.

Every random decision flows through a :class:`DeterministicRNG`, so a run
is fully determined by its seed.  Inside a simulated run the seed draws only
one thing: the latency jitter of each successful application-client request,
on the ``network-latency`` stream (``network/network.py``).  Everything else
a run does is the same at every seed, which is what lets a campaign replay a
fault-free trajectory at another seed instead of simulating it again
(docs/INVARIANTS.md, "The seed draws only client latency").  The campaign
planner draws from its own instance (subsampling, serialization-byte
positions).

The class is a thin wrapper around :class:`random.Random` that adds named
sub-streams: two components drawing from differently named streams do not
perturb each other's sequences even if the order of their draws changes.
"""

from __future__ import annotations

import random
import zlib


class DeterministicRNG:
    """Seeded random source with named, independent sub-streams."""

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The master seed this RNG was created with."""
        return self._seed

    def reseed(self, seed: int) -> None:
        """Take ``seed`` as the master seed; only before any stream is drawn
        from (a copied simulation's RNG becomes its run's)."""
        if self._streams:
            raise RuntimeError("cannot reseed an RNG that has been drawn from")
        self._seed = int(seed)

    def stream(self, name: str) -> random.Random:
        """Return the named sub-stream, creating it on first use.

        The sub-stream seed is derived from the master seed and the CRC32 of
        the name, so it is stable across runs and across unrelated changes in
        the order streams are requested.
        """
        if name not in self._streams:
            derived = (self._seed * 2654435761 + zlib.crc32(name.encode("utf-8"))) % (2**63)
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    def streams(self) -> tuple[str, ...]:
        """The names of the streams drawn from so far, sorted."""
        return tuple(sorted(self._streams))

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw a uniform float in ``[low, high]`` from the named stream."""
        return self.stream(name).uniform(low, high)

    def randint(self, name: str, low: int, high: int) -> int:
        """Draw an integer in ``[low, high]`` (inclusive) from the named stream."""
        return self.stream(name).randint(low, high)

    def shuffle(self, name: str, seq: list) -> list:
        """Return a shuffled copy of ``seq`` using the named stream."""
        copy = list(seq)
        self.stream(name).shuffle(copy)
        return copy
