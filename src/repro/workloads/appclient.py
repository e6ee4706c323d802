"""Application client.

Sends a fixed-rate request stream to the service application through the
virtual cluster network and records one latency sample per request.  Failed
requests are recorded with latency padded to zero, exactly as the paper does
before computing the mean-absolute-error of a run against the golden
baseline (§V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from repro.network.network import ClusterNetwork, jittered
from repro.sim.engine import Simulation
from repro.sim.rng import DeterministicRNG
from repro.workloads.scenario import SERVICE_NAME

#: Paper parameters: 20 requests/second for 30 seconds.
REQUEST_RATE = 20.0
CLIENT_DURATION = 30.0

#: A request slower than this is reported as a timeout error.
REQUEST_TIMEOUT = 5.0


@dataclass
class RequestSample:
    """One request as observed by the application client."""

    time: float
    latency: float
    success: bool
    error: Optional[str] = None


class ClientRequest(NamedTuple):
    """The seed-free part of one request: when it was sent and either the
    network's service time (``service_time``) or why it failed (``error``).
    A tuple, so a trajectory's 600 of them stay small."""

    time: float
    service_time: Optional[float]
    error: Optional[str] = None


def request_sample(time: float, latency: Optional[float], error: Optional[str]) -> RequestSample:
    """The sample of a request that took ``latency`` (None: failed with
    ``error``); a success slower than :data:`REQUEST_TIMEOUT` is a timeout."""
    if latency is None:
        return RequestSample(time=time, latency=0.0, success=False, error=error)
    if latency > REQUEST_TIMEOUT:
        return RequestSample(time=time, latency=0.0, success=False, error="timeout")
    return RequestSample(time=time, latency=latency, success=True)


class ApplicationClient:
    """Fixed-rate client of the service application."""

    def __init__(
        self,
        sim: Simulation,
        network: ClusterNetwork,
        service_name: str = SERVICE_NAME,
        namespace: str = "default",
        rate: float = REQUEST_RATE,
        duration: float = CLIENT_DURATION,
        expected_backends: int = 6,
    ):
        self.sim = sim
        self.network = network
        self.service_name = service_name
        self.namespace = namespace
        self.rate = rate
        self.duration = duration
        self.expected_backends = expected_backends
        self.samples: list[RequestSample] = []
        #: The seed-free part of every sample, in the same order.
        self.requests: list[ClientRequest] = []
        self._started = False

    @classmethod
    def replay(cls, requests: Sequence[ClientRequest], seed: int) -> "ApplicationClient":
        """A finished client that sent ``requests`` in a run at ``seed``.

        Each successful request draws its jitter, in order, from a fresh RNG
        at ``seed``, as the simulated network did (the only draws a run
        makes before its final probes), so the samples equal the live
        client's.  The replayed client has no simulation or network and
        cannot be started.
        """
        client = cls(sim=None, network=None)  # type: ignore[arg-type]
        client._started = True
        rng = DeterministicRNG(seed)
        client.requests = list(requests)
        client.samples = [
            request_sample(
                request.time,
                None if request.service_time is None else jittered(rng, request.service_time),
                request.error,
            )
            for request in requests
        ]
        return client

    def start(self) -> None:
        """Schedule the whole request stream on the simulation timeline."""
        if self._started:
            raise RuntimeError("application client already started")
        self._started = True
        interval = 1.0 / self.rate
        total = int(self.rate * self.duration)
        for index in range(total):
            self.sim.call_after(
                index * interval, self._send_one, label=f"app-client-{index}"
            )

    def _send_one(self) -> None:
        outcome = self.network.request(
            self.service_name,
            namespace=self.namespace,
            use_dns=False,
            expected_backends=self.expected_backends,
        )
        now = self.sim.now
        if outcome.success:
            self.requests.append(ClientRequest(now, outcome.service_time))
            self.samples.append(request_sample(now, outcome.latency, None))
        else:
            self.requests.append(ClientRequest(now, None, outcome.error))
            self.samples.append(request_sample(now, None, outcome.error))

    # ------------------------------------------------------------------ stats

    def time_series(self) -> list[float]:
        """Latency time series ordered by send time (failed requests padded to 0)."""
        return [sample.latency for sample in sorted(self.samples, key=lambda item: item.time)]

    def error_samples(self) -> list[RequestSample]:
        """Requests that failed."""
        return [sample for sample in self.samples if not sample.success]

    def error_burst_count(self) -> int:
        """Number of distinct bursts of consecutive errors (for IA classification)."""
        bursts = 0
        in_burst = False
        for sample in sorted(self.samples, key=lambda item: item.time):
            if not sample.success:
                if not in_burst:
                    bursts += 1
                    in_burst = True
            else:
                in_burst = False
        return bursts

    def availability(self) -> float:
        """Fraction of successful requests."""
        if not self.samples:
            return 0.0
        return sum(1 for sample in self.samples if sample.success) / len(self.samples)
