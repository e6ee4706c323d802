"""A host-speed-calibrated clock for a noisy, shared sandbox.

Why it exists (measured before any workload was written, see README): on
this class of machine one fully deterministic golden run takes anywhere from
80 ms to 160 ms depending on what the host's other tenants are doing, the
slowdown drifts on a sub-second to minutes scale, and CPU time inflates
together with wall-clock — so neither longer phases, nor medians, nor
best-of-N bring the run-to-run spread of a 20 s measurement under ~18 %.
A fixed pure-Python kernel timed *next to* the work slows down by the same
factor, and the ratio of the two is steady to ~3 %.

:class:`Calibrator` therefore samples that kernel from a background thread
for as long as a benchmark process measures (about 1.5 ms of thread CPU
time every 50 ms), and :meth:`Calibrator.elapsed` converts a raw
``perf_counter`` interval into *calibrated seconds*: the time the interval
would have taken on a host where the kernel costs :data:`REFERENCE_KERNEL_S`.
Every duration the benchmark reports is measured on this clock; the raw
wall-clock values are printed beside them.

The kernel is timed with ``time.thread_time`` so waiting for the GIL (the
measured code runs in the main thread of the same process on the simulator
workloads) is not mistaken for a slow host.

A workload whose measured thread spends its time in C code that releases the
GIL (gzip, SHA-256: ``store_io``) samples *inline* instead
(``background=False`` and :meth:`Calibrator.mark` between operations): there
a background thread runs at the same time as the work, on the other core,
whose neighbours are not the work's — measured, its samples then drifted
13 % against work that had not moved.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import threading
import time
import zlib
from dataclasses import dataclass
from statistics import median
from typing import Callable, Optional

#: Seconds between kernel samples.
SAMPLE_PERIOD_S = 0.05


def simulator_kernel() -> int:
    """The operations the simulator is made of: dict and list churn, string
    formatting, integer arithmetic, bytes building, sorting — pure bytecode."""
    counts: dict[str, int] = {}
    total = 0
    for index in range(6000):
        key = f"k{index % 97}"
        counts[key] = counts.get(key, 0) + index
        total += len(key) + (index * 7) % 13
    blob = bytearray()
    for index in range(1200):
        blob += index.to_bytes(4, "little")
    return total + len(sorted(counts.items())) + len(blob)


_DOCUMENT = {
    f"field-{index}": {
        "name": f"pod-{index}",
        "values": [step * 0.125 + index for step in range(24)],
        "labels": {"app": "web", "tier": str(index % 3)},
        "ready": index % 2 == 0,
    }
    for index in range(96)
}


def codec_kernel() -> int:
    """The operations the result store is made of: canonical JSON, gzip both
    ways, SHA-256 — C code, which a contended host slows by a different
    factor than bytecode."""
    text = json.dumps(_DOCUMENT, sort_keys=True, separators=(",", ":")).encode("utf-8")
    packed = zlib.compress(text, 9)
    restored = json.loads(zlib.decompress(packed))
    return len(packed) + len(restored) + hashlib.sha256(text).digest()[0]


@dataclass(frozen=True)
class Kernel:
    """A calibration kernel and the thread-CPU seconds one pass of it costs on
    a quiet host of the machine class the benchmark was written on (2-vCPU
    Xeon @ 2.1 GHz, CPython 3.11).  The reference only scales the reported
    values; every run divides by the same constant."""

    run: Callable[[], int]
    reference_s: float


SIMULATOR = Kernel(simulator_kernel, 0.0015)
CODEC = Kernel(codec_kernel, 0.002)


class Calibrator:
    """Samples a kernel in a daemon thread; maps raw intervals to calibrated
    ones.  Without a kernel it is the identity: calibrated == raw."""

    def __init__(self, kernel: Optional[Kernel], background: bool = True) -> None:
        self._kernel = kernel
        #: Sample from a daemon thread (the measured thread runs bytecode or
        #: is blocked) or only where the measured thread calls :meth:`mark`.
        self._background = background
        self._times: list[float] = []
        self._costs: list[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Cumulative calibrated seconds at each sample time (built by :meth:`stop`).
        self._cumulative: list[float] = []
        self._speeds: list[float] = []

    # ------------------------------------------------------------- sampling

    def _sample(self) -> None:
        started = time.thread_time()
        self._kernel.run()
        self._costs.append(time.thread_time() - started)
        self._times.append(time.perf_counter())

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(SAMPLE_PERIOD_S)

    def start(self) -> "Calibrator":
        if self._kernel is None:
            return self
        self._sample()  # an interval never starts before the first sample
        if self._background:
            self._thread = threading.Thread(target=self._run, name="calibrator", daemon=True)
            self._thread.start()
        return self

    def mark(self) -> None:
        """An inline sample in the calling (measured) thread, between two
        operations; at most one per :data:`SAMPLE_PERIOD_S`.  Does nothing
        when a background thread samples."""
        if self._kernel is None or self._background or not self._times:
            return  # raw clock, sampled elsewhere, or not started yet
        if time.perf_counter() - self._times[-1] >= SAMPLE_PERIOD_S:
            self._sample()

    def stop(self) -> None:
        """Stop sampling and freeze the raw -> calibrated mapping (once)."""
        if self._kernel is None or self._cumulative:
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._sample()  # ... and never ends after the last one
        self._freeze()

    # -------------------------------------------------------------- mapping

    def _freeze(self) -> None:
        costs = self._costs
        # A running median of three rejects the single sample an interrupt hit.
        smooth = [
            median(costs[max(0, index - 1) : index + 2]) for index in range(len(costs))
        ]
        self._speeds = [self._kernel.reference_s / cost for cost in smooth]
        cumulative = [0.0]
        for index in range(1, len(self._times)):
            gap = self._times[index] - self._times[index - 1]
            speed = (self._speeds[index - 1] + self._speeds[index]) / 2.0
            cumulative.append(cumulative[-1] + gap * speed)
        self._cumulative = cumulative

    def _calibrated(self, instant: float) -> float:
        times = self._times
        position = bisect.bisect_right(times, instant)
        if position == 0:
            return (instant - times[0]) * self._speeds[0]
        if position == len(times):
            return self._cumulative[-1] + (instant - times[-1]) * self._speeds[-1]
        left = position - 1
        share = (instant - times[left]) / (times[position] - times[left])
        return self._cumulative[left] + share * (self._cumulative[position] - self._cumulative[left])

    def elapsed(self, start: float, end: float) -> float:
        """Calibrated seconds between two ``perf_counter`` instants (after :meth:`stop`)."""
        if self._kernel is None:
            return end - start
        return self._calibrated(end) - self._calibrated(start)

    def host_speed(self) -> float:
        """Median host speed over the run relative to the reference (1.0 = as fast)."""
        if self._kernel is None:
            return 1.0
        return median(self._speeds)
