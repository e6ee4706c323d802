"""The discrete-event simulation engine.

The engine maintains a priority queue of :class:`Event` objects keyed by
``(time, sequence_number)``.  Components schedule one-shot callbacks with
:meth:`Simulation.call_at` / :meth:`Simulation.call_after` and recurring
callbacks with :meth:`Simulation.call_every`.  Execution is strictly ordered
and single-threaded: there is no wall-clock time anywhere in the simulator.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.sim.rng import DeterministicRNG


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events run in ``(time, seq)`` order so that events scheduled for the same
    timestamp run in the order they were scheduled.  The heap itself stores
    ``(time, seq, event)`` tuples: tuple comparison short-circuits on the two
    floats/ints, so sifting never calls back into Python-level ``__lt__``.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None], label: str = ""):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from running when its time comes."""
        self.cancelled = True


class RecurringTask:
    """Handle for a periodic callback registered with :meth:`Simulation.call_every`."""

    def __init__(self, sim: "Simulation", callback: Callable[[], None], period: float, label: str):
        self._sim = sim
        self._callback = callback
        self._period = period
        self._label = label
        self._stopped = False
        self._pending: Optional[Event] = None

    def stop(self) -> None:
        """Stop the task; the currently pending occurrence is cancelled."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()

    def _run_once(self) -> None:
        if self._stopped:
            return
        try:
            self._callback()
        finally:
            if not self._stopped:
                self._pending = self._sim.call_after(self._period, self._run_once, label=self._label)

    def start(self, delay: float = 0.0) -> "RecurringTask":
        """Schedule the first occurrence ``delay`` seconds from now."""
        self._pending = self._sim.call_after(delay, self._run_once, label=self._label)
        return self


class Simulation:
    """Single-threaded discrete-event simulation loop."""

    def __init__(self, rng: Optional[DeterministicRNG] = None):
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self.rng = rng if rng is not None else DeterministicRNG(0)
        self._events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (useful for progress accounting)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled placeholders)."""
        return len(self._queue)

    def call_at(self, when: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when:.3f}, current time is {self._now:.3f}"
            )
        seq = next(self._counter)
        event = Event(time=when, seq=seq, callback=callback, label=label)
        heapq.heappush(self._queue, (when, seq, event))
        return event

    def call_after(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay:.3f}")
        return self.call_at(self._now + delay, callback, label=label)

    def call_every(
        self, period: float, callback: Callable[[], None], delay: float = 0.0, label: str = ""
    ) -> RecurringTask:
        """Schedule ``callback`` to run every ``period`` seconds, starting after ``delay``."""
        if period <= 0:
            raise SimulationError("period must be positive")
        return RecurringTask(self, callback, period, label).start(delay)

    def run_until(self, deadline: float, max_events: Optional[int] = None) -> None:
        """Run events in time order until the deadline is reached.

        Events scheduled exactly at the deadline are executed.  ``max_events``
        bounds the number of events executed in this call, protecting the
        caller against runaway event storms (which fault injection can and
        does create).
        """
        executed = 0
        queue = self._queue
        while queue:
            when = queue[0][0]
            if when > deadline:
                break
            event = heapq.heappop(queue)[2]
            if event.cancelled:
                continue
            self._now = when
            event.callback()
            self._events_executed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        if self._now < deadline:
            self._now = deadline

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Run the simulation for ``duration`` simulated seconds."""
        self.run_until(self._now + duration, max_events=max_events)

    def step(self) -> bool:
        """Execute the next pending event; return False if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            self._events_executed += 1
            return True
        return False
