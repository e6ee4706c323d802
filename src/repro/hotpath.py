"""Per-phase counters for the simulation hot path.

``repro.cli profile`` wraps a campaign in cProfile *and* these counters:
cProfile says where the wall-clock goes, the counters say how many times
each hot phase actually ran per experiment — encodes, decodes, validations,
watch dispatches — and how often the codec's decode cache and the store's
skip-if-no-subscriber dispatch short-circuited the work.  The numbers turn
"the codec is probably hot" into a measured claim; ``benchmarks/mutiny_bench``
reads the same counters (its traced call counts must equal their deltas) and
``benchmarks/trend.py`` gates its reports against the ``BENCH_<n>.json``
history.

Incrementing a counter is a single attribute add on a ``__slots__``
instance, cheap enough to stay enabled permanently; every committed
``BENCH_<n>.json`` includes the cost.

This module must not import anything from :mod:`repro` — it sits below the
codec, the store and the validation layer, all of which import it.
"""

from __future__ import annotations


class HotPathCounters:
    """Cumulative hot-phase execution counts for this process."""

    __slots__ = (
        "encodes",
        "decodes",
        "decode_cache_hits",
        "validations",
        "watch_dispatches",
        "watch_events_skipped",
        "experiments",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Zero every counter (the profile subcommand resets before a run)."""
        self.encodes = 0
        self.decodes = 0
        self.decode_cache_hits = 0
        self.validations = 0
        self.watch_dispatches = 0
        self.watch_events_skipped = 0
        self.experiments = 0

    def snapshot(self) -> dict:
        """Return the current counts as a plain dictionary."""
        return {name: getattr(self, name) for name in self.__slots__}

    def render(self) -> str:
        """Render the per-phase counter report, with per-experiment averages."""
        experiments = max(self.experiments, 1)
        decode_requests = self.decodes + self.decode_cache_hits
        hit_rate = (
            100.0 * self.decode_cache_hits / decode_requests if decode_requests else 0.0
        )
        dispatch_events = self.watch_dispatches + self.watch_events_skipped
        skip_rate = (
            100.0 * self.watch_events_skipped / dispatch_events if dispatch_events else 0.0
        )

        def row(label: str, value: int, extra: str = "") -> str:
            per = value / experiments
            text = f"  {label:<28} {value:>10}  ({per:,.1f}/experiment)"
            return text + (f"  {extra}" if extra else "")

        lines = [
            f"hot-path counters ({self.experiments} experiment(s), golden runs included)",
            row("encodes", self.encodes),
            row("decodes", self.decodes),
            row(
                "decode cache hits",
                self.decode_cache_hits,
                f"[{hit_rate:.1f}% of decode requests]",
            ),
            row("validations", self.validations),
            row("watch dispatches", self.watch_dispatches),
            row(
                "watch events skipped",
                self.watch_events_skipped,
                f"[{skip_rate:.1f}% of store events had no subscriber]",
            ),
        ]
        return "\n".join(lines)


#: The process-wide counter instance every hot-path layer increments.
COUNTERS = HotPathCounters()
