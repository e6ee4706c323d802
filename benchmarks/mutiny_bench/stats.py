"""Sample statistics with the guards the metric definitions rely on."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Optional, Sequence

#: A percentile is reportable only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Tail percentiles tried from the top by :func:`highest_percentile`.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class InsufficientSamplesError(ValueError):
    """The sample is too small to support the requested percentile."""


def samples_beyond(count: int, percent: float) -> int:
    """How many of ``count`` samples lie beyond the ``percent``-th percentile."""
    return math.floor(count * (100.0 - percent) / 100.0 + 1e-9)


def percentile(values: Sequence[float], percent: float) -> float:
    """The ``percent``-th percentile (nearest rank), refusing an unsupported one.

    A p99 of 200 samples is the second-largest value and says nothing about
    the tail; with fewer than :data:`MIN_SAMPLES_BEYOND` samples beyond the
    percentile this raises instead of returning it.  The median needs no
    such guard and is exempt.
    """
    if not 0.0 < percent < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {percent}")
    if not values:
        raise InsufficientSamplesError("no samples")
    if percent != 50.0 and samples_beyond(len(values), percent) < MIN_SAMPLES_BEYOND:
        raise InsufficientSamplesError(
            f"p{percent:g} needs {MIN_SAMPLES_BEYOND} samples beyond it, "
            f"{len(values)} samples give {samples_beyond(len(values), percent)}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_percentile(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """``(percent, value)`` of the highest tail percentile the sample supports."""
    for percent in TAIL_PERCENTILES:
        if samples_beyond(len(values), percent) >= MIN_SAMPLES_BEYOND:
            return percent, percentile(values, percent)
    return None


def percentile_or_zero(values: Sequence[float], percent: float) -> float:
    """For per-layer rows that must always carry a number: ``0.0`` stands for
    "not reportable on this sample" (the sample count is printed beside it)."""
    try:
        return percentile(values, percent)
    except InsufficientSamplesError:
        return 0.0


@dataclass(frozen=True)
class Summary:
    """One metric across repetitions: the median is the reported value."""

    median: float
    low: float
    high: float
    count: int


def summarize(values: Sequence[float]) -> Summary:
    """Median-of-repetitions aggregation, with the extremes printed beside it."""
    if not values:
        raise InsufficientSamplesError("no repetitions to aggregate")
    return Summary(median=median(values), low=min(values), high=max(values), count=len(values))
