"""The handful of summary statistics classification and analysis need.

Each function returns exactly the float64 numpy's counterpart returns for a
1-D input — not approximately: golden baselines feed the campaign
fingerprint and every z-score feeds a classification, so a last-bit
difference could move a digest.  They do so by following numpy's
algorithms step by step:

* ``np.add.reduce`` is ``0.0 + pairwise(x)`` (:func:`_pairwise` mirrors
  numpy's ``pairwise_sum`` loop);
* ``np.mean`` is that sum divided by the count; ``np.std`` (``ddof=0``) is
  ``sqrt(sum((x - m) * (x - m)) / n)`` with both sums pairwise;
* ``np.median`` of an even count is the ``mean`` of the two middle values;
* ``np.percentile`` (``method="linear"``) interpolates at the virtual index
  ``(n - 1) * q / 100`` with numpy's two-sided ``_lerp``.

Inputs are finite numbers; ints are converted to float first, as numpy
does.  ``tests/test_stats.py`` checks every function against numpy with
``==``.
"""

from __future__ import annotations

import math
from typing import Sequence

#: numpy's ``PW_BLOCKSIZE``: above it the pairwise sum splits in two.
_BLOCK = 128


def _pairwise(values: Sequence[float], start: int, count: int) -> float:
    """numpy's ``pairwise_sum`` over ``values[start:start + count]``."""
    if count < 8:
        total = 0.0
        for index in range(start, start + count):
            total += values[index]
        return total
    if count <= _BLOCK:
        blocked = start + count - count % 8
        lanes = []
        for lane in range(start, start + 8):
            acc = values[lane]
            for index in range(lane + 8, blocked, 8):
                acc += values[index]
            lanes.append(acc)
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for index in range(blocked, start + count):
            total += values[index]
        return total
    half = count // 2
    half -= half % 8
    return _pairwise(values, start, half) + _pairwise(values, start + half, count - half)


def _floats(values: Sequence[float]) -> list[float]:
    return [float(value) for value in values]


def mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` for a non-empty sequence."""
    floats = _floats(values)
    return (0.0 + _pairwise(floats, 0, len(floats))) / len(floats)


def std(values: Sequence[float]) -> float:
    """``float(np.std(values))`` (population, ``ddof=0``) for a non-empty sequence."""
    floats = _floats(values)
    centre = mean(floats)
    squares = [(value - centre) * (value - centre) for value in floats]
    return math.sqrt((0.0 + _pairwise(squares, 0, len(squares))) / len(squares))


def column_means(rows: Sequence[Sequence[float]]) -> list[float]:
    """``np.mean(matrix, axis=0).tolist()`` of ``rows`` zero-padded to the longest.

    An ``axis=0`` reduction adds the rows in order, one column at a time,
    so each column is a plain sequential sum (not pairwise).
    """
    means = []
    for column in range(max((len(row) for row in rows), default=0)):
        total = 0.0
        for row in rows:
            total += float(row[column]) if column < len(row) else 0.0
        means.append(total / len(rows))
    return means


def median(values: Sequence[float]) -> float:
    """``float(np.median(values))`` for a non-empty sequence."""
    ordered = sorted(_floats(values))
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return mean(ordered[middle : middle + 1])
    return mean(ordered[middle - 1 : middle + 1])


def percentile(values: Sequence[float], q: float) -> float:
    """``float(np.percentile(values, q))`` (``method="linear"``), non-empty input."""
    ordered = sorted(_floats(values))
    count = len(ordered)
    virtual = (count - 1) * (q / 100)
    if virtual >= count - 1:
        below = above = -1  # numpy clamps to the last value
    else:
        below = math.floor(virtual)
        above = below + 1
    gamma = virtual - below
    low, high = ordered[below], ordered[above]
    diff = high - low
    if gamma >= 0.5:
        return high - diff * (1 - gamma)
    return low + diff * gamma
