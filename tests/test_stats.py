"""``repro.core.stats`` against numpy, bit for bit.

The package computes its baselines, z-scores and client-impact summaries
without numpy, and the campaign digest depends on every last bit of them.
numpy stays the reference here: each property compares the stdlib result
with numpy's float64 with ``==``, never approximately.

Lists are drawn as (length, seed) and filled from a seeded generator, so a
1,000-item case costs hypothesis a few bytes; lengths are pinned on both
sides of numpy's 8-lane unroll and 128-item block, and past 256 where the
pairwise split recurses more than once.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import stats
from repro.core.analysis import ClientImpactReport
from repro.core.classification import GoldenBaseline, mean_absolute_error

np = pytest.importorskip("numpy")

_EDGE_LENGTHS = (1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 255, 256, 257, 263, 264, 999, 1000)
_lengths = st.sampled_from(_EDGE_LENGTHS) | st.integers(1, 1000)


def _values(length: int, seed: int, kind: str) -> list:
    rng = random.Random(seed)
    if kind == "int":
        return [rng.randint(-100, 100) for _ in range(length)]
    if kind == "wide":  # magnitudes 1e-8 .. 1e8: every addition rounds
        return [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(length)]
    return [rng.gauss(0.4, 0.1) for _ in range(length)]  # latency-like


_samples = st.builds(
    _values, _lengths, st.integers(0, 2**32 - 1), st.sampled_from(["int", "wide", "latency"])
)


@settings(max_examples=300, deadline=None)
@given(_samples)
def test_mean_and_std_equal_numpy(values):
    assert stats.mean(values) == float(np.mean(values))
    assert stats.std(values) == float(np.std(values))


@settings(max_examples=200, deadline=None)
@given(_samples)
def test_median_p90_and_max_equal_numpy(values):
    scores = [float(value) for value in values]
    array = np.array(scores, dtype=float)
    assert ClientImpactReport(zscores={"No": scores}).summary()["No"] == {
        "count": float(len(scores)),
        "median": float(np.median(array)),
        "p90": float(np.percentile(array, 90)),
        "max": float(np.max(array)),
    }


def _numpy_mae(series, baseline) -> float:
    length = max(len(series), len(baseline))
    if length == 0:
        return 0.0
    padded_series = np.zeros(length)
    padded_series[: len(series)] = series
    padded_baseline = np.zeros(length)
    padded_baseline[: len(baseline)] = baseline
    return float(np.mean(np.abs(padded_series - padded_baseline)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 400), st.integers(0, 400), st.integers(0, 2**32 - 1))
def test_mae_of_unequal_series_equals_numpy(run_length, baseline_length, seed):
    series = _values(run_length, seed, "latency")
    baseline = _values(baseline_length, seed + 1, "latency")
    assert mean_absolute_error(series, baseline) == _numpy_mae(series, baseline)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_baseline_of_ragged_runs_equals_numpy(lengths, seed):
    runs = [_values(length, seed + row, "latency") for row, length in enumerate(lengths)]
    baseline = GoldenBaseline.from_golden_runs(
        "deploy", runs, 6, 6, [10 + row for row in range(len(runs))], [30.0] * len(runs)
    )
    width = max(lengths)
    matrix = np.zeros((len(runs), width))
    for row, run in enumerate(runs):
        matrix[row, : len(run)] = run
    expected = np.mean(matrix, axis=0).tolist() if width else []
    assert baseline.baseline_series == expected
    assert all(type(value) is float for value in baseline.baseline_series)
    assert baseline.golden_maes == [_numpy_mae(run, expected) for run in runs]


@pytest.mark.parametrize("length", _EDGE_LENGTHS)
def test_every_edge_length_equals_numpy(length):
    for kind in ("int", "wide", "latency"):
        values = _values(length, length, kind)
        assert (stats.mean(values), stats.std(values)) == (
            float(np.mean(values)),
            float(np.std(values)),
        )
        assert stats.median(values) == float(np.median(np.array(values, dtype=float)))
        assert stats.percentile(values, 90) == float(np.percentile(np.array(values, dtype=float), 90))
