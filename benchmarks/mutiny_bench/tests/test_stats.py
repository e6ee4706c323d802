"""Percentile guard, repetition aggregation, calibrated-clock arithmetic."""

from __future__ import annotations

import pytest

from ..calibration import SIMULATOR, Calibrator

REFERENCE_KERNEL_S = SIMULATOR.reference_s
from ..stats import InsufficientSamplesError, highest_percentile, percentile, percentile_or_zero, summarize


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it():
    samples = [float(value) for value in range(1, 201)]  # 200 samples
    assert percentile(samples, 95.0) == 190.0  # 10 beyond: reportable
    with pytest.raises(InsufficientSamplesError):
        percentile(samples, 99.0)  # 2 beyond
    assert percentile_or_zero(samples, 99.0) == 0.0
    assert percentile(samples[:3], 50.0) == 2.0  # the median needs no tail
    assert highest_percentile(samples) == (95.0, 190.0)
    assert highest_percentile(samples[:30]) is None
    assert percentile([float(value) for value in range(1, 1001)], 99.0) == 990.0


def test_repetitions_aggregate_to_their_median_with_the_extremes_beside_it():
    summary = summarize([4.0, 9.0, 5.0])
    assert (summary.median, summary.low, summary.high, summary.count) == (5.0, 4.0, 9.0, 3)
    assert summarize([4.0, 6.0]).median == 5.0
    with pytest.raises(InsufficientSamplesError):
        summarize([])


def test_the_calibrated_clock_shrinks_time_spent_on_a_slow_host():
    calibrator = Calibrator(SIMULATOR)
    # Kernel samples at t = 0..4 s: reference speed, then a host twice as slow.
    calibrator._times = [0.0, 1.0, 2.0, 3.0, 4.0]
    calibrator._costs = [REFERENCE_KERNEL_S] * 2 + [2 * REFERENCE_KERNEL_S] * 3
    calibrator._freeze()
    assert calibrator.elapsed(0.0, 1.0) == pytest.approx(1.0)
    assert calibrator.elapsed(3.0, 4.0) == pytest.approx(0.5)
    assert calibrator.elapsed(0.0, 4.0) == pytest.approx(1.0 + 0.75 + 0.5 + 0.5)
    assert calibrator.elapsed(4.0, 6.0) == pytest.approx(1.0)  # past the last sample: its speed
    assert calibrator.host_speed() == pytest.approx(0.5)


def test_one_interrupted_kernel_sample_does_not_move_the_clock():
    calibrator = Calibrator(SIMULATOR)
    calibrator._times = [0.0, 1.0, 2.0, 3.0, 4.0]
    calibrator._costs = [REFERENCE_KERNEL_S] * 5
    calibrator._costs[2] = 10 * REFERENCE_KERNEL_S
    calibrator._freeze()
    assert calibrator.elapsed(0.0, 4.0) == pytest.approx(4.0)


def test_without_a_kernel_the_clock_is_the_raw_clock():
    calibrator = Calibrator(None).start()
    calibrator.stop()
    assert calibrator.elapsed(2.0, 5.5) == 3.5 and calibrator.host_speed() == 1.0
