"""Series summaries, post-outage windows, and crash detection."""

import math
import random

import numpy as np
import pytest

from fusedrive.metrics import (
    CrashDetector,
    SampleSeries,
    correction_metric,
    post_outage_window,
    summarize,
)


def detect_crash(deviation_series, threshold_m=0.25, hold_s=0.5):
    """First time |deviation| > threshold_m continuously for hold_s, or None."""
    detector = CrashDetector(threshold_m, hold_s)
    for t, v in zip(deviation_series.times, deviation_series.values):
        crash = detector.update(t, v)
        if crash is not None:
            return crash
    return None


def series_of(pairs, name="dev"):
    s = SampleSeries(name)
    for t, v in pairs:
        s.append(t, v)
    return s


class TestSeries:
    def test_append_and_arrays(self):
        s = series_of([(0.0, 1.0), (0.1, -2.0)])
        times, values = s.as_arrays()
        assert times.tolist() == [0.0, 0.1]
        assert values.tolist() == [1.0, -2.0]
        assert len(s) == 2

    def test_non_increasing_timestamp_rejected(self):
        s = series_of([(0.0, 1.0)])
        with pytest.raises(ValueError):
            s.append(0.0, 2.0)
        with pytest.raises(ValueError):
            s.append(-0.1, 2.0)


class TestCorrection:
    def test_examples(self):
        assert correction_metric(100, 100) == 0.0
        assert correction_metric(80, 120) == 20.0
        assert correction_metric(120, 80) == -20.0
        assert correction_metric(33, 36) == 1.5


class TestSummarize:
    def test_hand_example(self):
        # |3|, |-4| -> mean 3.5, population std 0.5
        out = summarize([3.0, -4.0])
        assert out["mean_abs"] == pytest.approx(3.5)
        assert out["std_abs"] == pytest.approx(0.5)
        assert out["sem_abs"] == pytest.approx(0.5 / math.sqrt(2))
        assert out["count"] == 2

    def test_population_not_sample_std(self):
        values = [1.0, 2.0, 3.0, 4.0]
        out = summarize(values)
        assert out["std_abs"] == pytest.approx(float(np.std(values)))
        assert out["std_abs"] != pytest.approx(float(np.std(values, ddof=1)))

    def test_accepts_series(self):
        s = series_of([(0.0, -1.0), (0.1, 1.0)])
        assert summarize(s)["mean_abs"] == pytest.approx(1.0)
        assert summarize(s)["std_abs"] == pytest.approx(0.0)

    def test_scale_equivariance(self):
        rng = random.Random(8)
        values = [rng.uniform(-1, 1) for _ in range(200)]
        base = summarize(values)
        scaled = summarize([7.0 * v for v in values])
        for key in ("mean_abs", "std_abs", "sem_abs"):
            assert scaled[key] == pytest.approx(7.0 * base[key])

    def test_empty_counts_zero(self):
        assert summarize([]) == {"count": 0}

    def test_crash_time_carried(self):
        out = summarize([1.0], crash_time=4.5)
        assert out["crash_time"] == 4.5


class TestPostOutageWindow:
    def test_strictly_after_end(self):
        s = series_of([(i * 0.1, float(i)) for i in range(20)])
        # outage ends exactly on a sample: that sample is excluded
        got = post_outage_window(s, [0.5], k=3)
        assert got.tolist() == [6.0, 7.0, 8.0]

    def test_between_samples(self):
        s = series_of([(i * 0.1, float(i)) for i in range(20)])
        got = post_outage_window(s, [0.55], k=2)
        assert got.tolist() == [6.0, 7.0]

    def test_multiple_ends_concatenate(self):
        s = series_of([(i * 0.1, float(i)) for i in range(20)])
        got = post_outage_window(s, [0.0, 1.0], k=2)
        assert got.tolist() == [1.0, 2.0, 11.0, 12.0]

    def test_truncated_tail(self):
        s = series_of([(i * 0.1, float(i)) for i in range(5)])
        got = post_outage_window(s, [0.35], k=10)
        assert got.tolist() == [4.0]

    def test_no_ends(self):
        s = series_of([(0.0, 1.0)])
        assert post_outage_window(s, [], k=5).size == 0

    def test_k_validated(self):
        s = series_of([(0.0, 1.0)])
        with pytest.raises(ValueError):
            post_outage_window(s, [0.0], k=0)


class TestCrashDetection:
    def test_hand_example(self):
        # over the threshold from t=10.0 onward, hold 0.5 -> crash at 10.5
        s = series_of([(t, 0.3 if t >= 10.0 else 0.0)
                       for t in np.arange(0.0, 12.0, 0.1)])
        assert detect_crash(s, threshold_m=0.25, hold_s=0.5) == pytest.approx(10.5)

    def test_short_excursion_no_crash(self):
        # over for only 0.4 s, then back under: never crashes
        s = series_of([(t, 0.3 if 10.0 <= t < 10.4 else 0.0)
                       for t in np.arange(0.0, 12.0, 0.1)])
        assert detect_crash(s, threshold_m=0.25, hold_s=0.5) is None

    def test_negative_deviation_counts(self):
        s = series_of([(t, -0.3) for t in np.arange(0.0, 1.0, 0.1)])
        assert detect_crash(s, threshold_m=0.25, hold_s=0.5) == pytest.approx(0.5)

    def test_exact_threshold_not_over(self):
        s = series_of([(t, 0.25) for t in np.arange(0.0, 2.0, 0.1)])
        assert detect_crash(s, threshold_m=0.25, hold_s=0.5) is None

    def test_monotone_in_threshold(self):
        rng = random.Random(12)
        dev = 0.0
        s = SampleSeries("dev")
        for i in range(2000):
            dev += rng.uniform(-0.01, 0.012)
            s.append(i * 0.01, dev)
        crashes = [detect_crash(s, threshold_m=th, hold_s=0.5)
                   for th in (0.05, 0.1, 0.2)]
        present = [c for c in crashes if c is not None]
        # lower thresholds crash no later than higher ones
        for earlier, later in zip(crashes, crashes[1:]):
            if later is not None:
                assert earlier is not None
                assert earlier <= later
        assert present, "walk chosen to drift past 0.2"

    def test_detector_resets_after_dip(self):
        det = CrashDetector(threshold_m=0.25, hold_s=0.5)
        assert det.update(0.0, 0.3) is None
        assert det.update(0.4, 0.3) is None
        assert det.update(0.45, 0.1) is None
        assert det.update(0.5, 0.3) is None
        # hold restarts at 0.5, so the crash lands at 1.0
        assert det.update(1.0, 0.3) == pytest.approx(1.0)
