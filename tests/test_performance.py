"""Delay vectors and binned statistics tests."""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from schednet import (
    ActivityRecord,
    DegenerateMetricWarning,
    Dependency,
    InsufficientData,
    MetricVector,
    NoValidDelays,
    bin_by_metric,
    build_network,
    end_delay,
    frequency_matrix,
    start_delay,
    suggest_bin_count,
)
from schednet.performance import DelayVector


def schedule(rows):
    """rows: (id, planned_start, planned_end, actual_start, actual_end)."""
    records = [
        ActivityRecord(i, i, ps, pe, actual_start=as_, actual_end=ae)
        for i, ps, pe, as_, ae in rows
    ]
    deps = [Dependency(rows[k][0], rows[k + 1][0]) for k in range(len(rows) - 1)]
    return build_network(records, deps)


class TestDelays:
    def test_early_start_is_negative(self):
        net = schedule(
            [
                ("a", date(2020, 1, 10), date(2020, 1, 20), date(2020, 1, 8), date(2020, 1, 20)),
                ("b", date(2020, 1, 21), date(2020, 1, 22), None, None),
            ]
        )
        delays = start_delay(net)
        assert delays.days[0] == -2
        assert bool(delays.valid[0]) is True

    def test_on_time_is_zero(self):
        day = date(2020, 3, 1)
        net = schedule([("a", day, day, day, day), ("b", day, day, None, None)])
        assert start_delay(net).days[0] == 0
        assert end_delay(net).days[0] == 0

    def test_missing_actual_is_masked_not_zero(self):
        net = schedule(
            [
                ("a", date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 1), date(2020, 1, 2)),
                ("b", date(2020, 1, 3), date(2020, 1, 4), None, None),
            ]
        )
        delays = start_delay(net)
        assert bool(delays.valid[1]) is False
        assert delays.valid_count == 1

    def test_all_missing_raises(self):
        net = schedule(
            [
                ("a", date(2020, 1, 1), date(2020, 1, 2), None, None),
                ("b", date(2020, 1, 3), date(2020, 1, 4), None, None),
            ]
        )
        with pytest.raises(NoValidDelays):
            start_delay(net)
        with pytest.raises(NoValidDelays):
            end_delay(net)

    def test_end_delay_positive(self):
        net = schedule(
            [
                ("a", date(2020, 2, 1), date(2020, 2, 1), date(2020, 2, 1), date(2020, 2, 11)),
                ("b", date(2020, 2, 2), date(2020, 2, 3), None, None),
            ]
        )
        assert end_delay(net).days[0] == 10


def vectors(metric_values, delay_values, valid=None):
    metric = MetricVector("m", np.asarray(metric_values, dtype=float))
    days = np.asarray(delay_values, dtype=np.int64)
    if valid is None:
        valid = np.ones(len(days), dtype=bool)
    return metric, DelayVector(days, np.asarray(valid, dtype=bool))


class TestBinByMetric:
    def test_single_bin_mean_and_median(self):
        metric, delays = vectors([0.0, 1.0], [-5, 5])
        stats = bin_by_metric(metric, delays, 1)
        assert stats.count[0] == 2
        assert stats.mean[0] == 0.0
        assert stats.median[0] == 0.0

    def test_interpolated_quantiles(self):
        metric, delays = vectors([0.0, 0.1, 0.2, 0.3], [1, 2, 3, 4])
        stats = bin_by_metric(metric, delays, 1)
        assert stats.q25[0] == pytest.approx(1.75)
        assert stats.median[0] == pytest.approx(2.5)
        assert stats.q75[0] == pytest.approx(3.25)

    def test_constant_metric_degenerates_with_warning(self):
        metric, delays = vectors([2.0, 2.0, 2.0], [1, 2, 3])
        with pytest.warns(DegenerateMetricWarning):
            stats = bin_by_metric(metric, delays, 5)
        assert stats.n_bins == 1
        assert stats.count[0] == 3

    def test_empty_bins_report_zero_count_and_nan_stats(self):
        metric, delays = vectors([0.0, 10.0], [1, 2])
        stats = bin_by_metric(metric, delays, 5)
        assert stats.count.sum() == 2
        empty = stats.count == 0
        assert empty.any()
        assert np.isnan(stats.mean[empty]).all()

    def test_max_value_lands_in_last_bin(self):
        metric, delays = vectors([0.0, 0.5, 1.0], [1, 2, 3])
        stats = bin_by_metric(metric, delays, 2)
        assert stats.count[-1] == 2  # 0.5 and 1.0

    def test_counts_sum_to_valid_nodes(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            metric, delays = vectors(
                rng.normal(size=n), rng.integers(-10, 10, size=n), rng.random(n) < 0.8
            )
            if not delays.valid.any():
                continue
            stats = bin_by_metric(metric, delays, 6)
            assert stats.count.sum() == delays.valid_count

    def test_quantile_ordering_within_bins(self):
        rng = np.random.default_rng(127)
        metric, delays = vectors(rng.normal(size=60), rng.integers(-20, 20, size=60))
        stats = bin_by_metric(metric, delays, 7)
        filled = stats.count > 0
        assert (stats.q25[filled] <= stats.median[filled]).all()
        assert (stats.median[filled] <= stats.q75[filled]).all()
        assert (stats.q16[filled] <= stats.q84[filled]).all()

    def test_membership_invariant_under_affine_metric_transform(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            n = 50
            values = rng.normal(size=n)
            metric, delays = vectors(values, rng.integers(-5, 5, size=n))
            shifted, _ = vectors(3.5 * values + 11.0, delays.days)
            a = bin_by_metric(metric, delays, 8)
            b = bin_by_metric(shifted, delays, 8)
            assert np.array_equal(a.count, b.count)

    def test_merged_bin_mean_lies_between_parts(self):
        rng = np.random.default_rng(137)
        values = rng.normal(size=80)
        metric, delays = vectors(values, rng.integers(-30, 30, size=80))
        fine = bin_by_metric(metric, delays, 4)
        coarse = bin_by_metric(metric, delays, 2)
        # fine bins 2k and 2k+1 cover exactly coarse bin k
        for k in range(2):
            parts = [fine.mean[2 * k], fine.mean[2 * k + 1]]
            parts = [p for p in parts if not np.isnan(p)]
            if len(parts) == 2 and not np.isnan(coarse.mean[k]):
                assert min(parts) - 1e-12 <= coarse.mean[k] <= max(parts) + 1e-12

    def test_total_delay_conserved(self):
        rng = np.random.default_rng(139)
        metric, delays = vectors(rng.normal(size=70), rng.integers(-50, 50, size=70))
        stats = bin_by_metric(metric, delays, 9)
        filled = stats.count > 0
        total = float((stats.count[filled] * stats.mean[filled]).sum())
        assert total == pytest.approx(float(delays.days.sum()), abs=1e-9)

    def test_rejects_bad_bin_count(self):
        metric, delays = vectors([0.0, 1.0], [1, 2])
        with pytest.raises(ValueError):
            bin_by_metric(metric, delays, 0)

    def test_no_valid_pairs_raises(self):
        metric, delays = vectors([0.0, 1.0], [1, 2], valid=[False, False])
        with pytest.raises(NoValidDelays):
            bin_by_metric(metric, delays, 3)


class TestSuggestBinCount:
    def test_clamped_to_range(self):
        rng = np.random.default_rng(149)
        metric, delays = vectors(rng.normal(size=1000), rng.integers(-5, 5, size=1000))
        assert 4 <= suggest_bin_count(metric, delays) <= 30

    def test_small_sample_floors_at_four(self):
        metric, delays = vectors([0.0, 1.0, 2.0], [1, 2, 3])
        assert suggest_bin_count(metric, delays) == 4

    def test_constant_metric_returns_single_bin(self):
        metric, delays = vectors([5.0, 5.0], [1, 2])
        assert suggest_bin_count(metric, delays) == 1


# each reader of a metric and a delay vector, and its own error for too few valid delays
PAIRED = {
    "bin_by_metric": (lambda metric, delays: bin_by_metric(metric, delays, 3), NoValidDelays),
    "suggest_bin_count": (suggest_bin_count, NoValidDelays),
    "frequency_matrix": (lambda metric, delays: frequency_matrix(metric, delays, 2), InsufficientData),
}


class TestPairedVectors:
    """The three readers of a metric against a delay vector check and pair them alike."""

    @pytest.mark.parametrize("reader", PAIRED)
    @pytest.mark.parametrize("metric_length", [3, 5])
    def test_length_mismatch_is_rejected(self, reader, metric_length):
        call, _ = PAIRED[reader]
        metric, _ = vectors(np.arange(metric_length), np.arange(metric_length))
        _, delays = vectors([0.0] * 4, [1, 2, 3, 4], valid=[True, False, True, True])
        with pytest.raises(ValueError, match="differ in length"):
            call(metric, delays)

    @pytest.mark.parametrize("reader", PAIRED)
    def test_no_valid_delay_raises_the_readers_own_error(self, reader):
        call, error = PAIRED[reader]
        metric, delays = vectors([0.0, 1.0, 2.0], [1, 2, 3], valid=[False] * 3)
        with pytest.raises(error):
            call(metric, delays)

    def test_only_valid_delays_are_read(self):
        # the masked node's metric value would widen the range and change the bin count
        metric, delays = vectors([0.0, 1.0, 2.0, 1000.0], [1, 2, 3, 4], valid=[True, True, True, False])
        assert suggest_bin_count(metric, delays) == suggest_bin_count(*vectors([0.0, 1.0, 2.0], [1, 2, 3]))
        assert bin_by_metric(metric, delays, 2).bin_edges.tolist() == [0.0, 1.0, 2.0]
        assert frequency_matrix(metric, delays, 2).total == 3
