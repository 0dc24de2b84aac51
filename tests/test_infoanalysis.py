"""Frequency matrix, mutual information and benchmark ranking tests."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from schednet import (
    DegenerateMetricWarning,
    FrequencyMatrix,
    InsufficientData,
    METRIC_NAMES,
    MetricVector,
    benchmark_metrics,
    default_bin_count,
    frequency_matrix,
    metric_suite,
    mutual_information,
)
from schednet.performance import DelayVector
from oracles import random_network


def pair(metric_values, delay_values, valid=None):
    metric = MetricVector("m", np.asarray(metric_values, dtype=float))
    days = np.asarray(delay_values, dtype=np.int64)
    if valid is None:
        valid = np.ones(len(days), dtype=bool)
    return metric, DelayVector(days, np.asarray(valid, dtype=bool))


class TestFrequencyMatrix:
    def test_perfect_alignment(self):
        metric, delays = pair([0, 0, 1, 1], [0, 0, 1, 1])
        m = frequency_matrix(metric, delays, 2)
        assert m.counts.tolist() == [[2, 0], [0, 2]]
        assert m.total == 4
        assert m.row_totals.tolist() == [2, 2]

    def test_default_bin_rule_square_root(self):
        metric, delays = pair(np.linspace(0, 1, 100), np.arange(100))
        m = frequency_matrix(metric, delays)
        assert m.counts.shape == (10, 10)

    def test_default_bin_rule_rounds_down(self):
        assert default_bin_count(99) == 9
        assert default_bin_count(100) == 10
        assert default_bin_count(120) == 10

    def test_constant_delay_occupies_one_column(self):
        metric, delays = pair([0.0, 0.5, 1.0, 2.0], [7, 7, 7, 7])
        m = frequency_matrix(metric, delays, 3)
        assert (m.col_totals > 0).sum() == 1

    def test_pairwise_exclusion_drives_bin_count(self):
        metric, delays = pair(
            np.linspace(0, 1, 150),
            np.arange(150),
            valid=[True] * 100 + [False] * 50,
        )
        m = frequency_matrix(metric, delays)
        assert m.counts.shape == (10, 10)
        assert m.total == 100

    def test_insufficient_data(self):
        metric, delays = pair([1.0, 2.0], [1, 2], valid=[True, False])
        with pytest.raises(InsufficientData):
            frequency_matrix(metric, delays)

    @pytest.mark.parametrize("metric_length", [3, 5])
    def test_length_mismatch_is_rejected(self, metric_length):
        metric, delays = pair(np.arange(metric_length), [1, 2, 3, 4])
        with pytest.raises(ValueError, match="differ in length"):
            frequency_matrix(metric, delays, 2)

    def test_from_counts_rejects_negative(self):
        with pytest.raises(ValueError):
            FrequencyMatrix.from_counts([[1, -1], [0, 2]])


class TestMutualInformation:
    def test_diagonal_two_symbols_is_ln2(self):
        m = FrequencyMatrix.from_counts([[2, 0], [0, 2]])
        assert mutual_information(m) == pytest.approx(math.log(2), abs=1e-12)

    def test_product_form_is_zero(self):
        rng = np.random.default_rng(151)
        for _ in range(20):
            rows = rng.integers(1, 9, size=int(rng.integers(2, 5)))
            cols = rng.integers(1, 9, size=int(rng.integers(2, 5)))
            m = FrequencyMatrix.from_counts(np.outer(rows, cols))
            assert mutual_information(m) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_mixed_matrix(self):
        m = FrequencyMatrix.from_counts([[2, 1], [1, 2]])
        expected = (2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3)
        assert mutual_information(m) == pytest.approx(expected, abs=1e-12)
        assert mutual_information(m) == pytest.approx(0.0566331, abs=1e-6)

    def test_symmetry_under_transpose(self):
        rng = np.random.default_rng(157)
        for _ in range(50):
            counts = rng.integers(0, 10, size=(4, 6))
            if counts.sum() == 0:
                continue
            m = FrequencyMatrix.from_counts(counts)
            mt = FrequencyMatrix.from_counts(counts.T)
            assert mutual_information(m) == pytest.approx(
                mutual_information(mt), abs=1e-12
            )

    def test_nonnegative_and_bounded_by_occupancy(self):
        rng = np.random.default_rng(163)
        for _ in range(50):
            counts = rng.integers(0, 6, size=(5, 5))
            if counts.sum() == 0:
                continue
            m = FrequencyMatrix.from_counts(counts)
            mi = mutual_information(m)
            assert mi >= 0.0
            bound = min(
                math.log(max(1, int((m.row_totals > 0).sum()))),
                math.log(max(1, int((m.col_totals > 0).sum()))),
            )
            assert mi <= bound + 1e-12

    def test_invariant_under_affine_rescaling(self):
        rng = np.random.default_rng(167)
        for _ in range(100):
            n = int(rng.integers(10, 60))
            x = rng.normal(size=n)
            y = rng.integers(-20, 20, size=n)
            metric, delays = pair(x, y)
            scaled, _ = pair(0.25 * x - 8.0, y)
            a = mutual_information(frequency_matrix(metric, delays, 5))
            b = mutual_information(frequency_matrix(scaled, delays, 5))
            assert a == pytest.approx(b, abs=1e-12)


class TestBenchmark:
    def test_ranks_are_a_permutation(self):
        rng = np.random.default_rng(173)
        net = random_network(rng, n_min=12, n_max=12, ensure_edge=True)
        delays = DelayVector(
            rng.integers(-10, 10, size=net.n), np.ones(net.n, dtype=bool)
        )
        report = benchmark_metrics(net, delays)
        assert sorted(entry.rank for entry in report.entries) == list(range(1, 9))
        assert [entry.metric for entry in report.entries] == [
            v.name for v in metric_suite(net)
        ]

    def test_rank_order_follows_mi_with_name_tiebreak(self):
        rng = np.random.default_rng(179)
        net = random_network(rng, n_min=10, n_max=12, ensure_edge=True)
        delays = DelayVector(
            rng.integers(-5, 5, size=net.n), np.ones(net.n, dtype=bool)
        )
        report = benchmark_metrics(net, delays)
        ordered = sorted(report.entries, key=lambda e: e.rank)
        for first, second in zip(ordered, ordered[1:]):
            assert (first.mi, second.metric) >= (second.mi, first.metric)

    def test_uses_square_root_bin_rule(self):
        rng = np.random.default_rng(181)
        net = random_network(rng, n_min=10, n_max=12, ensure_edge=True)
        valid = np.ones(net.n, dtype=bool)
        valid[0] = False
        delays = DelayVector(rng.integers(-5, 5, size=net.n), valid)
        report = benchmark_metrics(net, delays)
        assert report.n_bins == default_bin_count(net.n - 1)

    def test_reuses_precomputed_suite(self):
        rng = np.random.default_rng(191)
        net = random_network(rng, n_min=8, n_max=10, ensure_edge=True)
        delays = DelayVector(rng.integers(-5, 5, size=net.n), np.ones(net.n, dtype=bool))
        suite = metric_suite(net)
        direct = benchmark_metrics(net, delays)
        reused = benchmark_metrics(net, delays, suite=suite)
        assert [(e.metric, e.mi, e.rank) for e in direct.entries] == [
            (e.metric, e.mi, e.rank) for e in reused.entries
        ]

    def test_constant_delays_warn_and_zero_every_mi(self):
        net = random_network(np.random.default_rng(193), n_min=10, n_max=12, ensure_edge=True)
        valid = np.ones(net.n, dtype=bool)
        valid[0] = False  # a masked delay does not count toward the check
        days = np.full(net.n, 4)
        days[0] = -7
        with pytest.warns(DegenerateMetricWarning, match="every valid start delay is 4 days"):
            report = benchmark_metrics(net, DelayVector(days, valid))
        assert [e.mi for e in report.entries] == [0.0] * 8
        assert [e.rank for e in report.entries] == [
            sorted(METRIC_NAMES).index(e.metric) + 1 for e in report.entries
        ]

    def test_varying_delays_do_not_warn(self):
        net = random_network(np.random.default_rng(197), n_min=10, n_max=12, ensure_edge=True)
        days = np.zeros(net.n, dtype=np.int64)
        days[-1] = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateMetricWarning)
            benchmark_metrics(net, DelayVector(days, np.ones(net.n, dtype=bool)))
