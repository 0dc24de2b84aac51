"""Node metric suite tests: degrees, betweenness, closeness, assembly."""

from __future__ import annotations

import numpy as np
import pytest

from schednet import (
    Dependency,
    METRIC_NAMES,
    MetricVector,
    betweenness,
    build_network,
    closeness,
    degree_metrics,
    metric_suite,
    metric_vector,
    reachability_table,
    rh_local_all,
)
from schednet.cli import _metrics_csv
from oracles import enumerate_betweenness, random_network


class TestDegreeMetrics:
    def test_path(self, path3):
        in_deg, out_deg = degree_metrics(path3)
        assert list(in_deg.values) == [0, 1, 1]
        assert list(out_deg.values) == [1, 1, 0]

    def test_diamond(self, diamond):
        in_deg, out_deg = degree_metrics(diamond)
        assert in_deg.values[3] == 2
        assert out_deg.values[0] == 2

    def test_handshake_identity(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            net = random_network(rng)
            in_deg, out_deg = degree_metrics(net)
            assert in_deg.values.sum() == out_deg.values.sum() == len(net.edges)


class TestBetweenness:
    def test_path(self, path3):
        assert list(betweenness(path3).values) == [0.0, 1.0, 0.0]

    def test_diamond_splits_geodesics(self, diamond):
        assert list(betweenness(diamond).values) == [0.0, 0.5, 0.5, 0.0]

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(89)
        for _ in range(60):
            net = random_network(rng, n_max=8)
            expected = enumerate_betweenness(net.successor_lists, net.n)
            assert betweenness(net).values == pytest.approx(expected, abs=1e-9)

    def test_sources_and_sinks_score_zero(self):
        rng = np.random.default_rng(97)
        for _ in range(30):
            net = random_network(rng)
            values = betweenness(net).values
            in_deg, out_deg = degree_metrics(net)
            endpoints = (in_deg.values == 0) | (out_deg.values == 0)
            assert np.all(values[endpoints] == 0.0)

    def test_reversal_preserves_value_multiset(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            net = random_network(rng, n_max=8)
            reversed_net = build_network(
                list(net.nodes),
                [Dependency(net.nodes[t].id, net.nodes[s].id) for s, t in net.edges],
            )
            forward = sorted(betweenness(net).values)
            backward = sorted(betweenness(reversed_net).values)
            assert forward == pytest.approx(backward, abs=1e-9)


class TestCloseness:
    def test_sink_scores_zero(self, path3):
        assert closeness(path3).values[2] == 0.0

    def test_path_head(self, path3):
        # reaches 2 nodes at distances 1 and 2: (2/2) * (2/3)
        assert closeness(path3).values[0] == pytest.approx(2 / 3)

    def test_values_within_unit_interval(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            net = random_network(rng)
            for reversed_edges in (False, True):
                values = closeness(net, reversed_edges=reversed_edges).values
                assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_reverse_closeness_equals_closeness_of_reversed_network(self):
        rng = np.random.default_rng(107)
        for _ in range(30):
            net = random_network(rng)
            reversed_net = build_network(
                list(net.nodes),
                [Dependency(net.nodes[t].id, net.nodes[s].id) for s, t in net.edges],
            )
            ours = closeness(net, reversed_edges=True).values
            direct = closeness(reversed_net).values
            assert ours == pytest.approx(direct, abs=0.0)


class TestMetricSuite:
    def test_shapes_and_order(self, path3):
        suite = metric_suite(path3)
        assert [vector.name for vector in suite] == list(METRIC_NAMES)
        assert all(len(vector.values) == 3 for vector in suite)

    def test_descendants_ancestors_delegate_to_reachability(self, diamond):
        suite = {vector.name: vector for vector in metric_suite(diamond)}
        table = reachability_table(diamond)
        assert list(suite["descendants"].values) == list(table.descendant_counts)
        assert list(suite["ancestors"].values) == list(table.ancestor_counts)

    def test_local_rh_delegates_to_heterogeneity(self, path3):
        suite = {vector.name: vector for vector in metric_suite(path3)}
        assert list(suite["local_rh"].values) == list(rh_local_all(path3).values)

    def test_precomputed_local_rh_is_used_verbatim(self, path3):
        local = rh_local_all(path3)
        suite = {v.name: v for v in metric_suite(path3, local_rh=local)}
        assert list(suite["local_rh"].values) == list(local.values)

    def test_repeated_runs_are_byte_identical(self):
        rng = np.random.default_rng(109)
        net = random_network(rng, n_min=10, n_max=12, ensure_edge=True)
        first = _metrics_csv(net, metric_suite(net))
        second = _metrics_csv(net, metric_suite(net))
        assert first == second

    def test_single_metric_equals_its_suite_entry(self):
        rng = np.random.default_rng(113)
        net = random_network(rng, n_min=10, n_max=12, ensure_edge=True)
        for vector in metric_suite(net):
            alone = metric_vector(net, vector.name)
            assert alone.name == vector.name
            assert alone.values.tobytes() == vector.values.tobytes()
        with pytest.raises(ValueError, match="unknown metric"):
            metric_vector(net, "pagerank")

    def test_metric_vector_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MetricVector("broken", np.array([1.0, np.nan]))
