"""Node metric suite tests: degrees, betweenness, closeness, assembly."""

from __future__ import annotations

import numpy as np
import pytest

from schednet import (
    ActivityNetwork,
    Dependency,
    FrequencyMatrix,
    GeneratorConfig,
    METRIC_NAMES,
    MetricVector,
    betweenness,
    bin_by_metric,
    build_network,
    closeness,
    degree_metrics,
    generate_dag,
    metric_suite,
    metric_vector,
    reachability_table,
    rh_local_all,
    tail_distribution,
    weakly_connected_components,
)
from schednet import metrics
from schednet.cli import _metrics_csv
from schednet.performance import DelayVector
from oracles import (
    dict_betweenness,
    dict_closeness,
    enumerate_betweenness,
    make_network,
    make_records,
    random_network,
    screening_network,
    traced_peak,
)

# the acceptance-c7 topology: n=1208, sparse and shallow
C7 = GeneratorConfig(layer_count=40, layer_width=34, edge_probability=0.0169, skip_depth=2, seed=7)
# denser and deeper: n=1560, 325k reachable pairs
DEEP = GeneratorConfig(layer_count=40, layer_width=40, edge_probability=0.015, skip_depth=3, seed=13)


PATH_METRICS = ("betweenness", "closeness", "reverse_closeness")

DEFAULT_LIMITS = metrics._limits
# batch limits (most sources, most reached pairs) under which the bits must hold
BATCH_LIMITS = {
    "one source per batch": lambda n: (1, DEFAULT_LIMITS(n)[1]),
    "one pair per batch": lambda n: (DEFAULT_LIMITS(n)[0], 1),
    "default": DEFAULT_LIMITS,
}


def relabelled(net, perm):
    """The same network with node i renamed so that it gets index ``perm[i]``."""
    ids = [f"r{p:05d}" for p in perm]
    return build_network(make_records(ids), [Dependency(ids[s], ids[t]) for s, t in net.edges])


def path_metrics(net):
    return (
        betweenness(net).values,
        closeness(net).values,
        closeness(net, reversed_edges=True).values,
    )


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


class TestShortestPathFloatPath:
    """Betweenness and closeness reproduce the dict-based reference byte for byte.

    Betweenness sums floats, so its bits depend on the summation order;
    nodes with three or more shortest-path successors are where a change of
    order would show, and the dense schedules have many of them.
    """

    @staticmethod
    def assert_same_bytes(net, monkeypatch):
        reference = (dict_betweenness(net), dict_closeness(net), dict_closeness(net, reversed_edges=True))
        for setting, limits in BATCH_LIMITS.items():
            monkeypatch.setattr(metrics, "_limits", limits)
            for name, got, want in zip(PATH_METRICS, path_metrics(net), reference):
                assert got.tobytes() == want.tobytes(), (name, setting)

    def test_c7_topology(self, monkeypatch):
        self.assert_same_bytes(generate_dag(C7), monkeypatch)

    def test_deep_topology_across_batches(self, monkeypatch):
        # at the default limits a node's score takes its per-source adds from several batches
        net = generate_dag(DEEP)
        bounds, _ = metrics._batches(net.n, reachability_table(net).descendant_counts)
        assert len(bounds) >= 10 and min(stop - start for start, stop in bounds) >= 2
        self.assert_same_bytes(net, monkeypatch)

    def test_dense_schedules(self, monkeypatch):
        for seed in range(24):
            net = generate_dag(
                GeneratorConfig(layer_count=12, layer_width=8, edge_probability=0.2, skip_depth=3, seed=seed)
            )
            fanout = np.array([len(children) for children in net.successor_lists])
            assert fanout.max() >= 3
            self.assert_same_bytes(net, monkeypatch)

    def test_random_dags_with_shuffled_ids(self, monkeypatch):
        rng = np.random.default_rng(127)
        for _ in range(60):
            net = random_network(rng, n_min=3, n_max=40)
            self.assert_same_bytes(relabelled(net, rng.permutation(net.n)), monkeypatch)


class TestShortestPathMemory:
    def test_each_call_peaks_under_the_kept_closure(self):
        # a batch holds visit stamps and its own levels: no n-wide float rows, no whole pair list
        net = screening_network()
        reachability_table(net)  # the kept closure is the input, not working memory
        for name in PATH_METRICS:
            assert traced_peak(metric_vector, net, name) < net.n * net.n / 8, name


class TestNetworkxOracle:
    """Independent check against networkx at working scale.

    Convention: networkx measures closeness by *incoming* distance on a
    directed graph, so our out-closeness is networkx on ``G.reverse()``
    and our reverse closeness is networkx on ``G``. Its ``wf_improved``
    factor is the same Wasserman-Faust correction.
    """

    @pytest.mark.parametrize("config", [C7, DEEP], ids=["c7", "deep"])
    def test_matches_networkx(self, config):
        nx = pytest.importorskip("networkx")
        net = generate_dag(config)
        assert 1000 <= net.n <= 3000
        graph = nx.DiGraph()
        graph.add_nodes_from(range(net.n))
        graph.add_edges_from(net.edges)

        def column(values):
            return np.array([values[i] for i in range(net.n)])

        expected = (
            column(nx.betweenness_centrality(graph, normalized=False, endpoints=False)),
            column(nx.closeness_centrality(graph.reverse(), wf_improved=True)),
            column(nx.closeness_centrality(graph, wf_improved=True)),
        )
        for ours, theirs in zip(path_metrics(net), expected):
            np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0.0)


class TestRelabelInvariance:
    def test_scores_follow_the_nodes(self):
        net = generate_dag(
            GeneratorConfig(layer_count=20, layer_width=25, edge_probability=0.04, skip_depth=3, seed=17)
        )
        assert net.n >= 480
        perm = np.random.default_rng(131).permutation(net.n)
        between, close, reverse = path_metrics(net)
        moved_between, moved_close, moved_reverse = path_metrics(relabelled(net, perm))
        # closeness is a ratio of exact integers, so it moves with its node
        assert moved_close[perm].tobytes() == close.tobytes()
        assert moved_reverse[perm].tobytes() == reverse.tobytes()
        # source order fixes the summation order of betweenness, and it changed
        np.testing.assert_allclose(moved_between[perm], between, rtol=1e-12, atol=0.0)


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

    def test_local_rh_vector_is_kept_on_the_network(self, path3):
        assert rh_local_all(path3) is rh_local_all(path3)

    def test_repeated_runs_are_byte_identical(self):
        rng = np.random.default_rng(109)
        net = random_network(rng, n_min=10, n_max=12, ensure_edge=True)
        first = _metrics_csv(net, metric_suite(net))
        second = _metrics_csv(net, metric_suite(ActivityNetwork(net.nodes, net.edges)))  # nothing kept
        assert first == second

    def test_single_metric_equals_its_suite_entry(self):
        rng = np.random.default_rng(113)
        net = random_network(rng, n_min=10, n_max=12, ensure_edge=True)
        for vector in metric_suite(net):
            alone = metric_vector(ActivityNetwork(net.nodes, net.edges), vector.name)  # nothing kept
            assert alone.name == vector.name
            assert alone.values.tobytes() == vector.values.tobytes()
        with pytest.raises(ValueError, match="unknown metric"):
            metric_vector(net, "pagerank")

    def test_metric_vector_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MetricVector("broken", np.array([1.0, np.nan]))


def _diamond():
    return make_network("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def _delays():
    return DelayVector(np.array([1, 2, 3, 4]), np.ones(4, dtype=bool))


RESULT_TYPES = {
    "ReachabilityTable": lambda: reachability_table(_diamond()),
    "LocalRHVector": lambda: rh_local_all(_diamond()),
    "MetricVector": lambda: MetricVector("m", [0.0, 1.0, 2.0]),
    "TailDistribution": lambda: tail_distribution(reachability_table(_diamond())),
    "DelayVector": _delays,
    "BinnedStats": lambda: bin_by_metric(MetricVector("m", [0.0, 1.0, 2.0, 3.0]), _delays(), 2),
    "FrequencyMatrix": lambda: FrequencyMatrix.from_counts(np.array([[1, 2], [3, 4]])),
    "ComponentSummary": lambda: weakly_connected_components(_diamond()),
}


@pytest.mark.parametrize("name, make", RESULT_TYPES.items(), ids=list(RESULT_TYPES))
def test_array_holding_results_compare_by_identity_and_hash(name, make):
    first, second = make(), make()
    assert type(first).__name__ == name
    assert first is not second
    assert first != second
    assert first == first
    assert hash(first) == hash(first) != hash(second)
