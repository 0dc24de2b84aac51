"""Node metric suite tests: degrees, betweenness, closeness, assembly."""

from __future__ import annotations

import itertools
import math
import os

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
    prune_isolated,
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
    forced_split,
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
# perfbench's screen-10k topology: n=9125 once pruned, 2.44M reachable pairs
SCREEN_10K = GeneratorConfig(layer_count=200, layer_width=50, edge_probability=0.012, skip_depth=2, seed=11)
# perfbench's analyze-small-batch topologies at seed 0 (n about 96)
SMALL_BATCH = [
    GeneratorConfig(layer_count=12, layer_width=8, edge_probability=0.2, skip_depth=3, seed=seed) for seed in range(200)
]


PATH_METRICS = ("betweenness", "closeness", "reverse_closeness")

DEFAULT_LIMITS = metrics._limits
# batch limits (most reached pairs, most visit stamps) under which the bits must hold
BATCH_LIMITS = {
    "one source per batch": lambda n: (DEFAULT_LIMITS(n)[0], 1),
    "one pair per batch": lambda n: (1, DEFAULT_LIMITS(n)[1]),
    "default": DEFAULT_LIMITS,
}
# CPUs the search may split between, whatever its size: None keeps the default threshold
SPLITS = {"default threshold": None, "forced, 2 CPUs": 2, "forced, 3 CPUs": 3}


def relabelled(net, perm):
    """The same network with node i renamed so that it gets index ``perm[i]``."""
    ids = [f"r{p:05d}" for p in perm]
    return build_network(make_records(ids), [Dependency(ids[s], ids[t]) for s, t in net.edges])


def cuts(net):
    """The search's cut points of ``net``'s batch list at the default limits and threshold."""
    table = reachability_table(net)
    return metrics._cuts(net, table, metrics._batches(table)[0])


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
        reach = int(reachability_table(net).descendant_counts.max())
        # stamps for one source's reach and itself: every wider batch whose U is larger is cut to fit
        one_reach = {"stamps for one source's reach": lambda n: (DEFAULT_LIMITS(n)[0], reach + 1)}
        for (setting, limits), (split, cpus) in itertools.product({**BATCH_LIMITS, **one_reach}.items(), SPLITS.items()):
            monkeypatch.setattr(metrics, "_limits", limits)
            fresh = ActivityNetwork(net.nodes, net.edges)  # a kept search would hide the new limits
            if cpus is None:
                got = path_metrics(fresh)
            else:
                with forced_split(metrics, "_SPLIT_PAIRS", 0, cpus) as forks:
                    got = path_metrics(fresh)
                batches = len(metrics._batches(reachability_table(net))[0])
                assert (1 if batches > 1 else 0) <= len(forks) < cpus, (setting, split)
            for name, got, want in zip(PATH_METRICS, got, reference):
                assert got.tobytes() == want.tobytes(), (name, setting, split)

    def test_c7_topology(self, monkeypatch):
        self.assert_same_bytes(generate_dag(C7), monkeypatch)

    def test_deep_topology_across_batches(self, monkeypatch):
        # at the default limits a node's score takes its per-source adds from several batches
        net = generate_dag(DEEP)
        bounds, _ = metrics._batches(reachability_table(net))
        assert len(bounds) >= 10 and min(stop - start for start, stop in bounds) >= 2
        self.assert_same_bytes(net, monkeypatch)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the search splits by os.fork")
    def test_deep_topology_at_every_cut_point(self):
        net = generate_dag(DEEP)
        table = reachability_table(net)
        bounds, stamp = metrics._batches(table)
        expected = [part.tobytes() for part in metrics._scores(net, table._rows, bounds, stamp, [0, len(bounds)])]
        for cut in range(1, len(bounds)):
            got = metrics._scores(net, table._rows, bounds, stamp, [0, cut, len(bounds)])
            assert [part.tobytes() for part in got] == expected, cut
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_batches_whose_sources_reach_disjoint_parts(self, monkeypatch):
        # three random DAGs with interleaved ids, so consecutive sources lie in different components
        rng = np.random.default_rng(131)
        ids, pairs = [], []
        for tag in "abc":
            part = random_network(rng, n_min=10, n_max=20, p=0.3)
            names = [f"{i:03d}{tag}" for i in range(part.n)]
            ids += names
            pairs += [(names[s], names[t]) for s, t in part.edges]
        net = make_network(ids, pairs)
        table = reachability_table(net)
        rows = np.unpackbits(table._rows, axis=1, count=net.n, bitorder="little").astype(bool)
        disjoint = [
            (i, j)
            for start, stop in metrics._batches(table)[0]
            for i, j in itertools.combinations(range(start, stop), 2)
            if rows[i].any() and rows[j].any() and not (rows[i] & rows[j]).any()
        ]
        assert disjoint
        self.assert_same_bytes(net, monkeypatch)

    def test_a_level_of_more_than_65536_pairs(self, monkeypatch):
        # 300 sources reach some of 4 hubs, then 300 middle nodes through them, then 7 sinks: one batch of every
        # source has a level too long for 16-bit sort keys, whose pairs' dependencies sum into the hubs'
        layers = [[f"{tag}{i:03d}" for i in range(k)] for tag, k in (("a", 300), ("h", 4), ("m", 300), ("z", 7))]
        rng = np.random.default_rng(137)
        edges = [
            (tail, heads[j])
            for tails, heads in zip(layers, layers[1:])
            for tail in tails
            for j in rng.choice(len(heads), size=rng.integers(1, len(heads) + 1), replace=False)
        ]
        net = make_network([node for layer in layers for node in layer], edges)
        monkeypatch.setattr(metrics, "_limits", lambda n: (1 << 20, 1 << 20))
        assert metrics._batches(reachability_table(net))[0] == [(0, net.n)]
        reference = (dict_betweenness(net), dict_closeness(net), dict_closeness(net, reversed_edges=True))
        for name, got, want in zip(PATH_METRICS, path_metrics(net), reference):
            assert got.tobytes() == want.tobytes(), name

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
    def test_each_call_peaks_under_the_kept_closure(self, monkeypatch):
        # a batch holds visit stamps and its own levels: no n-wide float rows, no whole pair list
        monkeypatch.setattr(metrics, "_SPLIT_PAIRS", math.inf)  # in one process; the split has its own test
        screening = screening_network()
        for name in PATH_METRICS:
            net = ActivityNetwork(screening.nodes, screening.edges)  # each metric runs the whole search
            reachability_table(net)  # the kept closure is the input, not working memory
            assert traced_peak(metric_vector, net, name) < net.n * net.n / 8, name

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the search splits by os.fork")
    def test_a_split_call_never_holds_a_child_stream_whole(self):
        # the child's stream, 12 bytes a reached pair, is larger than the bound, and it is taken one batch at a time
        net = screening_network()
        table = reachability_table(net)
        bounds = metrics._batches(table)[0]
        with forced_split(metrics, "_SPLIT_PAIRS") as forks:
            lo = bounds[cuts(net)[1]][0]
            assert 12 * table.descendant_counts[lo:].sum() > net.n * net.n / 8
            peak = traced_peak(metric_vector, net, "betweenness")
        assert len(forks) == 1
        assert peak < net.n * net.n / 8


class TestSplitSearch:
    def test_splits_only_above_the_threshold(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert len(cuts(generate_dag(C7))) == 2
        for config in SMALL_BATCH:
            assert len(cuts(generate_dag(config))) == 2, config.seed
        assert len(cuts(prune_isolated(generate_dag(SCREEN_10K)))) == 3

    def test_the_processes_get_about_equal_costs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        net = generate_dag(DEEP)
        table = reachability_table(net)
        bounds = metrics._batches(table)[0]
        points = cuts(net)
        assert points[0] == 0 and points[-1] == len(bounds) and len(points) == 4
        pairs = [table.descendant_counts[bounds[lo][0]:bounds[hi - 1][1]].sum() for lo, hi in zip(points, points[1:])]
        assert max(pairs) < 1.5 * min(pairs)


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

    def test_shortest_path_vectors_are_kept_on_the_network(self, diamond):
        kept = (betweenness(diamond), closeness(diamond), closeness(diamond, reversed_edges=True))
        assert [vector.name for vector in kept] == list(PATH_METRICS)
        assert betweenness(diamond) is kept[0]
        assert closeness(diamond) is kept[1]
        assert closeness(diamond, reversed_edges=True) is kept[2]
        assert [metric_vector(diamond, name) for name in PATH_METRICS] == list(kept)  # identity equality

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
