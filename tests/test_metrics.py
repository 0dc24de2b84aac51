"""Node metric suite tests: degrees, betweenness, closeness, assembly."""

from __future__ import annotations

import csv
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings

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
from schednet.cli import _metrics_csv, main
from schednet.performance import DelayVector
from oracles import (
    dags,
    dict_betweenness,
    dict_closeness,
    enumerate_betweenness,
    exact_betweenness,
    forced_split,
    make_network,
    make_records,
    random_network,
    screening_network,
    traced_peak,
)
from rh_bits import NETWORKS

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


def ladder(layers, width):
    """Complete ladder: every node of a layer precedes every node of the next, node i in layer i // width."""
    ids = [f"A{i:05d}" for i in range(layers * width)]
    edges = [(ids[i], ids[j]) for i in range(len(ids) - width) for j in range((i // width + 2) * width)[-width:]]
    return make_network(ids, edges)


def ladder_betweenness(layers, width):
    """w * l * (L - 1 - l) at layer l: the w*l nodes above reach the w*(L-1-l) below, each through 1 of w nodes."""
    return [width * (i // width) * (layers - 1 - i // width) for i in range(layers * width)]


@pytest.fixture
def levels(monkeypatch):
    """Each level ``_rescaled`` sees, as whether it rescaled any count; every batch searched in this process."""
    seen, real = [], metrics._rescaled

    def counted(counts, source, width):
        out, shift = real(counts, source, width)
        seen.append(np.ndim(shift) > 0)
        return out, shift

    monkeypatch.setattr(metrics, "_rescaled", counted)
    monkeypatch.setattr(metrics, "_SPLIT_PAIRS", math.inf)
    return seen


class TestBoundedPathCounts:
    """Path counts past ``_SIGMA_BOUND`` are rescaled by powers of two, and betweenness keeps its bits."""

    @pytest.mark.parametrize("name", ["c7", "dense", "sparse", *(f"small-{seed}" for seed in range(8))])
    def test_rescaled_levels_keep_every_bit(self, name, levels, monkeypatch):
        net = NETWORKS[name]()
        expected = betweenness(ActivityNetwork(net.nodes, net.edges)).values
        assert not levels
        # at 2**2 no level of c7 would rescale; at 2**0 every count of two or more paths passes the bound, and
        # 46 of c7's 115 levels, 34 of sparse's 59, 1334 of dense's 1492 and 4 of each small network's 5 rescale
        monkeypatch.setattr(metrics, "_SIGMA_BOUND", 1.0)
        assert betweenness(net).values.tobytes() == expected.tobytes()
        assert any(levels)

    @pytest.mark.parametrize("width", [2, 4])
    @pytest.mark.parametrize("bound", [None, 4.0])
    def test_ladder_of_60_layers_through_analyze(self, width, bound, tmp_path, monkeypatch):
        if bound is not None:
            monkeypatch.setattr(metrics, "_SIGMA_BOUND", bound)
        flags = ["--layers", "60", "--width", str(width), "--edge-prob", "1", "--skip-depth", "1"]
        assert main(["generate", *flags, "--out", str(tmp_path / "in")]) == 0
        files = [str(tmp_path / "in" / name) for name in ("activities.csv", "dependencies.csv")]
        assert main(["analyze", *files, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "metrics.csv", newline="") as f:
            got = {row["id"]: float(row["betweenness"]) for row in csv.DictReader(f)}
        assert got == {f"A{i:05d}": value for i, value in enumerate(ladder_betweenness(60, width))}

    def test_ladder_past_the_float64_range(self, levels, monkeypatch):
        # 4**518 = 2**1036 shortest paths run from a node of the first layer to one of the last, which takes two
        # rescales; a path of 520 nodes, whose ids sort right after the ladder's first layer, counts 1 at each
        # depth in the same batch, where a scale shared by the level would take it below 2**-1022
        rungs = ladder(520, 4)
        ids, path = rungs.node_ids, [f"A00003p{k:04d}" for k in range(520)]
        net = make_network([*ids, *path], [(ids[s], ids[t]) for s, t in rungs.edges] + list(zip(path, path[1:])))
        # batches of 2**20 pairs take the search from 5 s at the default limits to 0.6 s
        monkeypatch.setattr(metrics, "_limits", lambda n: (1 << 20, 1 << 21))
        assert metrics._batches(reachability_table(net))[0][0][1] >= 4 + 520  # the first layer, all of the path
        expected = {**dict(zip(ids, ladder_betweenness(520, 4))), **{v: k * (519 - k) for k, v in enumerate(path)}}
        assert betweenness(net).values.tolist() == [expected[v] for v in net.node_ids]
        assert any(levels)

    def test_no_workload_reduces_or_rescales_a_level(self, levels):
        # the largest in-degree to the power of a batch's level count reaches 2**52 on c7, 7**126 (about 2**354) on
        # screen-10k and 2**23 on the small batch
        betweenness(generate_dag(C7))
        betweenness(prune_isolated(generate_dag(SCREEN_10K)))
        for config in SMALL_BATCH:
            betweenness(generate_dag(config))
        assert levels == []

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(dags())
    def test_matches_the_exact_oracle(self, net):
        exact = exact_betweenness(net)
        values = betweenness(net).values
        assert values.tolist() == pytest.approx([float(v) for v in exact], rel=1e-12, abs=1e-12)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_SIGMA_BOUND", 1.0)  # every level with a count of two paths or more rescales
            assert betweenness(ActivityNetwork(net.nodes, net.edges)).values.tobytes() == values.tobytes()


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
