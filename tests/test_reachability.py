"""Reachability table and tail distribution tests."""

from __future__ import annotations

import numpy as np
import pytest

from schednet import (
    Dependency,
    GeneratorConfig,
    build_network,
    generate_dag,
    reachability_table,
    rh_global,
    tail_distribution,
    tail_distribution_csv,
)
from oracles import dfs_reachable_sets, random_network, reversed_adjacency, rh_from_pair_sum

WORKING_SCALE = {
    # the acceptance-c7 topology: n=1208, 15,834 reachable pairs
    "c7": GeneratorConfig(layer_count=40, layer_width=34, edge_probability=0.0169, skip_depth=2, seed=7),
    # the same grid, dense: n=1357, 5211 edges, 745,371 reachable pairs
    "dense": GeneratorConfig(layer_count=40, layer_width=34, edge_probability=0.06, skip_depth=2, seed=7),
}


class TestReachabilityTable:
    def test_one_table_per_network(self, diamond):
        assert reachability_table(diamond) is reachability_table(diamond)

    def test_path(self, path3):
        table = reachability_table(path3)
        assert list(table.descendant_counts) == [2, 1, 0]
        assert list(table.ancestor_counts) == [0, 1, 2]
        assert table.pair_count == 3
        assert list(table.reachable_pairs) == [(0, 1), (0, 2), (1, 2)]

    def test_diamond(self, diamond):
        table = reachability_table(diamond)
        assert table.descendant_counts[0] == 3
        assert table.ancestor_counts[3] == 3
        assert table.pair_count == 5
        assert set(table.reachable_pairs) == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}

    def test_matches_dfs_oracle_on_random_networks(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            net = random_network(rng)
            table = reachability_table(net)
            desc_sets = dfs_reachable_sets(net.successor_lists)
            assert list(table.descendant_counts) == [len(s) for s in desc_sets]
            expected_pairs = {(i, j) for i in range(net.n) for j in desc_sets[i]}
            assert set(table.reachable_pairs) == expected_pairs
            assert table.pair_count == len(expected_pairs)

    def test_sum_identities(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            table = reachability_table(random_network(rng))
            assert table.descendant_counts.sum() == table.ancestor_counts.sum() == table.pair_count

    def test_reversal_swaps_descendants_and_ancestors(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            net = random_network(rng)
            reversed_net = build_network(
                list(net.nodes),
                [Dependency(net.nodes[t].id, net.nodes[s].id) for s, t in net.edges],
            )
            forward = reachability_table(net)
            backward = reachability_table(reversed_net)
            assert list(forward.descendant_counts) == list(backward.ancestor_counts)
            assert list(forward.ancestor_counts) == list(backward.descendant_counts)

    def test_adding_an_edge_never_shrinks_reach(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            net = random_network(rng, n_min=3)
            before = reachability_table(net)
            absent = [
                (i, j)
                for i in range(net.n)
                for j in range(i + 1, net.n)
                if (i, j) not in set(net.edges)
            ]
            if not absent:
                continue
            s, t = absent[int(rng.integers(len(absent)))]
            ids = net.node_ids
            grown = build_network(
                list(net.nodes),
                [Dependency(ids[a], ids[b]) for a, b in [*net.edges, (s, t)]],
            )
            after = reachability_table(grown)
            assert (after.descendant_counts >= before.descendant_counts).all()
            assert (after.ancestor_counts >= before.ancestor_counts).all()

    def test_pair_count_vs_edges(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            net = random_network(rng)
            table = reachability_table(net)
            assert table.pair_count >= len(net.edges)
            # equality exactly when the closure adds no pair beyond the edges
            closure = set(table.reachable_pairs)
            assert (table.pair_count == len(net.edges)) == (closure == set(net.edges))
            # and a DAG without any length-2 path never gains closure pairs
            succ = net.successor_lists
            if not any(succ[t] for s, t in net.edges):
                assert table.pair_count == len(net.edges)


@pytest.fixture(scope="module", params=sorted(WORKING_SCALE))
def scale_net(request):
    return generate_dag(WORKING_SCALE[request.param])


class TestWorkingScale:
    """The closure and global RH against the brute-force oracles at n > 1000."""

    def test_reach_relation_matches_dfs_oracle(self, scale_net):
        net = scale_net
        desc = dfs_reachable_sets(net.successor_lists)
        anc = dfs_reachable_sets(reversed_adjacency(net.successor_lists))
        table = reachability_table(net)
        assert net.n > 1000
        assert list(table.reachable_pairs) == [(i, j) for i in range(net.n) for j in sorted(desc[i])]
        assert table.descendant_counts.tolist() == [len(s) for s in desc]
        assert table.ancestor_counts.tolist() == [len(s) for s in anc]

    def test_rh_cancellation_error_is_bounded(self, scale_net):
        # the expansion trick cancels O(n) terms; measured 5.9e-15 (c7) and
        # 1.9e-14 (dense), so a growing error shows before it matters
        expected = rh_from_pair_sum(scale_net.successor_lists, scale_net.n)
        assert rh_global(scale_net).value == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestTailDistribution:
    def test_path_descendants(self, path3):
        table = reachability_table(path3)
        dist = tail_distribution(table, "descendants", 3)
        assert np.allclose(dist.thresholds, [0.0, 1 / 3, 2 / 3])
        assert list(dist.frequency) == [3, 2, 1]

    def test_identical_values_single_step(self, two_disjoint_edges):
        table = reachability_table(two_disjoint_edges)
        dist = tail_distribution(table, "descendants", 4)
        # d = [1, 0, 1, 0]: two distinct fractions
        assert list(dist.frequency) == [4, 2]

    def test_ancestors_mirror_descendants_on_path(self, path3):
        table = reachability_table(path3)
        desc = tail_distribution(table, "descendants", 3)
        anc = tail_distribution(table, "ancestors", 3)
        assert np.array_equal(desc.thresholds, anc.thresholds)
        assert np.array_equal(desc.frequency, anc.frequency)

    def test_frequency_non_increasing(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            table = reachability_table(random_network(rng))
            dist = tail_distribution(table, "ancestors")
            assert (np.diff(dist.frequency) <= 0).all()

    def test_explicit_thresholds(self, path3):
        table = reachability_table(path3)
        dist = tail_distribution(table, "descendants", 3, thresholds=[0.0, 0.5, 1.0])
        assert list(dist.frequency) == [3, 1, 0]

    def test_csv_export(self, path3):
        table = reachability_table(path3)
        text = tail_distribution_csv(tail_distribution(table, "descendants", 3))
        lines = text.strip().splitlines()
        assert lines[0] == "threshold,count"
        parsed = [line.split(",") for line in lines[1:]]
        assert [int(count) for _, count in parsed] == [3, 2, 1]
        assert [float(t) for t, _ in parsed] == pytest.approx([0.0, 1 / 3, 2 / 3])

    def test_unknown_axis_rejected(self, path3):
        table = reachability_table(path3)
        with pytest.raises(ValueError):
            tail_distribution(table, "cousins", 3)
