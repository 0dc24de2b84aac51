"""Heterogeneity measure tests: closed forms, oracles, invariances."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schednet import (
    ActivityNetwork,
    Dependency,
    GeneratorConfig,
    UnknownNode,
    build_network,
    estrada_rho,
    generate_dag,
    prune_isolated,
    reachability_table,
    rh_global,
    rh_local,
    rh_local_all,
)
from oracles import make_network, make_records, random_network, rh_from_pair_sum


def naive_local_values(net):
    """Remove-and-recompute loop over freshly built subnetworks."""
    base = rh_global(net).value
    out = []
    for v in range(net.n):
        keep = [rec for i, rec in enumerate(net.nodes) if i != v]
        deps = [
            Dependency(net.nodes[s].id, net.nodes[t].id)
            for s, t in net.edges
            if s != v and t != v
        ]
        out.append(base - rh_global(build_network(keep, deps)).value)
    return out


def without_node(net, v):
    """The network rebuilt from every node and edge not touching ``v``."""
    nodes = [rec for i, rec in enumerate(net.nodes) if i != v]
    edges = [(s - (s > v), t - (t > v)) for s, t in net.edges if v not in (s, t)]
    return ActivityNetwork(nodes, edges)


@st.composite
def dags(draw):
    """A DAG on 3-12 nodes whose index order is shuffled against its edges."""
    n = draw(st.integers(3, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    ids = [f"h{p:02d}" for p in draw(st.permutations(range(n)))]
    return make_network(ids, [(ids[i], ids[j]) for (i, j), k in zip(pairs, keep) if k])


def with_edges(net, pairs):
    """``net`` plus the edges ``pairs``, given as node indices."""
    ids = net.node_ids
    edges = list(net.edges) + list(pairs)
    return build_network(list(net.nodes), [Dependency(ids[s], ids[t]) for s, t in edges])


def scale_network():
    """A generated network of about 480 nodes whose index order is shuffled."""
    net = prune_isolated(
        generate_dag(
            GeneratorConfig(layer_count=20, layer_width=24, edge_probability=0.04, skip_depth=3, seed=5)
        )
    )
    ids = [f"s{p:04d}" for p in np.random.default_rng(83).permutation(net.n)]
    return build_network(make_records(ids), [Dependency(ids[s], ids[t]) for s, t in net.edges])


class TestEstradaRho:
    def test_path_is_zero(self, path3):
        assert estrada_rho(path3).value == pytest.approx(0.0, abs=1e-12)

    def test_out_star_is_one(self):
        net = make_network("abc", [("a", "b"), ("a", "c")])
        assert estrada_rho(net).value == pytest.approx(1.0, abs=1e-12)

    def test_no_edges_is_zero(self):
        net = build_network(make_records("abc"), [])
        score = estrada_rho(net)
        assert score.value == 0.0
        assert score.pair_count == 0

    def test_two_node_convention(self):
        net = make_network("ab", [("a", "b")])
        assert estrada_rho(net).value == 0.0


class TestRhGlobal:
    def test_path_is_exactly_one(self, path3):
        score = rh_global(path3)
        assert score.value == pytest.approx(1.0, abs=1e-12)
        assert score.pair_count == 3
        assert score.node_count == 3

    def test_two_disjoint_edges_are_homogeneous(self, two_disjoint_edges):
        assert rh_global(two_disjoint_edges).value == 0.0

    def test_no_pairs_is_zero(self):
        net = build_network(make_records("abc"), [])
        score = rh_global(net)
        assert score.value == 0.0
        assert score.pair_count == 0

    def test_single_edge_convention(self):
        net = make_network("ab", [("a", "b")])
        score = rh_global(net)
        assert score.value == 0.0
        assert score.pair_count == 1

    def test_matches_pair_sum_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            net = random_network(rng)
            expected = rh_from_pair_sum(net.successor_lists, net.n)
            assert rh_global(net).value == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_relabelling(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            net = random_network(rng, n_min=3)
            perm = rng.permutation(net.n)
            new_ids = [f"m{perm[i]:02d}" for i in range(net.n)]
            relabelled = build_network(
                make_records(new_ids),
                [Dependency(new_ids[s], new_ids[t]) for s, t in net.edges],
            )
            assert rh_global(relabelled).value == pytest.approx(
                rh_global(net).value, abs=1e-12
            )

    def test_invariant_under_edge_reversal(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            net = random_network(rng)
            reversed_net = build_network(
                list(net.nodes),
                [Dependency(net.nodes[t].id, net.nodes[s].id) for s, t in net.edges],
            )
            assert rh_global(reversed_net).value == pytest.approx(
                rh_global(net).value, abs=1e-12
            )

    def test_clamped_cancellation_is_logged(self, caplog):
        # K3,3 is homogeneous; its expanded raw sum cancels to about -1.8e-15
        a, b = ["a0", "a1", "a2"], ["b0", "b1", "b2"]
        net = make_network(a + b, [(s, t) for s in a for t in b])
        with caplog.at_level(logging.DEBUG, logger="schednet.heterogeneity"):
            assert rh_global(net).value == 0.0
        assert len(caplog.records) == 1
        assert "n=6" in caplog.records[0].getMessage()


class TestClosureProperties:
    """RH depends on the network only through its transitive closure."""

    @settings(derandomize=True, deadline=None, database=None)
    @given(dags(), st.data())
    def test_implied_edge_changes_nothing(self, net, data):
        # global RH only: an implied edge can bypass a removed node, so local
        # RH may change
        edges = set(net.edges)
        implied = [pair for pair in reachability_table(net).reachable_pairs if pair not in edges]
        assume(implied)
        grown = with_edges(net, [data.draw(st.sampled_from(implied))])
        before, after = reachability_table(net), reachability_table(grown)
        assert after.descendant_counts.tolist() == before.descendant_counts.tolist()
        assert after.ancestor_counts.tolist() == before.ancestor_counts.tolist()
        assert rh_global(grown).value == rh_global(net).value

    @settings(derandomize=True, deadline=None, database=None)
    @given(dags())
    def test_estrada_of_closure_is_rh(self, net):
        # on the closure, degrees become descendant and ancestor counts
        edges = set(net.edges)
        closed = with_edges(net, [p for p in reachability_table(net).reachable_pairs if p not in edges])
        assert estrada_rho(closed).value == pytest.approx(rh_global(net).value, rel=1e-12, abs=1e-12)


class TestRhLocal:
    def test_path_middle_removal(self, path3):
        assert rh_local(path3, 1) == pytest.approx(1.0, abs=1e-12)

    def test_path_endpoint_removal_uses_small_network_convention(self, path3):
        assert rh_local(path3, 0) == pytest.approx(1.0, abs=1e-12)
        assert rh_local(path3, 2) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_edges_removals_are_zero(self, two_disjoint_edges):
        for v in range(4):
            assert rh_local(two_disjoint_edges, v) == 0.0

    def test_unknown_node(self, path3):
        with pytest.raises(UnknownNode):
            rh_local(path3, 3)

    def test_negative_values_are_legal(self):
        # removing a peripheral feeder can make the rest more heterogeneous
        net = make_network(
            [f"n{i:02d}" for i in range(5)],
            [("n00", "n01"), ("n00", "n03"), ("n00", "n04"), ("n01", "n03"), ("n02", "n03")],
        )
        values = rh_local_all(net).values
        assert values.min() < 0.0


class TestRhLocalAll:
    def test_path(self, path3):
        vector = rh_local_all(path3)
        assert np.allclose(vector.values, [1.0, 1.0, 1.0], atol=1e-12)
        assert vector.global_score.value == pytest.approx(1.0, abs=1e-12)

    def test_single_edge(self):
        net = make_network("ab", [("a", "b")])
        assert list(rh_local_all(net).values) == [0.0, 0.0]

    def test_matches_naive_loop_exactly(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            net = random_network(rng)
            batch = rh_local_all(net).values
            assert list(batch) == naive_local_values(net)

    def test_matches_single_node_op_exactly(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            net = random_network(rng)
            batch = rh_local_all(net).values
            for v in range(net.n):
                assert rh_local(net, v) == batch[v]

    def test_matches_rebuilt_network_at_working_scale(self):
        net = scale_network()
        assert net.n >= 400
        table = reachability_table(net)
        succ, pred = net.successor_lists, net.predecessor_lists
        loner = next(j for j in range(net.n) if len(succ[j]) + len(pred[j]) == 1)
        samples = {
            "first": 0,
            "last": net.n - 1,
            "most ancestors": int(np.argmax(table.ancestor_counts)),
            "most descendants": int(np.argmax(table.descendant_counts)),
            "source": next(i for i in range(net.n) if not pred[i]),
            "sink": next(i for i in range(net.n) if not succ[i]),
            "isolates a node": (succ[loner] + pred[loner])[0],
        }
        vector = rh_local_all(net)
        base = rh_global(net).value
        assert vector.global_score.value == base
        for label, v in samples.items():
            expected = base - rh_global(without_node(net, v)).value
            assert vector.values[v] == expected, label
