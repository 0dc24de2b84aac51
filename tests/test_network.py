"""Network construction, validation, pruning and component tests."""

from __future__ import annotations

import heapq
import logging
from datetime import date
from types import SimpleNamespace

import numpy as np
import pytest

import schednet.network
from schednet import (
    ActivityNetwork,
    ActivityRecord,
    CycleDetected,
    Dependency,
    DuplicateActivityId,
    EmptyNetwork,
    SelfLoop,
    UnknownActivityId,
    build_network,
    load_network,
    prune_isolated,
    reachability_table,
    topological_order,
    weakly_connected_components,
    write_activities,
    write_dependencies,
)
from oracles import make_network, make_records, random_network, undirected_components


class TestActivityRecord:
    def test_valid_record(self):
        rec = ActivityRecord("a", "A", date(2021, 1, 1), date(2021, 1, 5))
        assert rec.actual_start is None

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            ActivityRecord("", "A", date(2021, 1, 1), date(2021, 1, 5))

    def test_planned_order_enforced(self):
        with pytest.raises(ValueError, match="planned_end"):
            ActivityRecord("a", "A", date(2021, 1, 5), date(2021, 1, 1))

    def test_actual_order_enforced(self):
        with pytest.raises(ValueError, match="actual_end"):
            ActivityRecord(
                "a",
                "A",
                date(2021, 1, 1),
                date(2021, 1, 5),
                actual_start=date(2021, 1, 4),
                actual_end=date(2021, 1, 2),
            )

    def test_single_actual_date_allowed(self):
        rec = ActivityRecord(
            "a", "A", date(2021, 1, 1), date(2021, 1, 5), actual_start=date(2021, 1, 2)
        )
        assert rec.actual_end is None


class TestBuildNetwork:
    def test_three_node_path(self, path3):
        assert path3.n == 3
        assert path3.edges == ((0, 1), (1, 2))
        assert path3.index_of == {"a": 0, "b": 1, "c": 2}

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected) as excinfo:
            make_network("ab", [("a", "b"), ("b", "a")])
        assert set(excinfo.value.cycle) == {"a", "b"}

    def test_longer_cycle_is_named(self):
        with pytest.raises(CycleDetected) as excinfo:
            make_network("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        assert set(excinfo.value.cycle) == {"a", "b", "c"}

    @pytest.mark.parametrize(
        "edges, cycle",
        [
            ([("c", "d"), ("d", "e"), ("e", "c"), ("e", "a"), ("a", "b")], ["c", "d", "e"]),
            ([("a", "e"), ("e", "d"), ("d", "e"), ("b", "a"), ("d", "c")], ["d", "e"]),
            ([("a", "b"), ("b", "a"), ("d", "e"), ("e", "d"), ("b", "c"), ("c", "d")], ["a", "b"]),
        ],
    )
    def test_cycle_is_named_exactly_when_stuck_nodes_hang_downstream(self, edges, cycle):
        with pytest.raises(CycleDetected) as excinfo:
            make_network("abcde", edges)
        named = excinfo.value.cycle
        assert sorted(named) == cycle
        assert set(zip(named, named[1:] + named[:1])) <= set(edges)

    def test_duplicate_rows_collapse_to_one_edge(self, caplog):
        with caplog.at_level(logging.WARNING):
            net = make_network("ab", [("a", "b"), ("a", "b")])
        assert net.edges == ((0, 1),)
        assert any("duplicate" in record.message for record in caplog.records)

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownActivityId):
            make_network("ab", [("a", "z")])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            make_network("ab", [("a", "a")])

    def test_duplicate_activity_id_rejected(self):
        records = make_records("ab") + make_records("a")
        with pytest.raises(DuplicateActivityId):
            build_network(records, [])

    def test_nodes_sorted_by_id(self):
        records = list(reversed(make_records("abc")))
        net = build_network(records, [Dependency("a", "c")])
        assert net.node_ids == ("a", "b", "c")
        assert net.edges == ((0, 2),)

    def test_the_warning_counts_every_duplicate_row(self, caplog):
        pairs = [("a", "b"), ("b", "c"), ("a", "b"), ("a", "c"), ("a", "b"), ("b", "c")]
        with caplog.at_level(logging.WARNING, logger="schednet.network"):
            net = make_network("abcd", pairs)
        assert net.edges == ((0, 1), (0, 2), (1, 2))
        assert [record.getMessage() for record in caplog.records] == ["collapsed 3 duplicate dependency rows"]

    def test_no_warning_without_duplicates(self, caplog):
        with caplog.at_level(logging.WARNING, logger="schednet.network"):
            make_network("abc", [("b", "c"), ("a", "b")])
        assert not caplog.records

    @pytest.mark.parametrize(
        "pairs, error, activity_id",
        [
            ([("a", "b"), ("z", "z")], SelfLoop, "z"),  # a self-loop on an unknown id is a self-loop
            ([("y", "z")], UnknownActivityId, "y"),  # the predecessor is checked first
            ([("a", "z"), ("b", "b")], UnknownActivityId, "z"),  # the first faulty row decides
            ([("b", "b"), ("a", "z")], SelfLoop, "b"),
            ([("a", "b"), ("c", "c"), ("a", "b")], SelfLoop, "c"),
        ],
    )
    def test_the_first_faulty_row_names_its_fault(self, pairs, error, activity_id):
        with pytest.raises(error) as excinfo:
            make_network("abc", pairs)
        assert excinfo.value.activity_id == activity_id


class TestActivityNetworkEdges:
    """The constructor takes any int-like pairs, dedups and sorts them, and names the first bad one in sorted order."""

    def test_numpy_ints_unsorted_and_duplicated(self):
        pairs = [(np.int64(2), np.int32(0)), (1, 2), (np.uint8(1), np.int16(2)), (0, 1), (2, 0)]
        net = ActivityNetwork(make_records("abc"), pairs)
        assert net.edges == ((0, 1), (1, 2), (2, 0))
        assert all(type(i) is int for edge in net.edges for i in edge)
        assert net.successor_lists == ((1,), (2,), (0,))
        assert net.predecessor_lists == ((2,), (0,), (1,))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_an_integer_array_gives_the_network_of_its_pairs(self, dtype):
        pairs = [(3, 1), (0, 2), (3, 1), (0, 1), (2, 3), (0, 2)]
        net = ActivityNetwork(make_records("abcd"), np.array(pairs, dtype=dtype))
        assert net == ActivityNetwork(make_records("abcd"), pairs)
        assert net.edges == ((0, 1), (0, 2), (2, 3), (3, 1))
        assert net.successor_lists == ((1, 2), (), (3,), (1,))
        assert net.predecessor_lists == ((), (0, 3), (0,), (2,))

    def test_any_iterable(self):
        net = ActivityNetwork(make_records("abc"), ((t, s) for s, t in [(1, 0), (2, 1)]))
        assert net.edges == ((0, 1), (1, 2))
        assert ActivityNetwork(make_records("abc"), []).edges == ()
        assert ActivityNetwork([], np.empty((0, 2), dtype=np.int64)).edges == ()

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0, 5), (-1, 0)], r"edge \(-1, 0\) references a node outside 0..2"),
            ([(2, 2), (0, 7)], r"edge \(0, 7\) references a node outside 0..2"),
            ([(1, 1), (2, 9), (0, 1)], r"edge \(1, 1\) is a self-loop"),
            ([(0, 1), (2**70, 0)], r"edge \(1180591620717411303424, 0\) references a node outside 0..2"),
            ([(np.int64(3), np.int64(0))], r"edge \(3, 0\) references a node outside 0..2"),
        ],
    )
    def test_the_first_bad_edge_in_sorted_order(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            ActivityNetwork(make_records("abc"), pairs)
        if all(abs(int(i)) < 2**63 for pair in pairs for i in pair):
            with pytest.raises(ValueError, match=message):
                ActivityNetwork(make_records("abc"), np.array(pairs, dtype=np.int64))

    def test_an_unsigned_array_past_int64_names_its_own_value(self):
        with pytest.raises(ValueError, match=r"edge \(0, 9223372036854775808\) references a node outside"):
            ActivityNetwork(make_records("abc"), np.array([[0, 2**63]], dtype=np.uint64))

    def test_an_edge_that_is_no_pair_raises_as_unpacking_does(self):
        with pytest.raises(ValueError, match="too many values to unpack"):
            ActivityNetwork(make_records("abcd"), [(0, 1, 2), (1, 2, 3)])
        with pytest.raises(ValueError, match="too many values to unpack"):
            ActivityNetwork(make_records("abcd"), np.array([[0, 1, 2], [1, 2, 3]]))


class TestPruneIsolated:
    def test_drops_isolated_node(self):
        net = make_network("abc", [("a", "b")])
        pruned = prune_isolated(net)
        assert pruned.node_ids == ("a", "b")
        assert pruned.edges == ((0, 1),)

    def test_fixpoint_when_nothing_isolated(self):
        net = make_network("ab", [("a", "b")])
        assert prune_isolated(net) == net

    def test_all_isolated_raises(self):
        net = make_network("abc", [])
        with pytest.raises(EmptyNetwork):
            prune_isolated(net)

    def test_carries_the_kept_order(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            net = random_network(rng, ensure_edge=True)
            pruned = prune_isolated(net)
            assert topological_order(pruned) == topological_order(ActivityNetwork(pruned.nodes, pruned.edges))

    def test_load_network_with_an_isolated_node_sorts_once(self, tmp_path, monkeypatch):
        write_activities(tmp_path / "a.csv", make_records("abcd"))
        write_dependencies(tmp_path / "d.csv", [Dependency("a", "b"), Dependency("b", "d")])
        sorts = []

        def heapify(heap):  # once per topological sort
            sorts.append(len(heap))
            heapq.heapify(heap)

        monkeypatch.setattr(
            schednet.network, "heapq", SimpleNamespace(heapify=heapify, heappop=heapq.heappop, heappush=heapq.heappush)
        )
        net = load_network(tmp_path / "a.csv", tmp_path / "d.csv")
        assert net.node_ids == ("a", "b", "d")
        reachability_table(net)
        assert len(sorts) == 1

    def test_idempotent_on_random_networks(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            net = random_network(rng, ensure_edge=True)
            once = prune_isolated(net)
            assert prune_isolated(once) == once


class TestComponents:
    def test_two_disjoint_edges(self, two_disjoint_edges):
        summary = weakly_connected_components(two_disjoint_edges)
        assert summary.component_count == 2
        assert summary.largest_component_size == 2

    def test_path(self, path3):
        summary = weakly_connected_components(path3)
        assert summary.component_count == 1
        assert summary.largest_component_size == 3

    def test_labels_ordered_by_smallest_index(self):
        net = make_network("abcd", [("c", "d"), ("a", "b")])
        summary = weakly_connected_components(net)
        assert list(summary.membership) == [0, 0, 1, 1]

    def test_matches_flooding_oracle_on_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            net = random_network(rng)
            summary = weakly_connected_components(net)
            expected = undirected_components(net.n, net.edges)
            assert list(summary.membership) == expected
            assert summary.component_count == len(set(expected))

    def test_count_plus_edges_invariant_under_reversal(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            net = random_network(rng)
            reversed_net = make_network(
                net.node_ids,
                [(net.nodes[t].id, net.nodes[s].id) for s, t in net.edges],
            )
            forward = weakly_connected_components(net)
            backward = weakly_connected_components(reversed_net)
            assert forward.component_count + len(net.edges) == (
                backward.component_count + len(reversed_net.edges)
            )


class TestTopologicalOrder:
    def test_path(self, path3):
        assert topological_order(path3) == [0, 1, 2]

    def test_diamond_tie_break_by_index(self, diamond):
        assert topological_order(diamond) == [0, 1, 2, 3]

    def test_every_edge_points_forward_on_random_networks(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            net = random_network(rng)
            position = {node: k for k, node in enumerate(topological_order(net))}
            for s, t in net.edges:
                assert position[s] < position[t]

    def test_mutating_the_returned_order_leaves_the_next_call_intact(self, diamond):
        order = topological_order(diamond)
        order.reverse()
        order.append(99)
        assert topological_order(diamond) == [0, 1, 2, 3]
        assert topological_order(diamond) is not topological_order(diamond)

    @pytest.mark.parametrize("compute", [topological_order, reachability_table])
    def test_cycle_built_directly_raises_on_every_call(self, compute):
        cyclic = ActivityNetwork(make_records("abc"), [(0, 1), (1, 2), (2, 0)])
        for _ in range(2):
            with pytest.raises(CycleDetected) as info:
                compute(cyclic)
            assert sorted(info.value.cycle) == ["a", "b", "c"]
