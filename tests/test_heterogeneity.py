"""Heterogeneity measure tests: closed forms, oracles, invariances."""

from __future__ import annotations

import json
import logging
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schednet import (
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
from schednet import heterogeneity
from schednet.cli import main
from schednet.network import ActivityNetwork
from oracles import (
    dags,
    decimal_rh,
    forced_split,
    make_network,
    make_records,
    random_network,
    rh_from_pair_sum,
    screening_network,
    traced_peak,
    without_node,
)
from rh_bits import NETWORKS, shuffled_dag


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


class TestDecimalOracle:
    """RH against a 40-digit decimal sum of the same pairs.

    Measured relative error of ``rh_global``: -3.2e-16 on small-0 (n=96),
    4.3e-18 on c7 (n=1208), 5.3e-16 on dense (n=1357) and 9.3e-17 on the
    screening network (n=2986).
    """

    @pytest.mark.parametrize("name", ["small-0", "c7", "dense", "screening"])
    def test_global_within_1e15_relative(self, name):
        net = screening_network() if name == "screening" else NETWORKS[name]()
        exact = decimal_rh(net)
        assert abs((Decimal(rh_global(net).value) - exact) / exact) < Decimal("1e-15")

    @pytest.mark.parametrize("name, samples", [("c7", 25), ("dense", 8)])
    def test_local_within_1e15_absolute(self, name, samples):
        # a local value is a difference of two scores near 0.4, so its error is absolute
        net = NETWORKS[name]()
        base = decimal_rh(net)
        for v in np.random.default_rng(11).choice(net.n, samples, replace=False).tolist():
            exact = base - decimal_rh(without_node(net, v))
            assert abs(Decimal(rh_local(net, v)) - exact) < Decimal("1e-15"), v


def rh_bits(names, threads=1, coretype=None, local=False, split=False, global_split=False):
    """Run ``rh_bits.py`` for ``names`` in a child with the given BLAS threads and kernel."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    result = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).with_name("rh_bits.py")),
            *(["--local"] if local else []),
            *(["--split"] if split else []),
            *(["--global-split"] if global_split else []),
            *names,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def x86_openblas():
    """Whether numpy runs on x86 OpenBLAS, whose dgemv kernels the block rules follow."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy < 1.26 cannot report its BLAS as data
        return False
    return "openblas" in blas.lower()


openblas_kernels = pytest.mark.skipif(not x86_openblas(), reason="bit rules of x86 OpenBLAS dgemv kernels")


CONTRACT_SETS = {
    "c7": ["c7"],
    "dense": ["dense"],
    "small-batch": [f"small-{seed}" for seed in range(24)],
    "residues": [f"residue-{n}" for n in range(1000, 1008)] + ["one-row-433"],
}


# network: (n-1) % 4, the tail rows of its reduced matrix; c7 and sparse cover 3
SWEEP_TAILS = {
    "partial-521": 0,
    "partial-522": 1,
    "partial-523": 2,
    "full-434": 1,
    "full-435": 2,
    "full-436": 3,
}


@pytest.fixture(scope="module")
def one_thread_bits():
    return rh_bits([name for names in CONTRACT_SETS.values() for name in names])


class TestFloatContract:
    """RH keeps the bits of the whole-matrix product under one BLAS thread.

    The float contract is ``oracles.dense_rh``: one n x n float64 matrix and
    one dgemv. Both sides run in a child process, where the BLAS thread
    count and kernel can be pinned before numpy loads. Bit equality with
    that product follows from how x86 OpenBLAS splits rows between its
    kernels, so these checks run only there.
    """

    @openblas_kernels
    @pytest.mark.parametrize("group", CONTRACT_SETS)
    def test_value_and_product_match_the_whole_matrix(self, one_thread_bits, group):
        for name in CONTRACT_SETS[group]:
            bits = one_thread_bits[name]
            assert bits["value"] == bits["dense"], name
            assert bits["streamed"] == bits["whole"], name

    @openblas_kernels
    @pytest.mark.parametrize("coretype", [None, "Haswell", "Nehalem"], ids=["default", "Haswell", "Nehalem"])
    def test_holds_for_each_kernel_at_one_and_two_threads(self, coretype):
        names = ["c7", "random-dense"]
        one = rh_bits(names, 1, coretype)
        two = rh_bits(names, 2, coretype)
        for name in names:
            assert one[name]["value"] == one[name]["dense"], name
            assert one[name]["streamed"] == one[name]["whole"], name
            assert two[name]["value"] == one[name]["value"], name
            assert two[name]["streamed"] == one[name]["streamed"], name

    @openblas_kernels
    def test_local_sweep_keeps_its_bits_at_two_threads(self):
        # one whole-matrix dgemv per node gives dense other local values at two threads; one-block-256 takes
        # the one-block regime, whose row and column sums and product cover all of R' in one call each
        names = ["dense", "one-block-256"]
        assert heterogeneity._ReducedReach(NETWORKS["one-block-256"]()).cut == 0
        one = rh_bits(names, 1, local=True)
        two = rh_bits(names, 2, local=True)
        for name in names:
            assert two[name]["local"] == one[name]["local"], name
            assert two[name]["value"] == one[name]["value"], name
        assert one["one-block-256"]["sampled"] == one["one-block-256"]["rebuilt"]

    @openblas_kernels
    @pytest.mark.parametrize("coretype", [None, "Haswell", "Nehalem"], ids=["default", "Haswell", "Nehalem"])
    def test_partial_refreshes_match_rebuilt_networks_for_each_kernel(self, coretype):
        # both networks refresh only the changed rows of R @ w from node to node
        names = ["c7", "sparse"]
        one = rh_bits(names, 1, coretype, local=True)
        two = rh_bits(names, 2, coretype, local=True)
        for name in names:
            for bits in one[name], two[name]:
                assert bits["sampled"] == bits["rebuilt"], name
                assert bits["single"] == bits["rebuilt"], name
            assert two[name]["local"] == one[name]["local"], name

    @openblas_kernels
    def test_sweep_blocks_keep_bits_at_every_tail_residue(self):
        for name, residue in SWEEP_TAILS.items():
            assert (NETWORKS[name]().n - 1) % 4 == residue, name
        assert heterogeneity._layout(433) == (144, 288)  # full-434's last block holds 145 rows
        for threads in (1, 2):
            bits = rh_bits(list(SWEEP_TAILS), threads, local=True)
            for name in SWEEP_TAILS:
                assert bits[name]["sampled"] == bits[name]["rebuilt"], (name, threads)

    @openblas_kernels
    def test_blocks_wider_than_the_chunk_keep_their_bits_at_two_threads(self):
        # above n = 8192 a block of 8 rows holds more than _CHUNK entries
        names = ["wide-8200", "wide-9125"]
        assert rh_bits(names, 2) == rh_bits(names, 1)

    @openblas_kernels
    def test_final_dot_keeps_its_bits_at_two_threads(self):
        # OpenBLAS splits one dot of 20,000 entries between two threads
        assert rh_bits(["dot-20000"], 2) == rh_bits(["dot-20000"], 1)
        rng = np.random.default_rng(3)
        u, y = rng.random(heterogeneity._DOT), rng.random(heterogeneity._DOT)
        assert heterogeneity._dot(u, y) == u @ y  # one piece is the whole dot

    def test_never_holds_the_dense_matrix(self):
        net = screening_network()
        reachability_table(net)  # the kept closure is the input, not working memory
        assert traced_peak(rh_global, net) < net.n * net.n * 8 / 8  # an eighth of the n x n float64 matrix

    def test_one_local_value_never_holds_the_reduced_matrix(self):
        net = screening_network()
        deepest = int(np.argmax(reachability_table(net).ancestor_counts))  # the largest cone to recompute
        rh_global(net)
        peak = traced_peak(rh_local, net, deepest)
        assert peak < (net.n - 1) ** 2 * 8 / 8  # an eighth of the reduced float64 matrix

    def test_three_sweep_steps_never_hold_the_byte_matrix(self):
        net = screening_network()
        deepest = int(np.argmax(reachability_table(net).ancestor_counts))  # the closure is kept outside the trace
        start = min(deepest, net.n - 3)

        def sweep_three_nodes():
            reduced = heterogeneity._ReducedReach(net)
            for k in range(start, start + 3):
                reduced.value_without(k)

        assert traced_peak(sweep_three_nodes) < (net.n - 1) ** 2  # one byte per reduced entry


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

    @pytest.mark.parametrize("node", [1.5, True, "3", None, -1, 3, np.int64(2)], ids=repr)
    def test_a_node_is_an_integer_index(self, path3, node):
        if isinstance(node, np.integer):
            assert rh_local(path3, node) == rh_local(path3, int(node))
        else:
            with pytest.raises(UnknownNode):
                rh_local(path3, node)

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

    def test_empty_network(self):
        assert rh_local_all(ActivityNetwork([], [])).values.size == 0

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


@pytest.fixture
def one_process(monkeypatch):
    """Sweep in this process at every size, for a test that counts or traces inside one sweep."""
    monkeypatch.setattr(heterogeneity, "_SPLIT_NODES", math.inf)


@pytest.fixture
def c7():  # a new network per test: the first rh_local_all keeps its vector on it
    net = NETWORKS["c7"]()
    reachability_table(net)  # kept on the network, outside any traced call
    return net


@pytest.fixture(scope="module")
def sparse():
    net = NETWORKS["sparse"]()
    assert heterogeneity._ReducedReach(net).cut  # past the one-block regime: the sweep refreshes rows of R @ w
    return net


def assert_keeps_blocked_product(net):
    """After every node of the sweep, ``y`` has the bits of the full blocked product.

    The full sweep, stepped alongside, forgets its last node before each
    step, so it takes each node as a range's first and recomputes every
    row of the same reduced matrix.
    """
    reduced, full = heterogeneity._ReducedReach(net), heterogeneity._ReducedReach(net)
    for k in range(net.n):
        full.removed = None
        assert reduced.value_without(k) == full.value_without(k), k
        assert reduced.y.tobytes() == full.y.tobytes(), k


# few product blocks (full-434: three below the last) and a dense closure (dense-closure-300: 1.3 n^2/16 pairs),
# where most rows change or the product is cheap: a node that follows its predecessor still refreshes only those
FOLLOWERS = {"full-434": NETWORKS["full-434"], "dense-closure-300": lambda: shuffled_dag(300, 0.02, 1)}


class TestPartialRefresh:
    """The sweep keeps R @ w from node to node and recomputes only the rows that can change."""

    def test_matches_rebuilt_networks_at_every_node(self, sparse):
        # each node follows the one before it; an unpadded gather changes 2 of these 540 values
        vector = rh_local_all(sparse)
        base = vector.global_score.value
        for v in range(sparse.n):
            assert vector.values[v] == base - rh_global(without_node(sparse, v)).value, v

    def test_keeps_the_blocked_product_at_every_row(self, sparse):
        # rows whose u is 0 do not reach the value, so this checks what the values cannot
        assert_keeps_blocked_product(sparse)

    def test_keeps_the_blocked_product_at_every_tail_residue(self):
        for name in SWEEP_TAILS:
            assert_keeps_blocked_product(NETWORKS[name]())

    def test_single_node_values_match_the_sweep(self, sparse):
        values = rh_local_all(sparse).values
        table = reachability_table(sparse)
        rng = np.random.default_rng(97)
        nodes = {0, sparse.n - 1, int(np.argmax(table.ancestor_counts)), int(np.argmax(table.descendant_counts))}
        for v in sorted(nodes | set(rng.choice(sparse.n, 6, replace=False).tolist())):
            assert rh_local(sparse, v) == values[v], v

    def test_refreshes_at_most_a_quarter_of_the_row_products_on_c7(self, c7, monkeypatch, one_process):
        cut = heterogeneity._layout(c7.n - 1)[1]
        real, refreshed = heterogeneity._product, []

        def counting(y, packed, slot, k, w, rows, block):
            if len(y) == c7.n - 1:  # the sweep's products, not rh_global's
                refreshed.append(len(rows) + len(y) - cut)  # the last block is taken whole
            real(y, packed, slot, k, w, rows, block)

        monkeypatch.setattr(heterogeneity, "_product", counting)
        rh_local_all(c7)
        assert len(refreshed) == c7.n
        assert sum(refreshed) <= c7.n * (c7.n - 1) / 4

    @pytest.mark.parametrize("name", FOLLOWERS)
    def test_every_following_node_refreshes_only_changed_rows(self, name, monkeypatch, one_process):
        net = FOLLOWERS[name]()
        step, cut = heterogeneity._layout(net.n - 1)
        assert 0 < cut < 4 * step or 16 * reachability_table(net).pair_count >= net.n**2
        real, dirty = heterogeneity._ReducedReach._dirty, []
        monkeypatch.setattr(heterogeneity._ReducedReach, "_dirty", lambda self, k: dirty.append(k) or real(self, k))
        vector = rh_local_all(net)
        assert dirty == list(range(1, net.n))
        base = vector.global_score.value
        for v in range(net.n):
            assert vector.values[v] == base - rh_global(without_node(net, v)).value, v

    def test_sweep_peaks_under_a_quarter_of_the_float_matrix(self, c7, one_process):
        # the sweep holds packed rows and one float block, no reduced matrix
        assert traced_peak(rh_local_all, c7) < (c7.n - 1) ** 2 * 8 / 4


# _run_budget stand-ins: runs of one removed node, of at most two, and of the whole network
RUN_BUDGETS = {"one node": lambda n: 0, "two nodes": lambda n: 8 * n, "whole network": lambda n: 1 << 40}


def sweep_under(net, budget):
    """``rh_local_all`` of a fresh copy of ``net`` with runs sized by ``budget``, and each run's length."""
    lengths = []
    cone_run = heterogeneity._ReducedReach._cone_run

    def counted(self, k0):
        cone_run(self, k0)
        lengths.append(len(self.run))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heterogeneity, "_SPLIT_NODES", math.inf)  # one process, which counts every run
        patch.setattr(heterogeneity, "_run_budget", budget)
        patch.setattr(heterogeneity._ReducedReach, "_cone_run", counted)
        values = rh_local_all(ActivityNetwork(net.nodes, net.edges)).values
    return values, lengths


def assert_ancestor_rows(net):
    """The sweep's ancestor rows are read-only and unpack to the transposed closure plus the identity."""
    ancestors = heterogeneity._ReducedReach(net).ancestors
    rows = reachability_table(net)._rows
    assert not ancestors.flags.writeable and ancestors.shape == rows.shape
    transposed = np.unpackbits(rows, axis=1, count=net.n, bitorder="little").T
    expected = transposed | np.eye(net.n, dtype=np.uint8)
    assert np.array_equal(np.unpackbits(ancestors, axis=1, count=net.n, bitorder="little"), expected)


class TestConeRuns:
    """The rows of anc(k) without k come from one level-by-level pass per run of removed nodes."""

    @settings(derandomize=True, deadline=None, database=None)
    @given(dags())
    def test_ancestor_rows_are_the_transposed_closure_and_each_node(self, net):
        assert_ancestor_rows(net)

    @pytest.mark.parametrize("name", ["c7", "sparse"])
    def test_ancestor_rows_at_working_scale(self, name):
        assert_ancestor_rows(NETWORKS[name]())

    @settings(derandomize=True, deadline=None, database=None)
    @given(dags(), st.sampled_from(sorted(RUN_BUDGETS)))
    def test_rows_match_the_rebuilt_closure(self, net, budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heterogeneity, "_run_budget", RUN_BUDGETS[budget])
            reduced = heterogeneity._ReducedReach(net)
            for k in range(net.n):
                reduced.value_without(k)
                rebuilt = reachability_table(without_node(net, k))._rows
                for i in range(net.n):
                    if i != k:
                        reach = reduced.bytes[reduced.slot[i]]
                        row = np.delete(np.unpackbits(reach, count=net.n, bitorder="little"), k)
                        expected = np.unpackbits(rebuilt[i - (i > k)], count=net.n - 1, bitorder="little")
                        assert row.tolist() == expected.tolist(), (k, i)

    @pytest.mark.parametrize("name", ["c7", "sparse", *SWEEP_TAILS])
    def test_every_run_size_gives_the_same_bits(self, name):
        net = NETWORKS[name]()
        expected = rh_local_all(net).values
        for budget, most in ("one node", 1), ("two nodes", 2), ("whole network", net.n):
            values, lengths = sweep_under(net, RUN_BUDGETS[budget])
            assert values.tobytes() == expected.tobytes(), budget
            assert sum(lengths) == net.n and max(lengths) == most, budget

    def test_single_values_match_the_sweep_under_every_run_size(self, sparse):
        values = rh_local_all(sparse).values
        nodes = [0, sparse.n - 1, int(np.argmax(reachability_table(sparse).ancestor_counts))]
        for budget in RUN_BUDGETS.values():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(heterogeneity, "_run_budget", budget)
                for v in nodes:
                    assert rh_local(sparse, v) == values[v], v


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep splits by os.fork")


@pytest.fixture(scope="module")
def small_batch():
    """The 200 topologies of perfbench's analyze-small-batch at seed 0 (n about 96)."""
    config = dict(layer_count=12, layer_width=8, edge_probability=0.2, skip_depth=3)
    return [generate_dag(GeneratorConfig(**config, seed=seed)) for seed in range(200)]


def swept(net, split_nodes=0, cpus=2):
    """``rh_local_all`` values of a fresh copy of ``net`` under a threshold and a CPU count, and the forks made.

    The defaults split every network between two processes.
    """
    with forced_split(heterogeneity, "_SPLIT_NODES", split_nodes, cpus) as forks:
        values = rh_local_all(ActivityNetwork(net.nodes, net.edges)).values
    return values, len(forks)


def one_process_values(net):
    return swept(net, math.inf)[0]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
class TestSplitSweep:
    """Above ``_SPLIT_NODES`` nodes the sweep is split between processes, and every value keeps its bytes."""

    def test_same_bytes_on_every_named_network_at_one_and_two_blas_threads(self):
        with ThreadPoolExecutor(2) as pool:  # the two children run side by side
            runs = list(pool.map(lambda threads: rh_bits(list(NETWORKS), threads, split=True), (1, 2)))
        for threads, run in zip((1, 2), runs):
            assert sorted(run) == sorted(NETWORKS)
            for name, bits in run.items():
                assert bits["split"] == bits["local"], (name, threads)
                assert bits["forks"] == 1, (name, threads)

    def test_same_bytes_on_the_small_batch(self, small_batch):
        for seed, net in enumerate(small_batch):
            values, forks = swept(net)
            assert values.tobytes() == one_process_values(net).tobytes(), seed
            assert forks == 1, seed
        assert_no_child_left()

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(dags())
    def test_every_split_point_gives_the_same_bytes(self, net):
        expected = one_process_values(net)
        for cut in range(1, net.n):
            with pytest.MonkeyPatch.context() as patch:
                # the sweep's n unit costs cut at ``cut``; rh_global's fewer product blocks stay in one range
                patch.setattr(heterogeneity, "cuts", lambda cost, above: [0, cut, net.n] if len(cost) == net.n else
                              [0, len(cost)])
                values = rh_local_all(ActivityNetwork(net.nodes, net.edges)).values
            assert values.tobytes() == expected.tobytes(), cut

    def test_more_processes_than_cpus_give_the_same_bytes(self):
        net = NETWORKS["sparse"]()
        values, forks = swept(net, cpus=5)
        assert forks == 4
        assert values.tobytes() == one_process_values(net).tobytes()
        assert_no_child_left()

    def test_splits_above_the_threshold_only(self, small_batch):
        threshold = heterogeneity._SPLIT_NODES
        for seed, net in enumerate(small_batch):
            assert swept(net, threshold)[1] == 0, seed
        assert swept(NETWORKS["c7"](), threshold)[1] == 1

    def test_c8_reruns_are_byte_identical_with_the_split_forced(self, tmp_path):
        # acceptance c8 on its schedule, in child processes that split every sweep between two processes
        assert main(["generate", "--layers", "12", "--width", "6", "--edge-prob", "0.2", "--skip-depth", "3",
                     "--seed", "9", "--noise", "two_point:0.2,8", "--out", str(tmp_path / "in")]) == 0
        inputs = [str(tmp_path / "in" / "activities.csv"), str(tmp_path / "in" / "dependencies.csv")]
        script = "\n".join([
            "import os, sys",
            "from schednet import heterogeneity",
            "from schednet.cli import main",
            "forks, fork = [], os.fork",
            "os.fork = lambda: forks.append(fork()) or forks[-1]",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "heterogeneity._SPLIT_NODES = 0",
            "code = main(sys.argv[1:])",
            "print(f'forks: {len(forks)}', file=sys.stderr)",
            "sys.exit(code)",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for run in ("one", "two"):
            result = subprocess.run(
                [sys.executable, "-c", script, "analyze", *inputs, "--out", str(tmp_path / run)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            assert "forks: 1" in result.stderr
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heterogeneity, "_SPLIT_NODES", math.inf)
            assert main(["analyze", *inputs, "--out", str(tmp_path / "single")]) == 0
        manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert sorted(a["path"] for a in manifest["artifacts"]) == [name for name in names if name != "manifest.json"]
        for name in names:
            one = (tmp_path / "one" / name).read_bytes()
            assert (tmp_path / "two" / name).read_bytes() == one, name
            assert (tmp_path / "single" / name).read_bytes() == one, name


def global_value(net, split_rows=0, cpus=2):
    """``rh_global`` of ``net`` under a threshold and a CPU count, and the forks made."""
    with forced_split(heterogeneity, "_SPLIT_ROWS", split_rows, cpus) as forks:
        value = rh_global(net).value
    return value, len(forks)


def layered(widths, seed):
    """A generated network with one layer per width, isolated nodes kept, so n is their sum."""
    config = GeneratorConfig(layer_count=len(widths), layer_width=tuple(widths), edge_probability=0.2, skip_depth=3,
                             seed=seed)
    return generate_dag(config)


@st.composite
def tiny_dags(draw):
    """A DAG on 0-3 nodes, often with isolated nodes, whose index order is shuffled against its edges."""
    n = draw(st.integers(0, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    ids = [f"t{p}" for p in draw(st.permutations(range(n)))]
    return make_network(ids, [(ids[i], ids[j]) for (i, j), k in zip(pairs, keep) if k])


def assert_matches_rebuilt_networks(net, single=None):
    """Every sweep value is the base score minus ``rh_global`` of the rebuilt network, to the bit, and
    ``rh_local`` equals the sweep's entry at the nodes ``single`` (all by default)."""
    vector = rh_local_all(net)
    base = vector.global_score.value
    assert base == rh_global(net).value
    expected = np.array([base - rh_global(without_node(net, v)).value for v in range(net.n)])
    assert vector.values.tobytes() == expected.tobytes()
    for v in range(net.n) if single is None else single:
        assert rh_local(net, v) == vector.values[v], v


class TestOneBlock:
    """Where one ``_product`` block holds all of R' (cut 0), d' and a' are that block's row and column sums."""

    def test_last_network_in_the_regime(self):
        net = layered([16] * 16, seed=3)
        assert net.n == 256 and heterogeneity._ReducedReach(net).cut == 0
        assert_matches_rebuilt_networks(net, single=range(0, net.n, 15))

    def test_first_network_past_it(self):
        net = layered([16] * 15 + [17], seed=3)
        assert net.n == 257 and heterogeneity._ReducedReach(net).cut == 256
        assert_matches_rebuilt_networks(net, single=range(0, net.n, 16))

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(tiny_dags())
    def test_networks_of_at_most_three_nodes(self, net):
        assert heterogeneity._ReducedReach(net).cut == 0
        assert_matches_rebuilt_networks(net)

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(dags())
    def test_small_networks_with_isolated_nodes(self, net):
        assert_matches_rebuilt_networks(net)

    @needs_fork
    def test_forced_split_keeps_the_bytes(self):
        net = layered([12] * 8, seed=11)
        assert heterogeneity._ReducedReach(net).cut == 0
        values, forks = swept(net)
        assert forks == 1
        assert values.tobytes() == one_process_values(net).tobytes()
        assert values.tobytes() == rh_local_all(net).values.tobytes()
        assert_no_child_left()


@needs_fork
class TestSplitGlobal:
    """Above ``_SPLIT_ROWS`` nodes the product of ``rh_global`` is split between processes, with the same bits."""

    def test_every_block_aligned_cut_keeps_the_bits_at_one_and_two_blas_threads(self):
        with ThreadPoolExecutor(2) as pool:  # the two children run side by side
            runs = list(pool.map(lambda threads: rh_bits(["screening"], threads, global_split=True), (1, 2)))
        step, last = heterogeneity._layout(screening_network().n)
        for threads, run in zip((1, 2), runs):
            bits = run["screening"]
            # from a first range of one block to a last range of only the last block
            assert bits["cuts"][0] == step and bits["cuts"][-1] == last, threads
            assert bits["differ"] == [], threads
            assert bits["split"] == bits["value"] == runs[0]["screening"]["value"], threads
            assert bits["forks"] == len(bits["cuts"]) + 1, threads

    def test_more_processes_than_cpus_give_the_same_bits(self):
        net = screening_network()
        value, forks = global_value(net, cpus=5)
        assert forks == 4
        assert value == global_value(net, math.inf)[0]
        assert_no_child_left()

    def test_splits_above_the_threshold_only(self, small_batch):
        threshold = heterogeneity._SPLIT_ROWS
        for seed, net in enumerate(small_batch):
            assert global_value(net, threshold)[1] == 0, seed
        assert global_value(NETWORKS["c7"](), threshold)[1] == 0
        net = prune_isolated(  # the screen-10k grid cut to n=4075
            generate_dag(GeneratorConfig(layer_count=90, layer_width=50, edge_probability=0.012, skip_depth=2, seed=11))
        )
        assert net.n > threshold
        value, forks = global_value(net, threshold)
        assert forks == 1
        assert value == global_value(net, math.inf)[0]
