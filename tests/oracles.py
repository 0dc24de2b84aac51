"""Independent brute-force oracles used to cross-check library results.

Everything here is deliberately naive: per-source DFS for reachability,
explicit pair sums for heterogeneity, exhaustive path enumeration for
betweenness. None of it shares code with the implementations it checks.

``dict_betweenness`` and ``dict_closeness`` are the exception in kind: they
are the earlier dict-based Brandes and BFS-closeness implementations, kept
unchanged as the reference for the library's floating-point path. The
library must reproduce their bytes, not merely their values.

``screening_network`` and ``traced_peak`` are the network and the
tracemalloc helper that the working-memory checks share, and
``forced_split`` the setting the checks of every split stage share.
``read_schedule`` reads a schedule's CSV files with the standard library
alone, for the loader's checks.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import tracemalloc
from collections import deque
from datetime import date
from decimal import Decimal, localcontext

import numpy as np
import pytest

from schednet import (
    ActivityNetwork,
    ActivityRecord,
    Dependency,
    GeneratorConfig,
    build_network,
    generate_dag,
    prune_isolated,
)

DAY0 = date(2021, 1, 1)
DAY4 = date(2021, 1, 5)


def make_records(ids, planned_start=DAY0, planned_end=DAY4):
    return [ActivityRecord(i, f"activity {i}", planned_start, planned_end) for i in ids]


def make_network(ids, edge_pairs):
    """Network from id list and (predecessor id, successor id) pairs."""
    return build_network(make_records(ids), [Dependency(a, b) for a, b in edge_pairs])


def without_node(net, v):
    """The network rebuilt from every node and edge not touching ``v``."""
    nodes = [rec for i, rec in enumerate(net.nodes) if i != v]
    edges = [(s - (s > v), t - (t > v)) for s, t in net.edges if v not in (s, t)]
    return ActivityNetwork(nodes, edges)


def random_network(rng, n_min=2, n_max=12, p=None, ensure_edge=False):
    """Random DAG whose edges all point from lower to higher id."""
    n = int(rng.integers(n_min, n_max + 1))
    ids = [f"n{i:02d}" for i in range(n)]
    if p is None:
        p = float(rng.uniform(0.1, 0.5))
    pairs = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    if ensure_edge and not pairs and n >= 2:
        pairs = [(ids[0], ids[1])]
    return make_network(ids, pairs)


def screening_network():
    """A generated network of about 3000 nodes, the size where a dense float matrix shows."""
    net = prune_isolated(
        generate_dag(GeneratorConfig(layer_count=66, layer_width=50, edge_probability=0.012, skip_depth=2, seed=11))
    )
    assert 2800 <= net.n <= 3200
    return net


def traced_peak(function, *args):
    """Peak traced Python memory while ``function(*args)`` runs, in bytes."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def forced_split(module, threshold_name, threshold=0, cpus=2):
    """A split stage's threshold set and ``cpus`` CPUs faked; yields the list of pids ``os.fork`` returns.

    A split pins this process to one CPU and then sets the faked mask
    back, so the real mask is set again at the end.
    """
    real = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, threshold_name, threshold)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        patch.setattr(os, "fork", counted)
        try:
            yield forks
        finally:
            if real is not None:
                os.sched_setaffinity(0, real)


def dfs_reachable_sets(succ):
    """Per-source proper descendant sets via plain DFS."""
    n = len(succ)
    sets = []
    for source in range(n):
        seen = set()
        stack = list(succ[source])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ[node])
        sets.append(seen)
    return sets


def reversed_adjacency(succ):
    n = len(succ)
    pred = [[] for _ in range(n)]
    for i, children in enumerate(succ):
        for j in children:
            pred[j].append(i)
    return pred


def rh_from_pair_sum(succ, n):
    """Direct evaluation of the reachability-heterogeneity definition.

    Sums (1/sqrt(d_i) - 1/sqrt(a_j))^2 over DFS-derived reachable pairs,
    one term at a time.
    """
    desc = dfs_reachable_sets(succ)
    anc = dfs_reachable_sets(reversed_adjacency(succ))
    d = [len(s) for s in desc]
    a = [len(s) for s in anc]
    pairs = [(i, j) for i in range(n) for j in sorted(desc[i])]
    if n <= 2 or not pairs:
        return 0.0
    total = 0.0
    for i, j in pairs:
        diff = 1.0 / math.sqrt(d[i]) - 1.0 / math.sqrt(a[j])
        total += diff * diff
    return total / (n - 2.0 * math.sqrt(n - 1))


def reach_matrix(network):
    """The n x n boolean reach matrix, built as rows in reverse topological order.

    The order is a plain Kahn sort; row i is the union of i's successors
    and their rows.
    """
    n = network.n
    succ = network.successor_lists
    remaining = [len(p) for p in network.predecessor_lists]
    order = [i for i in range(n) if remaining[i] == 0]
    for i in order:
        for j in succ[i]:
            remaining[j] -= 1
            if remaining[j] == 0:
                order.append(j)
    reach = np.zeros((n, n), dtype=bool)
    for i in reversed(order):
        for j in succ[i]:
            reach[i, j] = True
            reach[i] |= reach[j]
    return reach


def dense_rh(network):
    """RH as one whole-matrix float64 product ``u @ (R @ w)``.

    R is :func:`reach_matrix`, converted to float64 in one piece. This is
    the library's float contract: the expansion
    ``#sources + #targets - 2 u'Rw``, the clamp at 0 and the normalizer,
    with the product taken as one dgemv.
    """
    n = network.n
    reach = reach_matrix(network)
    d = reach.sum(axis=1)
    a = reach.sum(axis=0)
    if n <= 2 or not d.any():
        return 0.0
    u = np.zeros(n)
    np.divide(1.0, np.sqrt(d.astype(np.float64)), out=u, where=d > 0)
    w = np.zeros(n)
    np.divide(1.0, np.sqrt(a.astype(np.float64)), out=w, where=a > 0)
    matrix = reach.astype(np.float64)
    raw = int(np.count_nonzero(d)) + int(np.count_nonzero(a)) - 2.0 * float(u @ (matrix @ w))
    if raw < 0.0:
        raw = 0.0
    return raw / (n - 2.0 * math.sqrt(n - 1))


def decimal_rh(network, digits=40):
    """Global RH as a ``Decimal`` of ``digits`` significant digits.

    The reachable pairs of :func:`reach_matrix` are grouped by their
    (d_i, a_j) counts, and each group adds ``count * (1/sqrt(d) - 1/sqrt(a))^2``
    in decimal arithmetic, so no float rounding and no cancellation enters
    the sum. Zero for at most two nodes or no reachable pair.
    """
    n = network.n
    reach = reach_matrix(network)
    d = reach.sum(axis=1)
    a = reach.sum(axis=0)
    rows, cols = np.nonzero(reach)
    if n <= 2 or not len(rows):
        return Decimal(0)
    groups, counts = np.unique(d[rows] * (n + 1) + a[cols], return_counts=True)
    with localcontext() as context:
        context.prec = digits
        inverse_root = [Decimal(0)] + [1 / Decimal(c).sqrt() for c in range(1, n + 1)]
        raw = sum(
            count * (inverse_root[g // (n + 1)] - inverse_root[g % (n + 1)]) ** 2
            for g, count in zip(groups.tolist(), counts.tolist())
        )
        return raw / (n - 2 * Decimal(n - 1).sqrt())


def enumerate_betweenness(succ, n):
    """Betweenness by exhaustive enumeration of every simple directed path."""

    def all_paths(source, target):
        paths = []
        stack = [(source, [source])]
        while stack:
            node, path = stack.pop()
            if node == target:
                paths.append(path)
                continue
            for child in succ[node]:
                if child not in path:
                    stack.append((child, path + [child]))
        return paths

    score = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = all_paths(s, t)
            if not paths:
                continue
            shortest = min(len(p) for p in paths)
            geodesics = [p for p in paths if len(p) == shortest]
            for path in geodesics:
                for node in path[1:-1]:
                    score[node] += 1.0 / len(geodesics)
    return score


def dict_betweenness(network):
    """Brandes betweenness with per-source dicts, sources in ascending order."""
    succ = network.successor_lists
    n = network.n
    score = np.zeros(n, dtype=np.float64)
    for source in range(n):
        if not succ[source]:
            continue
        dist: dict[int, int] = {source: 0}
        sigma: dict[int, float] = {source: 1.0}
        preds: dict[int, list[int]] = {source: []}
        visited: list[int] = []
        queue: deque[int] = deque([source])
        while queue:
            v = queue.popleft()
            visited.append(v)
            dv = dist[v]
            sv = sigma[v]
            for w in succ[v]:
                if w not in dist:
                    dist[w] = dv + 1
                    sigma[w] = 0.0
                    preds[w] = []
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
                    preds[w].append(v)
        delta = dict.fromkeys(visited, 0.0)
        for w in reversed(visited):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != source:
                score[w] += delta[w]
    return score


def dict_closeness(network, reversed_edges=False):
    """Wasserman-Faust out-closeness (in-closeness when reversed) by dict BFS."""
    adjacency = network.predecessor_lists if reversed_edges else network.successor_lists
    n = network.n
    values = np.zeros(n, dtype=np.float64)
    for source in range(n):
        reached = 0
        total = 0
        dist: dict[int, int] = {source: 0}
        queue: deque[int] = deque([source])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    reached += 1
                    total += dist[w]
                    queue.append(w)
        if reached > 0:
            values[source] = (reached / (n - 1)) * (reached / total)
    return values


def undirected_components(n, edges):
    """Component labelling by repeated breadth-first flooding."""
    adjacency = [[] for _ in range(n)]
    for s, t in edges:
        adjacency[s].append(t)
        adjacency[t].append(s)
    label = [-1] * n
    current = 0
    for start in range(n):
        if label[start] != -1:
            continue
        frontier = [start]
        label[start] = current
        while frontier:
            node = frontier.pop()
            for other in adjacency[node]:
                if label[other] == -1:
                    label[other] = current
                    frontier.append(other)
        current += 1
    return label


def read_schedule(activities_path, dependencies_path):
    """A schedule's CSV pair read with ``csv`` and ``date.fromisoformat`` alone, isolated activities dropped.

    Returns the activity rows as tuples (id, name, planned start, planned
    end, actual start, actual end) in ascending id order, the distinct
    edges as sorted index pairs, each node's successors and predecessors in
    ascending order, and the topological order that takes the smallest
    ready index first. Cells are stripped, blank rows skipped and a UTF-8
    byte-order mark dropped. Only valid schedules are read.
    """

    def rows(path):
        with open(path, newline="", encoding="utf-8-sig") as handle:
            table = [[cell.strip() for cell in row] for row in csv.reader(handle)]
        return [row for row in table[1:] if len(row) > 1 or row and row[0]]

    def day(text):
        return date.fromisoformat(text) if text else None

    activities = {row[0]: (row[0], row[1], *map(day, row[2:])) for row in rows(activities_path)}
    named = {(p, s) for p, s in rows(dependencies_path)}
    kept = sorted({node_id for pair in named for node_id in pair})
    index = {node_id: i for i, node_id in enumerate(kept)}
    edges = sorted((index[p], index[s]) for p, s in named)
    succ = [[t for s, t in edges if s == i] for i in range(len(kept))]
    pred = [[s for s, t in edges if t == i] for i in range(len(kept))]
    waiting = [len(p) for p in pred]
    ready = [i for i, count in enumerate(waiting) if count == 0]
    order = []
    while ready:
        node = min(ready)
        ready.remove(node)
        order.append(node)
        for t in succ[node]:
            waiting[t] -= 1
            if waiting[t] == 0:
                ready.append(t)
    return [activities[node_id] for node_id in kept], edges, succ, pred, order
