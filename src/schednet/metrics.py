"""Benchmark node metrics over activity networks.

The suite covers eight per-node measures: in/out degree, directed
shortest-path betweenness (unnormalized, endpoints excluded), closeness
and reverse closeness in the Wasserman-Faust form for disconnected
graphs, descendant and ancestor counts, and local RH. All shortest paths
use unit edge weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .heterogeneity import rh_local_all
from .network import ActivityNetwork
from .reachability import ReachabilityTable, closure, reachability_table

METRIC_NAMES = (
    "in_degree",
    "out_degree",
    "betweenness",
    "closeness",
    "reverse_closeness",
    "descendants",
    "ancestors",
    "local_rh",
)


@dataclass(frozen=True, eq=False)
class MetricVector:
    """Named per-node metric values, aligned to network node order."""

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"metric {self.name!r}: values must be 1-D")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"metric {self.name!r}: values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def degree_metrics(network: ActivityNetwork) -> tuple[MetricVector, MetricVector]:
    """In-degree and out-degree vectors."""
    return metric_vector(network, "in_degree"), metric_vector(network, "out_degree")


def betweenness(network: ActivityNetwork) -> MetricVector:
    """Directed shortest-path betweenness, unnormalized, endpoints excluded.

    Brandes' algorithm over batches of consecutive sources, each batch
    searched together level by level (:func:`_levels`): the shortest-path
    counts ``sigma`` go forward over the levels, then the dependencies
    ``delta`` go back over them. The floating-point result is fixed by the
    summation order, which is part of the contract:

    - ``sigma[w]`` is one ``np.bincount`` over the edges (v, w) into w's
      level, in queue-then-adjacency order of v;
    - ``delta[v]`` is one ``np.bincount`` over the edges (v, w) out of v's
      level, stably sorted by descending queue position of w;
    - each node's score receives its per-source ``delta`` by ``np.add.at``
      in ascending source order, within a batch and across batches.

    These are the bits of one search per source with the sources in
    ascending order, whatever the batch limits (:func:`_limits`). The
    reach counts of the kept closure size the batches.
    """
    n = network.n
    adjacency = _adjacency(network, reversed_edges=False)
    bounds, stamp = _batches(n, closure(network).descendant_counts)
    score = np.zeros(n, dtype=np.float64)
    for start, stop in bounds:
        levels = list(_levels(adjacency, n, np.arange(start, stop), stamp))
        sigma = [np.ones(stop - start)]
        for keys, parent, child in levels:
            sigma.append(np.bincount(child, weights=sigma[-1][parent], minlength=len(keys)))
        reached, dependency = [], []
        delta = np.zeros(len(sigma[-1]))
        while levels:  # deepest first, dropping each level once it is used
            keys, parent, child = levels.pop()
            reached.append(keys)
            dependency.append(delta)
            coeff = (1.0 + delta) / sigma.pop()
            order = np.argsort(-child, kind="stable")
            parent = parent[order]
            up = sigma[-1]
            delta = np.bincount(parent, weights=up[parent] * coeff[child[order]], minlength=len(up))
        if reached:
            keys = np.concatenate(reached)
            order = np.argsort(keys // n, kind="stable")
            np.add.at(score, keys[order] % n, np.concatenate(dependency)[order])
    return MetricVector("betweenness", score)


def closeness(network: ActivityNetwork, reversed_edges: bool = False) -> MetricVector:
    """Out-closeness with the Wasserman-Faust correction.

    ``C(i) = (r / (n - 1)) * (r / sum_of_distances)`` where r counts the
    nodes reachable from i; zero when nothing is reachable. With
    ``reversed_edges`` the same value is computed on the edge-reversed
    network (distance *to* i), which the metric suite reports as
    ``reverse_closeness``.

    r is the descendant count, or with ``reversed_edges`` the ancestor
    count, of the kept closure. Batches of consecutive sources are searched
    together level by level (:func:`_levels`), and each level adds depth
    times one ``np.bincount`` of its new (source, node) pairs per source to
    the distance sum, so it stays an exact integer.
    """
    n = network.n
    table = closure(network)
    reach = table.ancestor_counts if reversed_edges else table.descendant_counts
    adjacency = _adjacency(network, reversed_edges)
    bounds, stamp = _batches(n)
    values = np.zeros(n, dtype=np.float64)
    for start, stop in bounds:
        total = np.zeros(stop - start, dtype=np.int64)
        for depth, (keys, _, _) in enumerate(_levels(adjacency, n, np.arange(start, stop), stamp), 1):
            total += depth * np.bincount(keys // n, minlength=stop - start)
        reached = reach[start:stop]
        hit = np.flatnonzero(reached)
        values[start + hit] = (reached[hit] / (n - 1)) * (reached[hit] / total[hit])
    name = "reverse_closeness" if reversed_edges else "closeness"
    return MetricVector(name, values)


def _limits(n: int) -> tuple[int, int]:
    """The most sources, and the most reached (source, node) pairs, in one batch.

    A batch's int32 visit stamps take half the bytes of the kept closure,
    n*n/8, but at least 512 KB and at most 8 MB; its reached pairs number
    at most a 32nd of its stamps.
    """
    stamps = min(max(n * n // 64, 1 << 17), 1 << 21)
    return max(1, min(n, stamps // max(n, 1))), stamps // 32


def _batches(n: int, reach: np.ndarray | None = None) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Runs ``(start, stop)`` of consecutive sources, and the stamps they share.

    With ``reach``, each source's count of reached nodes, a run also keeps
    to the pair limit, but a run always holds at least one source.
    """
    size, pairs = _limits(n)
    cumulative = None if reach is None else np.concatenate(([0], np.cumsum(reach)))
    bounds = []
    start = 0
    while start < n:
        stop = min(start + size, n)
        if cumulative is not None:
            stop = min(stop, int(np.searchsorted(cumulative, cumulative[start] + pairs, side="right")) - 1)
        stop = max(stop, start + 1)
        bounds.append((start, stop))
        start = stop
    widest = max((stop - start for start, stop in bounds), default=0)
    return bounds, np.full(widest * n, -1, dtype=np.int32)


def _adjacency(network: ActivityNetwork, reversed_edges: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays ``(start, degree, neighbours)`` of the successors, or of the predecessors.

    ``network.edges`` is sorted, so each node's neighbours come in ascending
    order, as in the network's adjacency lists.
    """
    edges = np.array(network.edges, dtype=np.int64).reshape(-1, 2)
    if reversed_edges:
        edges = edges[np.argsort(edges[:, 1], kind="stable"), ::-1]
    degree = np.bincount(edges[:, 0], minlength=network.n)
    return np.cumsum(degree) - degree, degree, edges[:, 1].copy()


def _levels(
    adjacency: tuple[np.ndarray, np.ndarray, np.ndarray], n: int, sources: np.ndarray, stamp: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first levels of a batch of sources, searched together.

    The pair (source b of the batch, node w) is the key ``b * n + w``, and
    ``stamp[key]`` turns non-negative once the pair is reached. For each
    level after the sources this yields ``(keys, parent, child)``: ``keys``
    holds the level's new pairs in discovery order, and each edge that
    ends a shortest path in the level is one entry of ``parent`` (the
    position of its tail among the previous level's keys) and of ``child``
    (the position of its head among ``keys``), in queue-then-adjacency
    order. Stamping the edges' positions in reverse leaves each new pair's
    first occurrence in its stamp (numpy assigns repeated indices in
    order, so the last write wins), and the discovery order needs no sort.
    The stamps are back at -1 once the batch is done.
    """
    start, degree, neighbours = adjacency
    keys = np.arange(len(sources), dtype=np.int64) * n + sources
    stamp[keys] = 0
    visited = [keys]
    while True:
        nodes = keys % n
        count = degree[nodes]
        parent = np.repeat(np.arange(len(keys), dtype=np.int32), count)
        shift = np.repeat(start[nodes] - (np.cumsum(count) - count), count)
        head = np.repeat(keys - nodes, count) + neighbours[shift + np.arange(len(parent))]
        fresh = stamp[head] < 0
        parent, head = parent[fresh], head[fresh]
        if not len(head):
            break
        position = np.arange(len(head), dtype=np.int32)
        stamp[head[::-1]] = position[::-1]
        first = stamp[head]
        new = first == position
        keys = head[new]
        visited.append(keys)
        yield keys, parent, (np.cumsum(new, dtype=np.int32) - 1)[first]
    stamp[np.concatenate(visited)] = -1


def metric_vector(
    network: ActivityNetwork, name: str, *, table: ReachabilityTable | None = None
) -> MetricVector:
    """One metric of the suite by name, computing only what that metric needs.

    ``table`` is reused when given and computed otherwise, and only for the
    metrics that read it. Local RH is the vector the network keeps
    (:func:`~schednet.heterogeneity.rh_local_all`).
    """
    if name == "betweenness":
        return betweenness(network)
    if name in ("closeness", "reverse_closeness"):
        return closeness(network, reversed_edges=name == "reverse_closeness")
    if name == "in_degree":
        values = network.in_degrees()
    elif name == "out_degree":
        values = network.out_degrees()
    elif name == "local_rh":
        values = rh_local_all(network).values
    elif name in ("descendants", "ancestors"):
        table = table or reachability_table(network)
        values = table.descendant_counts if name == "descendants" else table.ancestor_counts
    else:
        raise ValueError(f"unknown metric {name!r}; expected one of {', '.join(METRIC_NAMES)}")
    return MetricVector(name, np.array(values, dtype=np.float64))


def metric_suite(network: ActivityNetwork) -> list[MetricVector]:
    """All eight benchmark metrics, in :data:`METRIC_NAMES` order.

    Local RH is computed on the first call for a network and kept on it, so
    a caller that already ran :func:`~schednet.heterogeneity.rh_local_all`
    does not pay for it twice.
    """
    table = reachability_table(network)
    return [metric_vector(network, name, table=table) for name in METRIC_NAMES]
