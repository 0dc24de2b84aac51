"""Benchmark node metrics over activity networks.

The suite covers eight per-node measures: in/out degree, directed
shortest-path betweenness (unnormalized, endpoints excluded), closeness
and reverse closeness in the Wasserman-Faust form for disconnected
graphs, descendant and ancestor counts, and local RH. All shortest paths
use unit edge weights. One batched Brandes search per network gives all
three shortest-path metrics, and the network keeps them (:func:`_paths`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .heterogeneity import rh_local_all
from .network import ActivityNetwork, _successor_csr
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

    Brandes' algorithm, from the network's kept search (:func:`_paths`).
    Its floats are fixed by the summation order, part of the contract:

    - ``sigma[w]`` is one ``np.bincount`` over the edges (v, w) into w's
      level, in queue-then-adjacency order of v;
    - ``delta[v]`` is one ``np.bincount`` over the edges (v, w) out of v's
      level, stably sorted by descending queue position of w;
    - each node's score receives its per-source ``delta`` by ``np.add.at``
      in ascending source order, within a batch and across batches.

    These are the bits of one search per source with the sources in
    ascending order, whatever the batch limits (:func:`_limits`).
    """
    return _paths(network)[0]


def closeness(network: ActivityNetwork, reversed_edges: bool = False) -> MetricVector:
    """Out-closeness with the Wasserman-Faust correction.

    ``C(i) = (r / (n - 1)) * (r / sum_of_distances)`` where r counts the
    nodes reachable from i; zero when nothing is reachable. With
    ``reversed_edges`` the same value is computed on the edge-reversed
    network (distance *to* i), which the metric suite reports as
    ``reverse_closeness``. r and the exact distance sums come from the
    kept closure and search (:func:`_paths`): a lone call runs the search.
    """
    return _paths(network)[2 if reversed_edges else 1]


def _paths(network: ActivityNetwork) -> tuple[MetricVector, MetricVector, MetricVector]:
    """Betweenness, closeness and reverse closeness from one search, kept on the network.

    Batches of consecutive sources, sized by the closure's descendant
    counts, are searched in turn (:func:`_search`) over CSR arrays of the
    sorted edges, so each node's successors come in ascending order.
    """
    if network._paths is None:
        n = network.n
        table = closure(network)
        adjacency = _successor_csr(network)
        bounds, stamp = _batches(n, table.descendant_counts)
        score, away, into = np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        for start, stop in bounds:
            away[start:stop] = _search(adjacency, np.arange(start, stop), stamp, score, into)
        vectors = [MetricVector("betweenness", score)]
        names = ("closeness", "reverse_closeness")
        for name, r, total in zip(names, (table.descendant_counts, table.ancestor_counts), (away, into)):
            hit = np.flatnonzero(r)
            values = np.zeros(n)
            values[hit] = (r[hit] / (n - 1)) * (r[hit] / total[hit])
            vectors.append(MetricVector(name, values))
        network._paths = tuple(vectors)
    return network._paths


def _search(adjacency, sources: np.ndarray, stamp: np.ndarray, score: np.ndarray, into: np.ndarray) -> np.ndarray:
    """Brandes' search from one batch of sources; returns their int64 distance sums.

    ``sigma`` goes forward over the levels (:func:`_levels`) and ``delta``
    back into ``score``; each reached pair's depth also goes to its node's
    entry of ``into``. The batch's arrays die before the next batch's levels.
    """
    n, width = len(score), len(sources)
    levels = list(_levels(adjacency, n, sources, stamp))
    sigma = [np.ones(width)]
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
    if not reached:
        return np.zeros(width, dtype=np.int64)
    depth = np.repeat(np.arange(len(reached), 0, -1, dtype=np.int32), [len(k) for k in reached])
    reached, dependency = np.concatenate(reached), np.concatenate(dependency)  # frees the level lists
    source = reached // n
    order = np.argsort(source, kind="stable")
    total = np.bincount(source, weights=depth, minlength=width)  # float sums, exact below 2**53
    reached %= n  # the reached nodes
    into += np.bincount(reached, weights=depth, minlength=n).astype(np.int64)
    np.add.at(score, reached[order], dependency[order])
    return total.astype(np.int64)


def _limits(n: int) -> tuple[int, int]:
    """The most sources, and the most reached (source, node) pairs, in one batch.

    A batch's int32 visit stamps take half the bytes of the kept closure,
    n*n/8, but at least 512 KB and at most 8 MB; its reached pairs number
    at most a 32nd of its stamps.
    """
    stamps = min(max(n * n // 64, 1 << 17), 1 << 21)
    return max(1, min(n, stamps // max(n, 1))), stamps // 32


def _batches(n: int, reach: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Runs ``(start, stop)`` of consecutive sources, and the stamps they share.

    ``reach`` holds each source's count of reached nodes. A run keeps to
    both limits, but it always holds at least one source.
    """
    size, pairs = _limits(n)
    cumulative = np.concatenate(([0], np.cumsum(reach)))
    bounds, start = [], 0
    while start < n:
        limit = int(np.searchsorted(cumulative, cumulative[start] + pairs, side="right")) - 1
        stop = max(min(start + size, n, limit), start + 1)
        bounds.append((start, stop))
        start = stop
    return bounds, np.full(max((stop - start for start, stop in bounds), default=0) * n, -1, dtype=np.int32)


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
