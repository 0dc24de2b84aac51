"""Benchmark node metrics over activity networks.

The suite covers eight per-node measures: in/out degree, directed
shortest-path betweenness (unnormalized, endpoints excluded), closeness
and reverse closeness in the Wasserman-Faust form for disconnected
graphs, descendant and ancestor counts, and local RH. All shortest paths
use unit edge weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heterogeneity import LocalRHVector, rh_local_all
from .network import ActivityNetwork
from .reachability import ReachabilityTable, reachability_table

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

    Brandes' algorithm: one breadth-first search per source counts the
    shortest paths ``sigma``, then the dependencies ``delta`` are
    accumulated back over the visited nodes. The floating-point result is
    fixed by the summation order, which is part of the contract: sources
    ascend by index, each ``sigma[w]`` sums its shortest-path predecessors
    in visit order, and each ``delta[v]`` receives its contributions in
    reverse visit order of ``w``. The distance, path-count and dependency
    lists are shared by all sources; after each source only the nodes it
    visited are reset.
    """
    succ = network.successor_lists
    pred = network.predecessor_lists
    n = network.n
    score = [0.0] * n
    dist = [-1] * n
    sigma = [0.0] * n
    delta = [0.0] * n
    for source in range(n):
        if not succ[source]:
            continue
        dist[source] = 0
        sigma[source] = 1.0
        visited = [source]
        for v in visited:  # the visit list is the queue: it grows as it is read
            step = dist[v] + 1
            sv = sigma[v]
            for w in succ[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = step
                    sigma[w] = sv  # the same bits as 0.0 + sv
                    visited.append(w)
                elif dw == step:
                    sigma[w] += sv
        for w in visited[:0:-1]:
            # Only visited nodes have dist >= 0, and w is not the source, so
            # this keeps exactly the predecessors on w's shortest paths.
            up = dist[w] - 1
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in pred[w]:
                if dist[v] == up:
                    delta[v] += sigma[v] * coeff
            score[w] += delta[w]
        for v in visited:
            dist[v] = -1
            delta[v] = 0.0
    return MetricVector("betweenness", np.array(score, dtype=np.float64))


def closeness(network: ActivityNetwork, reversed_edges: bool = False) -> MetricVector:
    """Out-closeness with the Wasserman-Faust correction.

    ``C(i) = (r / (n - 1)) * (r / sum_of_distances)`` where r counts the
    nodes reachable from i; zero when nothing is reachable. With
    ``reversed_edges`` the same value is computed on the edge-reversed
    network (distance *to* i), which the metric suite reports as
    ``reverse_closeness``.

    Each source runs a level-by-level breadth-first search. ``seen[w]``
    holds the last source that reached w, so one list serves every source
    without a reset, and r and the distance sum stay exact integers.
    """
    adjacency = network.predecessor_lists if reversed_edges else network.successor_lists
    n = network.n
    values = np.zeros(n, dtype=np.float64)
    seen = [-1] * n
    for source in range(n):
        if not adjacency[source]:
            continue
        seen[source] = source
        frontier = [source]
        reached = total = depth = 0
        while frontier:
            depth += 1
            level = []
            for v in frontier:
                for w in adjacency[v]:
                    if seen[w] != source:
                        seen[w] = source
                        level.append(w)
            reached += len(level)
            total += depth * len(level)
            frontier = level
        values[source] = (reached / (n - 1)) * (reached / total)
    name = "reverse_closeness" if reversed_edges else "closeness"
    return MetricVector(name, values)


def metric_vector(
    network: ActivityNetwork,
    name: str,
    *,
    table: ReachabilityTable | None = None,
    local_rh: LocalRHVector | None = None,
) -> MetricVector:
    """One metric of the suite by name, computing only what that metric needs.

    ``table`` and ``local_rh`` are reused when given and computed otherwise,
    and only for the metrics that read them.
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
        values = (local_rh or rh_local_all(network)).values
    elif name in ("descendants", "ancestors"):
        table = table or reachability_table(network)
        values = table.descendant_counts if name == "descendants" else table.ancestor_counts
    else:
        raise ValueError(f"unknown metric {name!r}; expected one of {', '.join(METRIC_NAMES)}")
    return MetricVector(name, np.array(values, dtype=np.float64))


def metric_suite(
    network: ActivityNetwork, *, local_rh: LocalRHVector | None = None
) -> list[MetricVector]:
    """All eight benchmark metrics, in :data:`METRIC_NAMES` order.

    ``local_rh`` accepts a precomputed vector so callers that already ran
    :func:`~schednet.heterogeneity.rh_local_all` don't pay for it twice.
    """
    table = reachability_table(network)
    if local_rh is None:
        local_rh = rh_local_all(network)
    return [metric_vector(network, name, table=table, local_rh=local_rh) for name in METRIC_NAMES]
