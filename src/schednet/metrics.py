"""Benchmark node metrics over activity networks.

The suite covers eight per-node measures: in/out degree, directed
shortest-path betweenness (unnormalized, endpoints excluded), closeness
and reverse closeness in the Wasserman-Faust form for disconnected
graphs, descendant and ancestor counts, and local RH. All shortest paths
use unit edge weights.
"""

from __future__ import annotations

from collections import deque
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


@dataclass(frozen=True)
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

    Per-source breadth-first search with dependency accumulation; sources
    are processed in ascending index order so the floating-point result is
    reproducible.
    """
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
    return MetricVector("betweenness", score)


def closeness(network: ActivityNetwork, reversed_edges: bool = False) -> MetricVector:
    """Out-closeness with the Wasserman-Faust correction.

    ``C(i) = (r / (n - 1)) * (r / sum_of_distances)`` where r counts the
    nodes reachable from i; zero when nothing is reachable. With
    ``reversed_edges`` the same value is computed on the edge-reversed
    network (distance *to* i), which the metric suite reports as
    ``reverse_closeness``.
    """
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
