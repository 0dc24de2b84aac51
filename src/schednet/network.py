"""Activity networks: project schedule rows and their dependencies as a DAG.

A schedule is a list of activities (each with planned and, optionally,
actual start/end dates) plus a list of finish-to-start dependencies.
``build_network`` validates the pair into an :class:`ActivityNetwork`;
``prune_isolated`` drops nodes that take no part in any dependency.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CycleDetected,
    DuplicateActivityId,
    EmptyNetwork,
    SelfLoop,
    UnknownActivityId,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ActivityRecord:
    """One schedule row. Planned dates are mandatory, actual dates optional."""

    id: str
    name: str
    planned_start: date
    planned_end: date
    actual_start: date | None = None
    actual_end: date | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("activity id must be a nonempty string")
        if self.planned_end < self.planned_start:
            raise ValueError(f"activity {self.id!r}: planned_end precedes planned_start")
        if (
            self.actual_start is not None
            and self.actual_end is not None
            and self.actual_end < self.actual_start
        ):
            raise ValueError(f"activity {self.id!r}: actual_end precedes actual_start")


@dataclass(frozen=True)
class Dependency:
    """Finish-to-start precedence: predecessor must finish before successor starts."""

    predecessor: str
    successor: str


class ActivityNetwork:
    """Immutable DAG of activities.

    Nodes are stored in ascending id order and addressed by their index in
    that order, so identical inputs always produce identical indexing.
    Edges are deduplicated ``(source index, target index)`` pairs held in
    sorted order; the constructor takes any iterable of int-like pairs, or
    an integer array of them, and sorts them as the keys ``s * n + t``.
    Instances are read-only once constructed and safe to share between
    threads. The constructor also keeps the successors as read-only CSR
    arrays (``_csr``, 16n + 8e bytes), cut from the sorted edges it has at
    hand. The topological order, the node heights, the transitive closure,
    the local-RH vector and the three shortest-path metric vectors are
    built on first use and kept: a kept closure holds n²/8 bytes of packed
    rows (182 KB at n=1208, 10.4 MB at n=9125), the heights and the
    local-RH vector 8n bytes each and the shortest-path vectors 24n. Two
    threads may both build on first use; the results are identical, so the
    race is harmless.
    """

    __slots__ = (
        "nodes", "edges", "index_of", "_succ", "_pred",
        "_order", "_height", "_csr", "_closure", "_local", "_paths",
    )

    def __init__(self, nodes: Sequence[ActivityRecord], edges: Iterable[tuple[int, int]] | np.ndarray) -> None:
        self.nodes: tuple[ActivityRecord, ...] = tuple(nodes)
        n = len(self.nodes)
        sources, heads = np.divmod(_edge_keys(edges, n), max(n, 1))
        degree = np.bincount(sources, minlength=n)
        ends = np.cumsum(degree)
        # successors as CSR arrays over the sorted edges: each node's first edge and out-degree, and every
        # edge's target; read by the local-RH sweep and the shortest-path search
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] = (ends - degree, degree, heads)
        for array in self._csr:
            array.setflags(write=False)
        ends, targets = ends.tolist(), heads.tolist()
        self.edges: tuple[tuple[int, int], ...] = tuple(zip(sources.tolist(), targets))
        self.index_of: dict[str, int] = {rec.id: i for i, rec in enumerate(self.nodes)}
        # sorted by source, then target: each node's successors are one stretch of the edges, in order
        self._succ: tuple[tuple[int, ...], ...] = tuple(
            tuple(targets[start:end]) for start, end in zip([0, *ends], ends)
        )
        pred: list[list[int]] = [[] for _ in range(n)]
        for s, t in self.edges:
            pred[t].append(s)
        self._pred: tuple[tuple[int, ...], ...] = tuple(map(tuple, pred))
        # kept by topological_order, _heights, reachability.closure, heterogeneity.rh_local_all and metrics._paths
        self._order = self._height = self._closure = self._local = self._paths = None

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(rec.id for rec in self.nodes)

    @property
    def successor_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per-node tuple of direct successor indices, each in ascending order."""
        return self._succ

    @property
    def predecessor_lists(self) -> tuple[tuple[int, ...], ...]:
        return self._pred

    def successors(self, index: int) -> tuple[int, ...]:
        return self._succ[index]

    def predecessors(self, index: int) -> tuple[int, ...]:
        return self._pred[index]

    def in_degrees(self) -> np.ndarray:
        return np.array([len(p) for p in self._pred], dtype=np.int64)

    def out_degrees(self) -> np.ndarray:
        return np.array([len(s) for s in self._succ], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivityNetwork):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"ActivityNetwork(nodes={len(self.nodes)}, edges={len(self.edges)})"


@dataclass(frozen=True, eq=False)
class ComponentSummary:
    """Weakly connected component census of a network.

    ``membership[i]`` is the component label of node ``i``; labels are
    assigned 0, 1, ... in order of each component's smallest node index.
    """

    component_count: int
    largest_component_size: int
    membership: np.ndarray


def build_network(
    activities: Sequence[ActivityRecord], dependencies: Sequence[Dependency]
) -> ActivityNetwork:
    """Validate a schedule into an :class:`ActivityNetwork`.

    Duplicate dependency rows are collapsed to a single edge (counted and
    logged at warning level). Nodes are indexed in ascending id order.

    Raises:
        DuplicateActivityId: two activities share an id.
        UnknownActivityId: a dependency references a missing activity.
        SelfLoop: a dependency links an activity to itself.
        CycleDetected: the dependencies contain a directed cycle; the
            exception lists one offending cycle.
    """
    seen: set[str] = set()
    for rec in activities:
        if rec.id in seen:
            raise DuplicateActivityId(rec.id)
        seen.add(rec.id)

    records = sorted(activities, key=lambda rec: rec.id)
    index = {rec.id: i for i, rec in enumerate(records)}
    n = len(records)
    try:
        keys = np.array([index[dep.predecessor] * n + index[dep.successor] for dep in dependencies], dtype=np.int64)
        sources, targets = np.divmod(keys, max(n, 1))
    except KeyError:
        keys = None
    if keys is None or np.any(sources == targets):
        _raise_first_fault(dependencies, index)
    network = ActivityNetwork(records, np.column_stack((sources, targets)))
    duplicates = len(keys) - len(network.edges)
    if duplicates:
        logger.warning("collapsed %d duplicate dependency rows", duplicates)
    topological_order(network)  # raises CycleDetected; keeps the order
    return network


def _raise_first_fault(dependencies: Sequence[Dependency], index: dict[str, int]) -> None:
    """Raise for the first dependency row that is a self-loop or names an unknown id, its predecessor first."""
    for dep in dependencies:
        if dep.predecessor == dep.successor:
            raise SelfLoop(dep.predecessor)
        for node_id in (dep.predecessor, dep.successor):
            if node_id not in index:
                raise UnknownActivityId(node_id)


def _edge_keys(edges: Iterable[tuple[int, int]] | np.ndarray, n: int) -> np.ndarray:
    """The distinct keys ``s * n + t`` of the edges (s, t), ascending, so in the order of the pairs.

    An integer array of shape (e, 2) is read whole; any other iterable
    pair by pair through ``int``.

    Raises:
        ValueError: an edge names a node outside 0..n-1 or is a self-loop;
            the message names the first such edge in sorted order.
    """
    if not (isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.ndim == 2 and edges.shape[1] == 2):
        edges = [(int(s), int(t)) for s, t in edges]
    try:
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an int past int64, so outside every network
        pairs = None
    if pairs is None or len(pairs) and (pairs.min() < 0 or pairs.max() >= n or np.any(pairs[:, 0] == pairs[:, 1])):
        for s, t in sorted({(int(s), int(t)) for s, t in edges}):
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"edge ({s}, {t}) references a node outside 0..{n - 1}")
            if s == t:
                raise ValueError(f"edge ({s}, {t}) is a self-loop")
    keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
    # each key's first occurrence; not np.unique, whose first call imports numpy.ma (about 12 ms)
    return keys[np.diff(keys, prepend=-1) != 0]


def topological_order(network: ActivityNetwork) -> list[int]:
    """Node indices ordered so every edge points forward.

    Ties are broken by ascending node index, so the order is deterministic.
    It is sorted once per network and kept; each call returns a new list.

    Raises:
        CycleDetected: the network was built directly with a cycle.
    """
    if network._order is None:
        succ = network.successor_lists
        n = network.n
        remaining = [len(p) for p in network.predecessor_lists]
        ready = [i for i in range(n) if remaining[i] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for j in succ[i]:
                remaining[j] -= 1
                if remaining[j] == 0:
                    heapq.heappush(ready, j)
        if len(order) < n:
            cycle = _find_cycle(network.predecessor_lists, remaining)
            raise CycleDetected([network.nodes[i].id for i in cycle])
        network._order = tuple(order)
    return list(network._order)


def _heights(network: ActivityNetwork) -> np.ndarray:
    """Each node's longest path to a sink, in edges: derived once per network and kept, read-only."""
    if network._height is None:
        succ = network.successor_lists
        height = [0] * network.n
        for i in reversed(topological_order(network)):
            if succ[i]:
                height[i] = 1 + max(height[j] for j in succ[i])
        kept = np.array(height, dtype=np.int64)
        kept.setflags(write=False)
        network._height = kept
    return network._height


def prune_isolated(network: ActivityNetwork) -> ActivityNetwork:
    """Drop every node with no incoming and no outgoing dependency.

    Surviving nodes are re-indexed contiguously, preserving their relative
    (ascending id) order. Idempotent. A kept topological order carries
    over: isolated nodes never hold back another node, so the pruned
    network's order is the kept one without them, re-indexed.

    Raises:
        EmptyNetwork: no node has a dependency at all.
    """
    keep = [i for i in range(network.n) if network._succ[i] or network._pred[i]]
    if not keep:
        raise EmptyNetwork()
    if len(keep) == network.n:
        return network
    remap = {old: new for new, old in enumerate(keep)}
    records = [network.nodes[i] for i in keep]
    edges = [(remap[s], remap[t]) for s, t in network.edges]
    pruned = ActivityNetwork(records, edges)
    if network._order is not None:
        pruned._order = tuple(remap[i] for i in network._order if i in remap)
    return pruned


def weakly_connected_components(network: ActivityNetwork) -> ComponentSummary:
    """Connected components of the undirected view of the network."""
    n = network.n
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for s, t in network.edges:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[max(rs, rt)] = min(rs, rt)

    labels = np.empty(n, dtype=np.int64)
    label_of_root: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        if root not in label_of_root:
            label_of_root[root] = len(label_of_root)
        labels[i] = label_of_root[root]
    labels.setflags(write=False)

    count = len(label_of_root)
    largest = int(np.bincount(labels).max()) if n else 0
    return ComponentSummary(count, largest, labels)


def _find_cycle(pred: Sequence[Sequence[int]], remaining: Sequence[int]) -> list[int]:
    """One directed cycle, in forward order, through nodes a topological sort never popped.

    Such a node keeps a nonzero ``remaining`` count, and so has a predecessor
    that was never popped either: walking back through these from the
    smallest one repeats a node, and the walk from its first visit on is a
    cycle, reversed.
    """
    walk: dict[int, int] = {}  # node -> its position on the walk
    node = next(i for i, count in enumerate(remaining) if count)
    while node not in walk:
        walk[node] = len(walk)
        node = next(p for p in pred[node] if remaining[p])
    return list(walk)[walk[node]:][::-1]
