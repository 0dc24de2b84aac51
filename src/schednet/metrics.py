"""Benchmark node metrics over activity networks.

The suite covers eight per-node measures: in/out degree, directed
shortest-path betweenness (unnormalized, endpoints excluded), closeness
and reverse closeness in the Wasserman-Faust form for disconnected
graphs, descendant and ancestor counts, and local RH. All shortest paths
use unit edge weights. One batched Brandes search per network gives all
three shortest-path metrics, and the network keeps them (:func:`_paths`).

Above ``_SPLIT_PAIRS`` reachable pairs the search is split between the
CPUs the process may run on: ``parallel.cuts`` cuts the batch list into
contiguous runs of about equal cost, one per process, and through
``parallel.split`` each child streams back its batches' dependencies,
which go into the scores in batch order, so every vector has the same
bytes at any number of processes. The acceptance-c7 closure (15.8k
pairs) and the analyze-small-batch ones (about 3k) stay under it. The
threshold is measured as split over one-process search time, median of
15 alternating in-process pairs on a 2-vCPU VM (one BLAS thread, closure
built beforehand), on grids of three shapes: 1.11-2.11 on six networks
of 13-57k pairs (c7: 1.53), which won 0-3 of the 15 pairs, 0.94 on one
of 48k, 0.82 on one of 88k, and 0.66-0.74 on the five of 123-378k, which
won 14-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .heterogeneity import rh_local_all
from .network import ActivityNetwork, _heights
from .parallel import cuts, split
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
    ascending order, whatever the batch limits (:func:`_limits`) and
    however the batches are split between processes (:func:`_scores`).

    Path counts stay finite at any depth. A count at depth D is at most
    the largest in-degree to the power D, so a batch whose levels keep
    that under ``_SIGMA_BOUND`` (2**512) runs as above. In any other
    batch, a level whose largest count passes the bound divides each
    source's counts there by a power of two, the one that brings that
    source's largest count into [2**511, 2**512) (:func:`_rescaled`);
    sources at or below the bound keep theirs. ``delta`` reads only the
    ratios of counts one level apart, so the backward pass multiplies each
    coefficient by the same power of two to restore them. A power of two
    is exact in binary floating point, so a rescaled batch keeps the bits
    it would have without rescaling, wherever those stay finite. One
    source's counts at one level must stay within about 2**1533 of each
    other, 2**511 down to the least normal float, 2**-1022: past that its
    smallest underflow, and the scores are not finite.
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

    Batches of consecutive sources, sized from the closure's rows and
    descendant counts (:func:`_batches`), are searched in turn
    (:func:`_search`) over CSR arrays of the sorted edges, so each node's
    successors come in ascending order. Above
    ``_SPLIT_PAIRS`` reachable pairs the batches are split between
    processes (:func:`_cuts`), with the same bits.
    """
    if network._paths is None:
        n = network.n
        table = closure(network)
        bounds, stamp = _batches(table)
        score, away, into = _scores(network, table._rows, bounds, stamp, _cuts(network, table, bounds))
        vectors = [MetricVector("betweenness", score)]
        names = ("closeness", "reverse_closeness")
        for name, r, total in zip(names, (table.descendant_counts, table.ancestor_counts), (away, into)):
            hit = np.flatnonzero(r)
            values = np.zeros(n)
            values[hit] = (r[hit] / (n - 1)) * (r[hit] / total[hit])
            vectors.append(MetricVector(name, values))
        network._paths = tuple(vectors)
    return network._paths


_SPLIT_PAIRS = 100_000  # closures with more reachable pairs split the search between processes (measured)
_LEVEL_PAIRS = 256  # a search level's fixed numpy cost, in reached pairs (measured: 220-250)
_SIGMA_BOUND = 2.0**512  # path counts above this are rescaled (:func:`_rescaled`); workloads stay under 2**354


def _cuts(network: ActivityNetwork, table: ReachabilityTable, bounds: list[tuple[int, int]]) -> list[int]:
    """Batch indices that cut ``bounds`` into contiguous runs of about equal cost, one per process (``parallel.cuts``).

    One run unless the closure holds more than ``_SPLIT_PAIRS`` pairs;
    below that no height is derived. A batch costs its reached pairs plus
    ``_LEVEL_PAIRS`` for each of its levels, at most its highest source's
    height + 1.
    """
    if table.pair_count <= _SPLIT_PAIRS:
        return [0, len(bounds)]
    starts = [start for start, _ in bounds]
    height = _heights(network)
    cost = np.add.reduceat(table.descendant_counts, starts) + _LEVEL_PAIRS * (np.maximum.reduceat(height, starts) + 1)
    return cuts(cost, True)


def _scores(
    network: ActivityNetwork, rows: np.ndarray, bounds: list[tuple[int, int]], stamp: np.ndarray, runs: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Betweenness scores and the int64 distance sums from and to each node.

    Process w searches batches ``runs[w]`` to ``runs[w + 1] - 1``
    (``parallel.split``). Its records are, for each batch, the reached
    nodes and their dependencies in ascending source order and the
    sources' distance sums, then its sums into every node. Each batch's
    dependencies go into ``score`` by one ``np.add.at`` in batch order,
    here or from a child's stream, so the scores have the one-process
    bits; the sums are exact integers.
    """
    n = network.n
    adjacency = network._csr
    peak = max(1, int(np.bincount(adjacency[2], minlength=1).max()))  # the largest in-degree
    score, away, into = np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)

    def produce(batches: range):
        sums = np.zeros(n, dtype=np.int64)
        for start, stop in bounds[batches.start:batches.stop]:
            yield from _search(adjacency, peak, rows, start, stop, stamp, sums)
        yield sums

    def consume(batches: range, records) -> None:
        for start, stop in bounds[batches.start:batches.stop]:
            np.add.at(score, next(records), next(records))
            away[start:stop] = next(records)
        np.add(into, next(records), out=into)

    split(runs, produce, consume, kept=(score, into))
    return score, away, into


def _search(
    adjacency, peak: int, rows: np.ndarray, start: int, stop: int, stamp: np.ndarray, into: np.ndarray
) -> Iterator[np.ndarray]:
    """Brandes' search from the batch of sources ``start`` to ``stop - 1``.

    The batch works over U, the nodes its sources reach and the sources
    themselves (:func:`_reached`), numbered in ascending order, and over
    the successor CSR cut to U. ``sigma`` goes forward over the levels
    (:func:`_levels`) and ``delta`` back; each level's pairs add their
    depth to their source's and their node's exact int64 distance sums,
    the latter in ``into``. Where the largest in-degree ``peak`` to the
    power of the batch's level count passes ``_SIGMA_BOUND``, each level's
    counts go through :func:`_rescaled` (see :func:`betweenness`). It
    yields the reached nodes and their dependencies, both in ascending
    source order, then the sources' distance sums. The batch's arrays die
    before the next batch's levels.
    """
    nodes = np.flatnonzero(_reached(rows, start, stop)).astype(np.int32)
    m, width = len(nodes), stop - start
    first, degree, targets = adjacency
    count = degree[nodes]
    # the successor CSR cut to U, in U's numbering: every successor of a node of U is in U
    heads = np.searchsorted(nodes, targets[_spans(first[nodes], count)]).astype(np.int32)
    sources = np.searchsorted(nodes, np.arange(start, stop))
    levels = list(_levels((np.cumsum(count) - count, count, heads), m, sources, stamp))
    sigma, shifts = [np.ones(width)], []  # shifts stays empty in a batch whose counts cannot pass the bound
    bounded = peak ** len(levels) <= _SIGMA_BOUND
    away, near = np.zeros(width, dtype=np.int64), np.zeros(m, dtype=np.int64)  # exact distance sums
    for depth, (keys, parent, child) in enumerate(levels, 1):
        sigma.append(np.bincount(child, weights=sigma[-1][parent], minlength=len(keys)))
        if not bounded:
            sigma[-1], shift = _rescaled(sigma[-1], keys // m, width)
            shifts.append(shift)
        away += depth * np.bincount(keys // m, minlength=width)
        near += depth * np.bincount(keys % m, minlength=m)
    into[nodes] += near
    # an empty first piece, so a batch that reaches nothing gives empty arrays
    reached, dependency = [np.empty(0, dtype=np.int32)], [np.empty(0)]
    delta = np.zeros(len(sigma[-1]))
    while levels:  # deepest first, dropping each level once it is used
        keys, parent, child = levels.pop()
        reached.append(keys)
        dependency.append(delta)
        coeff = (1.0 + delta) / sigma.pop()
        if shifts:
            coeff = np.ldexp(coeff, -shifts.pop())  # the ratio of this level's counts to the one above
        descending = len(keys) - 1 - child  # by child, descending; numpy sorts 16-bit keys stably by radix
        order = np.argsort(descending.astype(np.uint16) if len(keys) <= 1 << 16 else descending, kind="stable")
        parent = parent[order]
        up = sigma[-1]
        delta = np.bincount(parent, weights=up[parent] * coeff[child[order]], minlength=len(up))
    reached, dependency = np.concatenate(reached), np.concatenate(dependency)  # frees the level lists
    source = (reached // m).astype(np.int16)  # at most 2**15 sources (_batches), so a radix sort below
    reached %= m
    order = np.argsort(source, kind="stable")
    del source  # each array goes once used, so about _PAIR_BYTES a pair are alive at most
    dependency = dependency[order]
    reached = nodes[reached[order]]
    del order
    yield reached
    yield dependency
    yield away


def _rescaled(counts: np.ndarray, source: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray | int]:
    """One level's path counts with each source's divided by 2**e, and each count's e.

    A source whose largest count passes ``_SIGMA_BOUND`` takes the e that
    brings that count into [``_SIGMA_BOUND``/2, ``_SIGMA_BOUND``), the
    highest it may take, so its smaller counts underflow last; every other
    source takes e = 0. Where no count passes the bound, the counts come
    back as they are and e as a plain 0. ``source`` is each count's
    source, 0 to ``width - 1``.
    """
    if counts.max(initial=0) <= _SIGMA_BOUND:
        return counts, 0
    largest = np.zeros(width)
    np.maximum.at(largest, source, counts)
    exponent = np.where(largest > _SIGMA_BOUND, np.frexp(largest / _SIGMA_BOUND)[1], 0)
    shift = exponent[source]
    return np.ldexp(counts, -shift), shift


def _spans(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The positions ``first[i]`` to ``first[i] + count[i] - 1`` for each i in turn, as one array."""
    shift = np.repeat(first - (np.cumsum(count) - count), count)
    return shift + np.arange(len(shift))


def _reached(rows: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Which nodes the sources ``start`` to ``stop - 1`` reach, or are: the OR of their closure rows, unpacked."""
    inside = np.unpackbits(np.bitwise_or.reduce(rows[start:stop]), count=len(rows), bitorder="little").view(bool)
    inside[start:stop] = True
    return inside


_PAIR_BYTES = 30  # the most bytes a reached pair holds at once in a batch's arrays (measured: 29.8)


def _limits(n: int) -> tuple[int, int]:
    """The most reached (source, node) pairs, and the most visit stamps, in one batch.

    Both are shares of the kept closure's n*n/8 bytes: the int32 stamps
    take a quarter, and the pairs, at ``_PAIR_BYTES`` each, three eighths.
    A network too small for 8192 pairs or 65536 stamps gets that many, and
    the stamps stay under 2**30, so no int32 key overflows.
    """
    closure = n * n // 8
    pairs = max(closure * 3 // 8 // _PAIR_BYTES, 1 << 13)
    return pairs, min(max(closure // 16, 1 << 16), 1 << 30)


def _batches(table: ReachabilityTable) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Runs ``(start, stop)`` of consecutive sources, and the stamps they share.

    A run keeps to both limits of :func:`_limits`: the pairs its sources
    reach, from the closure's descendant counts, and its sources times the
    nodes of its U (:func:`_reached`). U holds the run's sources and its
    first source's reach, so a run starts no wider than that allows, and
    never holds more than 2**15 sources; where its U still takes too many
    stamps, it is cut to as many sources as fit with all of that U, which
    fewer sources never outgrow. A run always holds at least one source,
    and the stamps fit the largest run.
    """
    rows, reach = table._rows, table.descendant_counts
    n = len(reach)
    pairs, stamps = _limits(n)
    cumulative = np.concatenate(([0], np.cumsum(reach)))
    bounds, start, most = [], 0, 0
    while start < n:
        limit = int(np.searchsorted(cumulative, cumulative[start] + pairs, side="right")) - 1
        widest = min(math.isqrt(stamps), stamps // (int(reach[start]) + 1))
        stop = max(min(start + widest, limit), start + 1)
        size = int(np.count_nonzero(_reached(rows, start, stop)))
        if (stop - start) * size > stamps:
            stop = start + max(1, stamps // size)
            size = int(np.count_nonzero(_reached(rows, start, stop)))
        most = max(most, (stop - start) * size)
        bounds.append((start, stop))
        start = stop
    return bounds, np.full(most, -1, dtype=np.int32)


def _levels(
    adjacency: tuple[np.ndarray, np.ndarray, np.ndarray], m: int, sources: np.ndarray, stamp: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first levels of a batch of sources, searched together over the m nodes of ``adjacency``.

    The pair (source b of the batch, node w of U) is the int32 key
    ``b * m + w``, and ``stamp[key]`` turns non-negative once the pair is
    reached. For each level after the sources this yields
    ``(keys, parent, child)``: ``keys`` holds the level's new pairs in
    discovery order, and each edge that ends a shortest path in the level
    is one entry of ``parent`` (the position of its tail among the
    previous level's keys) and of ``child`` (the position of its head
    among ``keys``), in queue-then-adjacency order. Stamping the edges'
    positions in reverse leaves each new pair's first occurrence in its
    stamp (numpy assigns repeated indices in order, so the last write
    wins), and the discovery order needs no sort. The stamps are back at
    -1 once the batch is done.
    """
    start, degree, neighbours = adjacency
    keys = np.arange(len(sources), dtype=np.int32) * m + sources.astype(np.int32)
    stamp[keys] = 0
    visited = [keys]
    while True:
        nodes = keys % m
        count = degree[nodes]
        parent = np.repeat(np.arange(len(keys), dtype=np.int32), count)
        head = np.repeat(keys - nodes, count) + neighbours[_spans(start[nodes], count)]
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
