"""Heterogeneity scores for activity networks.

Two related measures of structural irregularity:

* ``estrada_rho``: degree-based score over direct edges,
  ``sum((1/sqrt(k_out(i)) - 1/sqrt(k_in(j)))^2)`` for every edge (i, j),
  normalized by ``n - 2*sqrt(n - 1)``.
* ``rh_global``: the reachability-heterogeneity (RH) score. Same form, but
  summed over every reachable pair (i, j) with j a proper descendant of i,
  replacing degrees with i's descendant count and j's ancestor count.
* ``rh_local``: a node's contribution to the global score, defined as the
  global score minus the global score of the network with that node (and
  its incident edges) removed. Newly isolated nodes stay in the count.

Scores are zero for networks with at most two nodes or no reachable pair:
the normalization vanishes at n = 2 while the raw sum is provably zero
there, so zero is the homogeneous-limit value.

Local RH never rebuilds the smaller network. Removing node k changes the
reach matrix only in the rows of k's ancestors, which lose the paths
through k, so the reduced matrix is the base closure with row and column
k deleted and those rows recomputed. ``rh_local_all`` visits k = 0..n-1
in one sweep that never holds the reduced matrix. It reads every row
from one buffer: the closure rows, then the rows of anc(k) without paths
through k. A table from node to buffer row points the nodes of anc(k) at
their replaced rows; from k-1 to k it restores those of anc(k-1) and
re-points those of anc(k). A reduced row is its buffer row unpacked
without bit k, written straight into the float64 block that is
multiplied. Descendant and ancestor counts come from exact integer
deltas. ``rh_global`` and the sweep multiply their 0/1 rows through the
same blocked product (``_product``), so every local value equals
``rh_global`` of the rebuilt smaller network, subtracted from the base
score, bit for bit. ``rh_local`` is one step of that sweep.

The replaced rows come from runs of consecutive removed nodes. A run's
cone rows fill at most max(n^2/8, ``_CHUNK``) bytes, or one cone's rows
where a cone alone needs more, and its table of gather sources fills at
most as many. Every pair (k, i) with i in anc(k) is computed in one
pass over the run, in ascending height(i), the longest path from i to a
sink: a successor is lower than its predecessor, so its row is final
before the row that reads it. One height is a few numpy steps. They gather
the successor rows of every pair at that height, as 64-bit words, from one
buffer of the closure rows and the run's rows, with a zero row for the
removed node, set each successor's own bit in its gathered copy (none for
the removed node), then OR each pair's rows with one ``reduceat``. The rows
are exact sets, so they hold the same bits however the runs are cut. New
descendant counts are their popcounts; new ancestor counts subtract the
bits each cone row lost and the removed node's row.

Where ``_layout`` puts every reduced row into the last product block (cut
0, which is n <= 256), that block is the reduced reach matrix R' itself,
so the counts are taken from it: d' and a' are its row and column sums,
exact integers in float64. That skips the lost-bit loop, the count
patches and the cone rows' popcounts; the product, the final dot and
``_rh`` are the same, so every value keeps its bits. This one-block
regime covers the paper's PN (129 activities) and every
analyze-small-batch schedule (n about 96), where the sweep takes 4.2-5.1
ms per network instead of 5.2-6.0 (200 topologies, 3 alternating runs).

The sweep also keeps y = R' @ w' of the last node and refreshes only the
rows of it that can change. From k-1 to k, R' and w' change only in the
rows of anc(k-1) and anc(k), at reduced position k-1, and in w' on
desc(k-1) and desc(k); every other node keeps its position. A row's
product depends only on its nonzero positions and on w' there: w' is
finite and >= 0, so each zero entry adds an exact +0.0 to a non-negative
partial sum. So a row keeps its bits whenever its base closure row
misses T = {k-1, k} + desc(k-1) + desc(k), and the rows to refresh are
the nodes of T and their ancestors. Those below the last block of
``_product`` go through gathered blocks of whole 8-row groups, padded
with zero rows; the last block, which holds the ``n % 4`` tail rows, is
recomputed whole at every node. A node that does not follow the one
before it, the first of a range or a lone ``rh_local``, refreshes every
row. On the acceptance-c7 network a node refreshes about 13% of them.

Two stages split between processes by the cut rule of ``parallel.cuts``
and run through ``parallel.fill``: this process computes the first range
and a forked child each other one, from its copy-on-write copy of this
process. ``rh_local_all`` splits on a network of more than
``_SPLIT_NODES`` nodes, at unit cost per removed node, after it builds the
sweep state. A range's first node refreshes every row of ``R @ w`` and
starts a new run, and the rows of a run are exact sets, so every value
keeps the bits of the one-process sweep at any number of processes. Below
the threshold the fork, the page copies it causes and the wake-up of the
second CPU cost more than half a sweep saves: at n=96 a split took 1.6
times the 5.4 ms of one process, at n=283 0.65-1.3 times as long by the
host's phase, and from n=344 up 0.57-0.84 of the time on every network
measured.

``rh_global`` splits its product on a network of more than
``_SPLIT_ROWS`` nodes, at unit cost per whole ``_product`` block below the
last: the rows of ``R @ w`` are cut at multiples of the block step, the
last range ends at n and so takes the last block, and this process takes
the final dot over all of y. A row's product depends only on its entries,
on w and on its 8-row group, so the value keeps its bits. Each process
takes its own scratch block, so neither copies the other's pages. The
threshold is measured as split over one-process time, median of 25
alternating in-process pairs on a 2-vCPU VM (one BLAS thread, closure
built beforehand), on the screen-10k grid cut to fewer layers: 1.58 at
n=2715 and 1.14 at n=3618, where a split round trip (about 3.5 ms)
outweighs half the product, then 0.86 at n=4075, 0.88 at 4534, 0.82 at
5448 and 0.66 at 9125. c7's topology (n=1208) takes about 1 ms in one
process.

The float contract of every RH value is the bits of ``u @ (R @ w)`` with
``R @ w`` taken as one whole-matrix float64 dgemv under one BLAS thread
and the final dot taken in order over pieces of at most 10,000 entries
(``_dot``), a single dot up to n = 10,000. ``_product`` takes ``R @ w``
in small row blocks aligned to whole 8-row groups, which give every row
those bits at one and at two BLAS threads, and OpenBLAS runs each dot
piece on one thread. No RH value holds an n x n matrix: rows are
unpacked from the packed closure one block at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormalization, UnknownNode
from .network import ActivityNetwork, _heights, topological_order
from .parallel import cuts, fill
from .reachability import _packed, _reach, closure

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class HeterogeneityScore:
    """A heterogeneity value with the node and pair counts behind it."""

    value: float
    node_count: int
    pair_count: int


@dataclass(frozen=True, eq=False)
class LocalRHVector:
    """Per-node local RH scores, aligned to node index order."""

    values: np.ndarray
    global_score: HeterogeneityScore


def estrada_rho(network: ActivityNetwork) -> HeterogeneityScore:
    """Degree-based heterogeneity over direct edges.

    Zero for any graph whose edge endpoints all have matching out/in
    degrees (paths, cycles of matched degree); 1.0 for the 3-node out-star.
    Networks with n <= 2 score zero by convention.

    Raises:
        DegenerateNormalization: defensively, if n == 2 ever yields a
            nonzero raw sum (impossible for simple DAGs).
    """
    n = network.n
    out_deg = network.out_degrees()
    in_deg = network.in_degrees()
    raw = 0.0
    for s, t in network.edges:
        diff = 1.0 / math.sqrt(out_deg[s]) - 1.0 / math.sqrt(in_deg[t])
        raw += diff * diff
    if n <= 2:
        if raw != 0.0:
            raise DegenerateNormalization(
                f"nonzero heterogeneity sum {raw} with {n} nodes"
            )
        return HeterogeneityScore(0.0, n, len(network.edges))
    return HeterogeneityScore(raw / _normalizer(n), n, len(network.edges))


def rh_global(network: ActivityNetwork) -> HeterogeneityScore:
    """Global reachability-heterogeneity score of a network."""
    n = network.n
    table = closure(network)
    if n <= 2 or table.pair_count == 0:
        return HeterogeneityScore(0.0, n, table.pair_count)
    d, a = table.descendant_counts, table.ancestor_counts
    inverse = _inverse_roots(n)
    w, y = inverse[a], np.empty(n, dtype=np.float64)
    step, cut = _layout(n)

    def write(rows: range) -> None:
        # only the range ending at n takes the last block; a scratch block per process, so no page is copied
        take = _product if rows.stop == n else _blocks
        take(y, table._rows, np.arange(n), n, w, np.arange(rows.start, min(rows.stop, cut)), _block(n))

    # whole blocks below the last one, the last range ending at n
    fill(y, [*(b * step for b in cuts(np.ones(cut // step), n > _SPLIT_ROWS)[:-1]), n], write)
    return HeterogeneityScore(_rh(_dot(inverse[d], y), d, a), n, table.pair_count)


def rh_local(network: ActivityNetwork, node: int) -> float:
    """Drop in global RH caused by removing one node (may be negative).

    The removed node's incident edges go with it; any node isolated by the
    removal still counts toward the smaller network's normalization. The
    value is one step of ``rh_local_all``'s sweep, so it equals that
    sweep's entry bit for bit, and the smaller network's reach matrix is
    never held.

    Raises:
        UnknownNode: ``node`` is not an integer in 0..n-1 (a bool is not).
    """
    if isinstance(node, bool) or not isinstance(node, (int, np.integer)) or not 0 <= node < network.n:
        raise UnknownNode(node)
    return rh_global(network).value - _ReducedReach(network).value_without(node)


def rh_local_all(network: ActivityNetwork) -> LocalRHVector:
    """Local RH for every node, in one sweep over the reduced reach matrices.

    Each entry equals ``rh_local(network, i)`` and ``rh_global`` of the
    network rebuilt without node i, subtracted from the base score, bit for
    bit. No reduced matrix is held: the sweep keeps one buffer of the
    closure rows, n^2/8 bytes, followed by the cone rows of one run
    of removed nodes, one float64 block of rows to multiply, and the last
    node's product ``R @ w``. Each node recomputes only the rows of
    that product that can have changed: a zero entry adds an exact +0.0 to
    a row's non-negative sum, so a row keeps its bits unless it is, or
    reaches, a node of T = {k-1, k} + desc(k-1) + desc(k), or lies in the
    last product block (see the module docstring for the refresh rule).
    On a network of more than ``_SPLIT_NODES`` nodes the sweep is split
    between processes, one per CPU, with the same values to the bit (see
    the module docstring).

    The first call keeps the vector on the network, as ``closure`` keeps
    the closure, and later calls return that same object.
    """
    if network._local is None:
        base = rh_global(network)
        reduced, values = _ReducedReach(network), np.empty(network.n, dtype=np.float64)

        def write(nodes: range) -> None:
            for node in nodes:
                values[node] = base.value - reduced.value_without(node)

        fill(values, cuts(np.ones(network.n), network.n > _SPLIT_NODES), write)
        values.setflags(write=False)
        network._local = LocalRHVector(values, base)
    return network._local


_SPLIT_NODES = 400  # networks with more nodes split the local-RH sweep between processes (measured)
_SPLIT_ROWS = 4000  # networks with more nodes split rh_global's product between processes (measured)
_CHUNK = 1 << 16  # matrix entries per unpack step and per product block
_GROUP = 8  # rows per aligned block unit of ``_product``
_DOT = 10_000  # entries per piece of ``_dot``; OpenBLAS runs a dot this long on one thread
_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)  # bit j & 7 of a packed byte
# set bits of each byte value
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)


def _normalizer(n: int) -> float:
    return n - 2.0 * math.sqrt(n - 1)


class _ReducedReach:
    """Reach matrix of a network with one node k removed, read from packed rows.

    Reduced row and column r stand for node r when r < k and for node r + 1
    otherwise, as in the network rebuilt without k. ``slot`` points each
    node at its row in ``buffer``: its closure row, or for a node of
    anc(k) its reach without paths through k, computed for the run of
    removed nodes that holds k (``_cone_run``). A reduced row is that row
    unpacked without bit k. ``y`` holds the reduced matrix's blocked product
    with the reduced network's w, except in the one-block regime, which
    keeps no product. Moving to k + 1 only rewrites what changes, in both.
    """

    def __init__(self, network: ActivityNetwork) -> None:
        self.n = n = network.n
        table = closure(network)
        self.table, self.rows = table, table._rows
        order = topological_order(network)
        # reflexive: bit j of row i is set when node j reaches i or j = i
        self.ancestors = _packed([bits | 1 << i for i, bits in enumerate(_reach(network.predecessor_lists, order))])
        self.inverse = _inverse_roots(n)
        size = max(n - 1, 0)
        self.y = np.empty(size, dtype=np.float64)
        self.cut = _layout(size)[1]
        self.block = _block(size)
        self.ones = None if self.cut else np.ones(size)  # only the one-block regime sums its block
        self.removed: int | None = None
        self.slot = np.arange(n)
        self.patched = np.empty(0, dtype=np.int64)
        self.first, self.degree, self.targets = network._csr
        self.height = _heights(network)
        budget, nbytes = _run_budget(n), self.rows.shape[1]
        # rows per run, one per node of each cone anc(k) + {k}: as many as fill the budget, at least the largest cone
        fill = min(budget // max(nbytes, 1), table.pair_count + n)
        self.capacity = max(1, int(table.ancestor_counts.max(initial=0)) + 1, fill)
        self.span = max(1, min(n, budget // (4 * max(n, 1))))  # removed nodes per run, so its int32 source table fits
        self.cumulative = np.concatenate(([0], np.cumsum(table.ancestor_counts + 1)))
        # closure rows, then the run's cone rows, where the row of each removed node k is a zero row;
        # rows are whole 64-bit words, so a gather and its OR move 8 bytes at a time
        self.buffer = np.zeros((n + self.capacity, -(-nbytes // 8)), dtype=np.uint64)
        self.bytes = self.buffer.view(np.uint8)[:, :nbytes]
        self.bytes[:n] = self.rows
        self.run = range(0)

    def value_without(self, k: int) -> float:
        """RH of the network without node ``k``."""
        if k not in self.run:
            self._cone_run(k)
        follows = k > 0 and self.removed == k - 1
        lo, hi = self.bounds[k - self.run.start], self.bounds[k - self.run.start + 1]
        cone, reduced = self.cone[lo:hi], self.bytes[self.n + lo:self.n + hi]
        self.slot[self.patched] = self.patched
        self.slot[cone] = np.arange(self.n + lo, self.n + hi)  # k's own row is never read
        self.removed, self.patched = k, cone
        if not self.cut:
            return self._one_block(k)
        d = self.table.descendant_counts.copy()
        d[cone] = self.counts[lo:hi]
        # Ancestor counts lose every pair a row of the cone no longer reaches:
        # its closure row without its reduced row, all of row k.
        a = self.table.ancestor_counts.copy()
        step = max(1, _CHUNK // self.n)
        for start in range(0, hi - lo, step):
            lost = _bits(self.rows[cone[start:start + step]] ^ reduced[start:start + step], self.n)
            a -= np.add.reduce(lost, axis=0, dtype=np.int64)  # not .sum, which costs a few us more a call
        d, a = _without(d, k), _without(a, k)
        rows = self._dirty(k) if follows else np.arange(self.cut)
        _product(self.y, self.bytes, self.slot, k, self.inverse[a], rows, self.block)
        return _rh(_dot(self.inverse[d], self.y), d, a)

    def _one_block(self, k: int) -> float:
        """``value_without(k)`` where ``_product``'s last block is all of R': d' and a' are its row and column sums."""
        block = self.block
        _put(self.bytes, self.slot, k, np.arange(len(block)), block)
        # sums of 0/1 entries are exact integers in any order, and a matrix-vector product takes them fastest
        d, a = (block @ self.ones).astype(np.intp), (self.ones @ block).astype(np.intp)
        return _rh(_dot(self.inverse[d], block @ self.inverse[a]), d, a)

    def _cone_run(self, k0: int) -> None:
        """Rows over paths avoiding k, for every k of the run from ``k0`` and every i in anc(k).

        The run takes nodes k0, k0 + 1, ... while their cones fit
        ``capacity`` rows and they number at most ``span``; it always takes
        k0. Its pairs (k, i) go through in ascending height(i), one level at
        a time, so every successor j of i is lower and its row final. Row
        (k, i) ORs, over the successors j of i, bit j with row (k, j) for j
        in anc(k) and with j's closure row otherwise, and takes nothing from
        j = k. The rows are gathered from ``buffer`` through the run's table
        of sources, with the zero row of (k, k) for k, and reduced per pair.
        A gather holds at most ``capacity`` rows and one node's successors.
        ``counts`` ends as the sizes of the rows, except in the one-block
        regime, which counts from its block.
        """
        n, buffer = self.n, self.buffer
        k1 = int(np.searchsorted(self.cumulative, self.cumulative[k0] + self.capacity, "right")) - 1
        k1 = max(k0 + 1, min(k1, k0 + self.span))
        # keys (k - k0) * n + i of the pairs (k, i), i in anc(k) or i = k, ascending
        step = max(1, _CHUNK // n)
        keys = np.concatenate(
            [np.flatnonzero(_bits(self.ancestors[s:min(s + step, k1)], n)) + (s - k0) * n for s in range(k0, k1, step)]
        )
        self.run, self.bounds = range(k0, k1), (self.cumulative[k0:k1 + 1] - self.cumulative[k0]).tolist()
        self.cone = cone = keys % n
        owner = keys - keys % n  # (k - k0) * n
        # the buffer row that stands for node j while k is removed sits at stand_in[(k - k0) * n + j]
        stand_in = np.tile(np.arange(n, dtype=np.int32), k1 - k0)
        stand_in[owner + cone] = n + np.arange(len(keys))
        self.bytes[n:n + len(keys)] = 0
        zero = np.zeros(n + len(keys), dtype=bool)  # the rows of the pairs (k, k), which stay zero
        zero[n:] = cone == owner // n + k0
        pairs = np.flatnonzero(~zero[n:])
        pairs = pairs[np.argsort(self.height[cone[pairs]], kind="stable")]
        degree = self.degree[cone[pairs]]
        ends = np.cumsum(degree)
        starts = ends - degree
        targets = self.targets[np.repeat(self.first[cone[pairs]] - starts, degree) + np.arange(degree.sum())]
        source = stand_in[np.repeat(owner[pairs], degree) + targets]
        bit = _BIT[targets & 7] * ~zero[source]  # each successor's own bit, but not the removed node's
        # a step is one level's pairs whose edges start in one stretch of ``capacity``
        steps = self.height[cone[pairs]] * len(source) + starts // self.capacity
        breaks = [*np.flatnonzero(np.diff(steps, prepend=-1)).tolist(), len(pairs)]
        for lo, hi in zip(breaks, breaks[1:]):
            edges = slice(starts[lo], ends[hi - 1])
            gathered = buffer[source[edges]]
            gathered.view(np.uint8)[np.arange(len(gathered)), targets[edges] >> 3] |= bit[edges]
            buffer[n + pairs[lo:hi]] |= np.bitwise_or.reduceat(gathered, starts[lo:hi] - starts[lo])
        if not self.cut:
            return
        rows = self.bytes[n:n + len(keys)]
        self.counts = np.concatenate(
            [np.take(_POPCOUNT, rows[s:s + step]).sum(axis=1, dtype=np.int64) for s in range(0, len(keys), step)]
        )

    def _dirty(self, k: int) -> np.ndarray:
        """Reduced rows below the cut whose product can differ from node k-1's.

        Those are the rows that reach, or are, a node of T = {k-1, k} +
        desc(k-1) + desc(k): only they change, or read a w that changes.
        T holds the descendants of its nodes, so each of them reaches a sink
        of T, and the rows that reach T are those that reach its sinks.
        """
        touched = _bits(self.rows[k - 1] | self.rows[k], self.n).view(bool)
        touched[k - 1:k + 1] = True
        # a gather by index, which takes half the time of one by boolean mask here
        reach = np.bitwise_or.reduce(self.ancestors[np.flatnonzero(touched & (self.degree == 0))], axis=0)
        dirty = _without(_bits(reach, self.n), k)
        return np.flatnonzero(dirty[:self.cut])


def _run_budget(n: int) -> int:
    """Bytes a run's cone rows, and its table of gather sources, may each fill: n^2/8 or ``_CHUNK``."""
    return max(n * n // 8, _CHUNK)


def _layout(n: int) -> tuple[int, int]:
    """Rows per block of ``_product`` and the start of its last block, for n rows of n."""
    step = max(_GROUP, _CHUNK // max(n, 1) // _GROUP * _GROUP)
    blocks = n // step
    if blocks and n - blocks * step == 1:
        blocks -= 1  # a lone last row joins the block before it
    return step, blocks * step


def _block(n: int) -> np.ndarray:
    """Float64 scratch for ``_product``'s largest block over n rows of n: step + 1 rows at most."""
    return np.empty((min(_layout(n)[0] + 1, n), n), dtype=np.float64)


def _product(
    y: np.ndarray, packed: np.ndarray, slot: np.ndarray, k: int, w: np.ndarray, rows: np.ndarray, block: np.ndarray
) -> None:
    """Set ``y`` to ``R @ w`` at ``rows`` and at every row of the last block, in small row blocks.

    R is the square 0/1 matrix of the rows ``packed[slot]`` without row
    and column ``k``: the closure without node k, or all of it when ``k``
    is its node count. ``block`` is scratch from ``_block``. ``rows`` are sorted
    rows below the cut of ``_layout``; ``rh_global`` passes all of them, or
    one process's whole blocks of them. Every row
    gets the bits of the whole-matrix product under one BLAS thread, at
    one and at two threads. OpenBLAS dgemv works on groups of rows and
    gives the ``n % 4`` tail rows to another kernel, splits a large call
    between threads, and sends a one-row call through a dot kernel. So
    ``rows`` go through in blocks of whole 8-row groups, padded with zero
    rows, that hold at most ``_CHUNK`` entries (or 8 rows, whichever is
    more) and so run on one thread. A row's product depends only on its
    entries, on w and on which kernel takes it, so a gathered row keeps
    the bits it has among consecutive rows. The last block, with the tail
    rows, is taken whole and unpadded, since padding would hand its tail
    rows to another kernel; a lone last row joins the block before it
    (``_layout``), so it can hold step + 1 rows. At n=9125 a block takes
    about 0.7 MB of floats where the whole matrix took 666 MB.
    """
    n = len(w)
    cut = _layout(n)[1]
    _blocks(y, packed, slot, k, w, rows, block)
    last = block[:n - cut]
    _put(packed, slot, k, np.arange(cut, n), last)
    y[cut:] = last @ w


def _blocks(
    y: np.ndarray, packed: np.ndarray, slot: np.ndarray, k: int, w: np.ndarray, rows: np.ndarray, block: np.ndarray
) -> None:
    """Set ``y`` to ``R @ w`` at ``rows``, below the last block, in padded blocks of whole 8-row groups (``_product``)."""
    step = _layout(len(w))[0]
    for start in range(0, len(rows), step):
        at = rows[start:start + step]
        padded = block[:-(-len(at) // _GROUP) * _GROUP]
        _put(packed, slot, k, at, padded[:len(at)])
        padded[len(at):] = 0.0
        y[at] = (padded @ w)[:len(at)]


def _put(packed: np.ndarray, slot: np.ndarray, k: int, at: np.ndarray, out: np.ndarray) -> None:
    """Write rows ``at`` of ``_product``'s R as 0/1 floats: node r's row, or r + 1's from k on, without bit k."""
    reach = _bits(packed[slot[at + (at >= k)]], len(slot))
    out[:, :k] = reach[:, :k]
    out[:, k:] = reach[:, k + 1:]


def _dot(u: np.ndarray, y: np.ndarray) -> float:
    """``u @ y`` summed in order over pieces of at most ``_DOT`` entries.

    OpenBLAS splits a longer dot between threads, which can change its
    last bit; a piece this long runs on one thread. Up to ``_DOT``
    entries this is the one whole dot.
    """
    total = u[:_DOT] @ y[:_DOT]
    for start in range(_DOT, len(u), _DOT):
        total += u[start:start + _DOT] @ y[start:start + _DOT]
    return float(total)


def _bits(packed: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(packed, axis=-1, count=n, bitorder="little")


def _without(values: np.ndarray, k: int) -> np.ndarray:
    return np.concatenate((values[:k], values[k + 1:]))


def _inverse_roots(n: int) -> np.ndarray:
    """1/sqrt(c) for every count c < n, and 0 at c = 0: a network's weights, indexed by its counts."""
    out = np.zeros(n, dtype=np.float64)
    out[1:] = 1.0 / np.sqrt(np.arange(1, n, dtype=np.float64))
    return out


def _rh(cross: float, d: np.ndarray, a: np.ndarray) -> float:
    """RH value of a 0/1 reach matrix R with row sums ``d`` and column sums ``a``; 0 at n <= 2.

    The pair sum expands to ``#(i: d_i > 0) + #(j: a_j > 0) - 2 * u' R w``
    with u = 1/sqrt(d) and w = 1/sqrt(a), so ``cross = u' R w``, one
    matrix-vector product and one dot, replaces iteration over every
    reachable pair. Every summed term has d_i >= 1 and a_j >= 1 by
    construction, so no division by zero can occur.
    """
    n = len(d)
    if n <= 2:
        return 0.0
    raw = int(np.count_nonzero(d)) + int(np.count_nonzero(a)) - 2.0 * float(cross)
    if raw < 0.0:  # cancellation noise on near-homogeneous graphs
        logger.debug("clamped RH raw sum %r to 0 at n=%d", raw, n)
        raw = 0.0
    return raw / _normalizer(n)
