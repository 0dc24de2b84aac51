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
in one sweep over a single (n-1) x (n-1) buffer of 0/1 bytes: stepping
from k-1 to k changes only the node that buffer row and column k-1 stand
for, the rows patched for k-1 and the rows of anc(k). Descendant and
ancestor counts come from exact integer deltas. The floating-point
evaluation is the one ``rh_global`` runs: each row block is cast to
float64, which is exact for 0 and 1, and multiplied as ``rh_global``
multiplies the same rows, so every local value equals ``rh_global`` of
the rebuilt smaller network, subtracted from the base score, bit for bit.

The sweep also keeps y = R' @ w' of the last node and refreshes only the
rows of it that can change. From k-1 to k, R' and w' change only in the
rows of anc(k-1) and anc(k), at buffer position k-1, and in w' on
desc(k-1) and desc(k); every other node keeps its buffer position. A
row's product depends only on its nonzero positions and on w' there:
w' is finite and >= 0, so each zero entry adds an exact +0.0 to a
non-negative partial sum. So a row keeps its bits whenever its base
closure row misses T = {k-1, k} + desc(k-1) + desc(k), and the rows to
refresh are the nodes of T and their ancestors. Those below the last
block of ``_product`` go through gathered blocks of whole 8-row groups,
padded with zero rows; the last block, which holds the ``n % 4`` tail
rows, is recomputed whole at every node. The first node refreshes every
row, and so does every node of a network whose closure holds at least
n^2/16 pairs or whose buffer spans fewer than four product blocks: there
most rows change anyway, or the product costs less than finding the
rows. On the acceptance-c7 network a node refreshes about 13% of them.

The float contract of every RH value is the bits of ``u @ (R @ w)`` with
``R @ w`` taken as one whole-matrix float64 dgemv under one BLAS thread.
Both ``rh_global`` and the sweep take ``R @ w`` in small row blocks
aligned to whole 8-row groups (``_product``), which give every row those
bits at one and at two BLAS threads (up to n = 10,000: above it OpenBLAS
splits the final dot product between threads). ``rh_global`` and
``rh_local`` never hold an n x n float matrix: they unpack packed rows
one block at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormalization, UnknownNode
from .network import ActivityNetwork, topological_order
from .reachability import ReachabilityTable, closure

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
    rows, d, a = table._rows, table.descendant_counts, table.ancestor_counts
    value = _rh_from_reach(lambda start, stop: _unpack(rows[start:stop], n), d, a)
    return HeterogeneityScore(value, n, table.pair_count)


def rh_local(network: ActivityNetwork, node: int) -> float:
    """Drop in global RH caused by removing one node (may be negative).

    The removed node's incident edges go with it; any node isolated by the
    removal still counts toward the smaller network's normalization. The
    smaller network's reach matrix is never held: its rows stream through
    the blocks of ``rh_global``, the base closure rows with the rows of
    the node's ancestors replaced and the node's column dropped, so the
    value equals ``rh_local_all``'s bit for bit.
    """
    if not 0 <= node < network.n:
        raise UnknownNode(node)
    base = rh_global(network).value
    n, table, succ = network.n, closure(network), network.successor_lists
    rank = np.argsort(topological_order(network))
    cone = np.flatnonzero(table._rows[:, node >> 3] & (1 << (node & 7)))
    cone = cone[np.argsort(-rank[cone])]
    closed = {j: _closed(table._rows, j) for i in cone.tolist() for j in succ[i]}
    reduced, d, a = _without_node(table, succ, closed, cone, node)
    slot = np.full(n, -1)
    slot[cone] = np.arange(len(cone))

    def block(start: int, stop: int) -> np.ndarray:
        nodes = np.arange(start, stop)
        nodes += nodes >= node
        packed, at = table._rows[nodes], slot[nodes]
        packed[at >= 0] = reduced[at[at >= 0]]
        return np.delete(_unpack(packed, n), node, axis=1)

    return base - _rh_from_reach(block, d, a)


def rh_local_all(network: ActivityNetwork) -> LocalRHVector:
    """Local RH for every node, in one sweep over a reduced reach matrix.

    Each entry equals ``rh_local(network, i)`` and ``rh_global`` of the
    network rebuilt without node i, subtracted from the base score, bit for
    bit. The sweep holds one (n-1) x (n-1) buffer of 0/1 bytes, allocated
    after the base score is computed, one float64 block of rows to
    multiply, and the last node's product ``R @ w``.
    Each node recomputes only the rows of that product that can have
    changed: a zero entry adds an exact +0.0 to a row's non-negative sum,
    so a row keeps its bits unless it is, or reaches, a node of
    T = {k-1, k} + desc(k-1) + desc(k), or lies in the last product block
    (see the module docstring for the refresh rule).
    """
    base = rh_global(network)
    reduced = _ReducedReach(network)
    values = np.empty(network.n, dtype=np.float64)
    for node in range(network.n):
        values[node] = base.value - reduced.value_without(node)
    values.setflags(write=False)
    return LocalRHVector(values, base)


_CHUNK = 1 << 16  # matrix entries per unpack step and per product block
_GROUP = 8  # rows per aligned block unit of ``_product``


def _normalizer(n: int) -> float:
    return n - 2.0 * math.sqrt(n - 1)


class _ReducedReach:
    """Reach matrix of a network with one node k removed, kept in one buffer.

    Buffer row and column r stand for node r when r < k and for node r + 1
    otherwise, as in the network rebuilt without k. The rows of anc(k)
    hold reach without paths through k; every other row is the base
    closure row. ``y`` holds the buffer's blocked product with the reduced
    network's w. Moving to k + 1 only rewrites what changes, in both.

    The buffer holds 0/1 bytes, an eighth of a float64 matrix. Each
    product block is cast into ``block``, the one float64 block kept, and
    a uint8 to float64 cast of 0 or 1 is exact: dgemv gets the same
    values, rows, start and size as from a float buffer, so every row
    keeps its bits.
    """

    def __init__(self, network: ActivityNetwork) -> None:
        n = network.n
        self.n = n
        self.succ = network.successor_lists
        table = closure(network)
        self.table, self.rows = table, table._rows
        self.order = np.array(topological_order(network), dtype=np.int64)
        self.rank = np.argsort(self.order)  # rank[order[r]] = r
        self.ancestors = _ancestor_rows(self.rows, self.order)
        self.closed = [_closed(self.rows, i) for i in range(n)]
        size = max(n - 1, 0)
        self.buffer = np.empty((size, size), dtype=np.uint8)
        self.y = np.empty(size, dtype=np.float64)
        step, self.cut = _layout(size)
        # the share of rows a node refreshes ran near ten times the closure's
        # pair density on every network measured, so this keeps it under ~60%
        self.partial = self.cut >= 4 * step and 16 * table.pair_count < n * n
        # a lone last row joins the block before it, so a block has at most step + 1 rows
        self.block = np.empty((min(step + 1, size), size), dtype=np.float64)
        self.removed: int | None = None
        self.patched = np.empty(0, dtype=np.int64)

    def value_without(self, k: int) -> float:
        """RH of the network without node ``k``."""
        follows = k > 0 and self.removed == k - 1
        d, a = self._remove(k, follows)
        rows = self._dirty(k) if follows and self.partial else np.arange(self.cut)
        _refresh(self.y, self.buffer, _weights(a), rows, self.block)
        return _rh(_weights(d) @ self.y, d, a)

    def _remove(self, k: int, follows: bool) -> tuple[np.ndarray, np.ndarray]:
        """Make the buffer hold the reach matrix without ``k``; return its counts."""
        cone = self.order[np.flatnonzero(_bits(self.ancestors[k], self.n))[::-1]]
        if follows:
            # Buffer row and column k-1 switch from node k to node k-1. Row
            # k-1 and the rows patched for k-1 go back to their base closure
            # rows. The column needs no write of its own: a row with a 1 in
            # it, before or after, lies in anc(k-1) or anc(k), and those
            # rows are rewritten whole.
            stale = np.zeros(self.n, dtype=bool)
            stale[self.patched] = True
            stale[k - 1] = True
            stale[cone] = False
            stale[k] = False
            stale = np.flatnonzero(stale)
            _put_rows(self.buffer, stale, self.rows[stale], k)
        else:
            _fill(self.buffer, self.rows, k)
        reduced, d, a = _without_node(self.table, self.succ, self.closed, cone, k)
        _put_rows(self.buffer, cone, reduced, k)
        self.removed, self.patched = k, cone
        return d, a

    def _dirty(self, k: int) -> np.ndarray:
        """Buffer rows below the cut whose product can differ from node k-1's.

        Those are the rows that reach, or are, a node of T = {k-1, k} +
        desc(k-1) + desc(k): only they change, or read a w that changes.
        """
        touched = _bits(self.rows[k - 1] | self.rows[k], self.n)
        touched[k - 1:k + 1] = 1
        reach = np.bitwise_or.reduce(self.ancestors[touched.view(bool)], axis=0)
        dirty = _without(_bits(reach, self.n)[self.rank] | touched, k)
        return np.flatnonzero(dirty[:self.cut])


def _closed(rows: np.ndarray, i: int) -> int:
    """Closed descendant set of node i, itself included, as a Python-int bitset."""
    return int.from_bytes(rows[i].tobytes(), "little") | (1 << i)


def _ancestor_rows(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Packed ancestor rows: bit r of row j is set when node ``order[r]`` reaches j.

    The closure rows are transposed in bounded chunks of whole bytes, so no
    n x n temporary exists. Bits follow the topological order, so a row
    unpacks to its ancestors sorted by rank.
    """
    n = len(rows)
    out = np.empty_like(rows)
    step = _layout(n)[0]  # whole 8-row groups, so each chunk fills whole bytes
    for start in range(0, n, step):
        block = _bits(rows[order[start:start + step]], n)
        out[:, start // 8:(start + step) // 8] = np.packbits(block.T, axis=1, bitorder="little")
    return out


def _without_node(
    table: ReachabilityTable, succ, closed, cone: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``cone`` rows over paths avoiding ``k``, packed, and the counts without ``k``.

    ``cone`` is anc(k) in reverse topological order, so every successor
    inside it is final before its predecessors fold it in; successors
    outside it cannot reach k and keep their closed base row from
    ``closed``.
    """
    within: dict[int, int] = {}
    rows = []
    for i in cone.tolist():
        bits = 0
        for j in succ[i]:
            if j != k:
                bits |= within.get(j, closed[j])
        within[i] = bits | (1 << i)
        rows.append(bits)
    nbytes = table._rows.shape[1]
    packed = b"".join(bits.to_bytes(nbytes, "little") for bits in rows)
    reduced = np.frombuffer(packed, dtype=np.uint8).reshape(len(rows), nbytes)
    d = table.descendant_counts.copy()
    d[cone] = [bits.bit_count() for bits in rows]
    # Ancestor counts lose k's descendants and every pair a cone row no
    # longer reaches; the reduced rows are subsets of the base rows.
    lost = np.vstack((table._rows[k], table._rows[cone] ^ reduced))
    a = table.ancestor_counts.copy()
    step = max(1, _CHUNK // len(d))
    for start in range(0, len(lost), step):
        a -= _bits(lost[start:start + step], len(d)).sum(axis=0, dtype=np.int64)
    return reduced, _without(d, k), _without(a, k)


def _fill(buffer: np.ndarray, rows: np.ndarray, k: int) -> None:
    """Write every buffer row from the packed closure ``rows`` without row and column k.

    Rows are unpacked in bounded chunks, so the whole 0/1 matrix never
    exists next to the buffer.
    """
    step = max(1, _CHUNK // len(rows))
    for start in range(0, len(buffer), step):
        nodes = np.arange(start, min(start + step, len(buffer)))
        nodes += nodes >= k
        _put_rows(buffer, nodes, rows[nodes], k)


def _put_rows(buffer: np.ndarray, nodes: np.ndarray, packed: np.ndarray, k: int) -> None:
    """Write the packed rows of ``nodes`` into ``buffer`` as 0/1 bytes, without row and column k."""
    reach = np.unpackbits(packed, axis=1, bitorder="little")
    at = nodes - (nodes > k)
    buffer[at, :k] = reach[:, :k]
    buffer[at, k:] = reach[:, k + 1:len(buffer) + 1]


def _layout(n: int) -> tuple[int, int]:
    """Rows per block of ``_product`` and the start of its last block, for n rows of n."""
    step = max(_GROUP, _CHUNK // max(n, 1) // _GROUP * _GROUP)
    blocks = n // step
    if blocks and n - blocks * step == 1:
        blocks -= 1  # a lone last row joins the block before it
    return step, blocks * step


def _product(block, w: np.ndarray) -> np.ndarray:
    """``R @ w`` in small row blocks; ``block(start, stop)`` gives rows start:stop of R as floats.

    Every row gets the bits of the whole-matrix product under one BLAS
    thread, at one and at two threads. OpenBLAS dgemv works on groups of
    rows and gives the ``n % 4`` tail rows to another kernel, splits a
    large call between threads, and sends a one-row call through a dot
    kernel. So every block but the last is whole 8-row groups starting on
    a multiple of 8, a block holds at most ``_CHUNK`` entries (or 8 rows,
    whichever is more) so that it runs on one thread, and a lone last row
    joins the block before it (``_layout``). At n=9125 packed rows take
    about 0.7 MB of floats at a time where the whole matrix took 666 MB.
    """
    n = len(w)
    step, cut = _layout(n)
    y = np.empty(n, dtype=np.float64)
    for start in range(0, cut, step):
        y[start:start + step] = block(start, start + step) @ w
    y[cut:] = block(cut, n) @ w
    return y


def _refresh(y: np.ndarray, buffer: np.ndarray, w: np.ndarray, rows: np.ndarray, block: np.ndarray) -> None:
    """Set ``y`` to ``buffer @ w`` at ``rows`` and at every row of ``_product``'s last block.

    ``buffer`` holds 0/1 bytes and ``block`` is float64 scratch with room
    for ``_product``'s largest block. ``rows`` are sorted buffer rows below
    the last block's cut. They go through in blocks of
    ``_product``'s size, each cast into ``block`` and padded with zero rows
    to whole 8-row groups. The cast of 0 and 1 is exact, so dgemv sees the
    float values a float buffer would hold. A row's product depends only
    on its entries, on w and on which kernel takes it, and every one of
    these blocks sends each row through the kernel ``_product`` sends it
    through, on one thread, so each keeps its bits. The last block, with
    the ``n % 4`` tail rows, is cast whole and unpadded, as ``_product``
    takes it: bytes have no float view, and padding would hand its tail
    rows to another kernel. It can hold step + 1 rows.
    """
    n = len(w)
    step, cut = _layout(n)
    for start in range(0, len(rows), step):
        at = rows[start:start + step]
        padded = block[:-(-len(at) // _GROUP) * _GROUP]
        padded[:len(at)] = buffer[at]
        padded[len(at):] = 0.0
        y[at] = (padded @ w)[:len(at)]
    last = block[:n - cut]
    last[:] = buffer[cut:]
    y[cut:] = last @ w


def _bits(packed: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(packed, axis=-1, count=n, bitorder="little")


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    return _bits(packed, n).astype(np.float64)


def _without(values: np.ndarray, k: int) -> np.ndarray:
    return np.concatenate((values[:k], values[k + 1:]))


def _weights(counts: np.ndarray) -> np.ndarray:
    """1/sqrt(count) where the count is positive, else 0."""
    out = 1.0 / np.sqrt(np.maximum(counts, 1), dtype=np.float64)
    out[counts == 0] = 0.0
    return out


def _rh_from_reach(block, d: np.ndarray, a: np.ndarray) -> float:
    """RH value of a 0/1 reach matrix R with row sums ``d`` and column sums ``a``.

    ``block(start, stop)`` gives rows of R as floats (see ``_product``).
    The pair sum expands to ``#(i: d_i > 0) + #(j: a_j > 0) - 2 * u' R w``
    with u = 1/sqrt(d) and w = 1/sqrt(a), so one matrix-vector product
    replaces iteration over every reachable pair. Every summed term has
    d_i >= 1 and a_j >= 1 by construction, so no division by zero can
    occur. The float contract is the bits of ``u @ (R @ w)`` with
    ``R @ w`` taken as one whole-matrix float64 dgemv under one BLAS
    thread.
    """
    w = _weights(a)
    return _rh(_weights(d) @ _product(block, w), d, a)


def _rh(cross: float, d: np.ndarray, a: np.ndarray) -> float:
    """RH value from ``cross = u' R w`` and the counts; 0 at n <= 2."""
    n = len(d)
    if n <= 2:
        return 0.0
    raw = int(np.count_nonzero(d)) + int(np.count_nonzero(a)) - 2.0 * float(cross)
    if raw < 0.0:  # cancellation noise on near-homogeneous graphs
        logger.debug("clamped RH raw sum %r to 0 at n=%d", raw, n)
        raw = 0.0
    return raw / _normalizer(n)
