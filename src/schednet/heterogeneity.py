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
in one sweep that never holds the reduced matrix. It keeps one packed
copy of the closure rows in which the rows of anc(k) are replaced; from
k-1 to k it restores the rows of anc(k-1) and writes those of anc(k). A
reduced row is its packed row unpacked without bit k, written straight
into the float64 block that is multiplied. Descendant and ancestor counts
come from exact integer deltas. ``rh_global`` and the sweep multiply
their 0/1 rows through the same blocked product (``_product``), so every
local value equals ``rh_global`` of the rebuilt smaller network,
subtracted from the base score, bit for bit. ``rh_local`` is one step of
that sweep.

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
recomputed whole at every node. The first node refreshes every row, and
so does every node of a network whose closure holds at least n^2/16
pairs or whose reduced matrix spans fewer than four product blocks:
there most rows change anyway, or the product costs less than finding
the rows. On the acceptance-c7 network a node refreshes about 13% of
them.

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
    d, a = table.descendant_counts, table.ancestor_counts
    inverse, y = _inverse_roots(n), np.empty(n, dtype=np.float64)
    _product(y, table._rows, n, inverse[a], np.arange(_layout(n)[1]), _block(n))
    return HeterogeneityScore(_rh(_dot(inverse[d], y), d, a), n, table.pair_count)


def rh_local(network: ActivityNetwork, node: int) -> float:
    """Drop in global RH caused by removing one node (may be negative).

    The removed node's incident edges go with it; any node isolated by the
    removal still counts toward the smaller network's normalization. The
    value is one step of ``rh_local_all``'s sweep, so it equals that
    sweep's entry bit for bit, and the smaller network's reach matrix is
    never held.
    """
    if not 0 <= node < network.n:
        raise UnknownNode(node)
    return rh_global(network).value - _ReducedReach(network).value_without(node)


def rh_local_all(network: ActivityNetwork) -> LocalRHVector:
    """Local RH for every node, in one sweep over the reduced reach matrices.

    Each entry equals ``rh_local(network, i)`` and ``rh_global`` of the
    network rebuilt without node i, subtracted from the base score, bit for
    bit. No reduced matrix is held: the sweep keeps one packed copy of the
    closure rows, n^2/8 bytes, with the rows of the removed node's
    ancestors replaced, one float64 block of rows to multiply, and the
    last node's product ``R @ w``. Each node recomputes only the rows of
    that product that can have changed: a zero entry adds an exact +0.0 to
    a row's non-negative sum, so a row keeps its bits unless it is, or
    reaches, a node of T = {k-1, k} + desc(k-1) + desc(k), or lies in the
    last product block (see the module docstring for the refresh rule).

    The first call keeps the vector on the network, as ``closure`` keeps
    the closure, and later calls return that same object.
    """
    if network._local is None:
        base = rh_global(network)
        reduced = _ReducedReach(network)
        values = np.empty(network.n, dtype=np.float64)
        for node in range(network.n):
            values[node] = base.value - reduced.value_without(node)
        values.setflags(write=False)
        network._local = LocalRHVector(values, base)
    return network._local


_CHUNK = 1 << 16  # matrix entries per unpack step and per product block
_GROUP = 8  # rows per aligned block unit of ``_product``
_DOT = 10_000  # entries per piece of ``_dot``; OpenBLAS runs a dot this long on one thread


def _normalizer(n: int) -> float:
    return n - 2.0 * math.sqrt(n - 1)


class _ReducedReach:
    """Reach matrix of a network with one node k removed, read from packed rows.

    Reduced row and column r stand for node r when r < k and for node r + 1
    otherwise, as in the network rebuilt without k. ``work`` is the packed
    closure with the rows of anc(k) replaced by their reach without paths
    through k, and a reduced row is its ``work`` row unpacked without bit k.
    ``y`` holds the reduced matrix's blocked product with the reduced
    network's w. Moving to k + 1 only rewrites what changes, in both.
    """

    def __init__(self, network: ActivityNetwork) -> None:
        self.n = n = network.n
        self.succ = network.successor_lists
        table = closure(network)
        self.table, self.rows = table, table._rows
        self.work = self.rows.copy()
        self.order = np.array(topological_order(network), dtype=np.int64)
        self.rank = np.argsort(self.order)  # rank[order[r]] = r
        self.ancestors = _ancestor_rows(self.rows, self.order)
        # closed descendant sets, each node included, as Python-int bitsets
        self.closed = [int.from_bytes(row.tobytes(), "little") | (1 << i) for i, row in enumerate(self.rows)]
        self.inverse = _inverse_roots(n)
        size = max(n - 1, 0)
        self.y = np.empty(size, dtype=np.float64)
        step, self.cut = _layout(size)
        # the share of rows a node refreshes ran near ten times the closure's
        # pair density on every network measured, so this keeps it under ~60%
        self.partial = self.cut >= 4 * step and 16 * table.pair_count < n * n
        self.block = _block(size)
        self.removed: int | None = None
        self.patched = np.empty(0, dtype=np.int64)

    def value_without(self, k: int) -> float:
        """RH of the network without node ``k``."""
        follows = k > 0 and self.removed == k - 1
        cone = self.order[np.flatnonzero(_bits(self.ancestors[k], self.n))[::-1]]
        self.work[self.patched] = self.rows[self.patched]
        reduced, d, a = _without_node(self.table, self.succ, self.closed, cone, k)
        self.work[cone] = reduced
        self.removed, self.patched = k, cone
        rows = self._dirty(k) if follows and self.partial else np.arange(self.cut)
        _product(self.y, self.work, k, self.inverse[a], rows, self.block)
        return _rh(_dot(self.inverse[d], self.y), d, a)

    def _dirty(self, k: int) -> np.ndarray:
        """Reduced rows below the cut whose product can differ from node k-1's.

        Those are the rows that reach, or are, a node of T = {k-1, k} +
        desc(k-1) + desc(k): only they change, or read a w that changes.
        """
        touched = _bits(self.rows[k - 1] | self.rows[k], self.n)
        touched[k - 1:k + 1] = 1
        reach = np.bitwise_or.reduce(self.ancestors[touched.view(bool)], axis=0)
        dirty = _without(_bits(reach, self.n)[self.rank] | touched, k)
        return np.flatnonzero(dirty[:self.cut])


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


def _product(y: np.ndarray, packed: np.ndarray, k: int, w: np.ndarray, rows: np.ndarray, block: np.ndarray) -> None:
    """Set ``y`` to ``R @ w`` at ``rows`` and at every row of the last block, in small row blocks.

    R is the square 0/1 matrix of the rows ``packed`` without row and
    column ``k``: the closure without node k, or all of it when ``k`` is
    its node count. ``block`` is scratch from ``_block``. ``rows`` are sorted
    rows below the cut of ``_layout``; ``rh_global`` passes all of them. Every row
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
    step, cut = _layout(n)
    for start in range(0, len(rows), step):
        at = rows[start:start + step]
        padded = block[:-(-len(at) // _GROUP) * _GROUP]
        _put(packed, k, at, padded[:len(at)])
        padded[len(at):] = 0.0
        y[at] = (padded @ w)[:len(at)]
    last = block[:n - cut]
    _put(packed, k, np.arange(cut, n), last)
    y[cut:] = last @ w


def _put(packed: np.ndarray, k: int, at: np.ndarray, out: np.ndarray) -> None:
    """Write rows ``at`` of ``_product``'s R as 0/1 floats: packed row r, or r + 1 from k on, without bit k."""
    reach = _bits(packed[at + (at >= k)], len(packed))
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
