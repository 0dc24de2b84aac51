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
in one sweep over a single (n-1) x (n-1) buffer: stepping from k-1 to k
changes only the node that buffer row and column k-1 stand for, the rows
patched for k-1 and the rows of anc(k). Descendant and ancestor counts
come from exact integer deltas. The floating-point evaluation is the one
``rh_global`` runs, on a matrix of the same values in the same row
blocks, so every local value equals ``rh_global`` of the rebuilt smaller
network, subtracted from the base score, bit for bit.

The float contract of every RH value is the bits of ``u @ (R @ w)`` with
``R @ w`` taken as one whole-matrix float64 dgemv under one BLAS thread.
Both ``rh_global`` and the sweep take ``R @ w`` in small row blocks
aligned to whole 8-row groups (``_product``), which give every row those
bits at one and at two BLAS threads (up to n = 10,000: above it OpenBLAS
splits the final dot product between threads). ``rh_global`` never holds
the n x n matrix: it unpacks the packed closure rows one block at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormalization, UnknownNode
from .network import ActivityNetwork, topological_order
from .reachability import closure

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
    value = _rh_from_reach(table._rows, table.descendant_counts, table.ancestor_counts)
    return HeterogeneityScore(value, n, table.pair_count)


def rh_local(network: ActivityNetwork, node: int) -> float:
    """Drop in global RH caused by removing one node (may be negative).

    The removed node's incident edges go with it; any node isolated by the
    removal still counts toward the smaller network's normalization.
    """
    if not 0 <= node < network.n:
        raise UnknownNode(node)
    base = rh_global(network).value
    return base - _ReducedReach(network).value_without(node)


def rh_local_all(network: ActivityNetwork) -> LocalRHVector:
    """Local RH for every node, in one sweep over a reduced reach matrix.

    Each entry equals ``rh_local(network, i)`` and ``rh_global`` of the
    network rebuilt without node i, subtracted from the base score, bit for
    bit. The sweep holds one (n-1) x (n-1) float64 buffer, allocated after
    the base score is computed.
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
    closure row. Moving to k + 1 only rewrites what changes.
    """

    def __init__(self, network: ActivityNetwork) -> None:
        n = network.n
        self.n = n
        self.succ = network.successor_lists
        table = closure(network)
        self.rows, self.d, self.a = table._rows, table.descendant_counts, table.ancestor_counts
        self.rank = np.argsort(topological_order(network))  # rank[order[r]] = r
        self.closed = [int.from_bytes(row.tobytes(), "little") | (1 << i) for i, row in enumerate(self.rows)]
        self.buffer = np.empty((max(n - 1, 0),) * 2, dtype=np.float64)
        self.removed: int | None = None
        self.patched = np.empty(0, dtype=np.int64)

    def value_without(self, k: int) -> float:
        """RH of the network without node ``k``."""
        d, a = self._remove(k)
        return _rh_from_reach(self.buffer, d, a)

    def _remove(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Make the buffer hold the reach matrix without ``k``; return its counts."""
        cone = self._ancestors(k)
        if k > 0 and self.removed == k - 1:
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
        rows = self._rows_avoiding(cone, k)
        nbytes = self.rows.shape[1]
        packed = b"".join(bits.to_bytes(nbytes, "little") for bits in rows)
        reduced = np.frombuffer(packed, dtype=np.uint8).reshape(len(rows), nbytes)
        _put_rows(self.buffer, cone, reduced, k)
        self.removed, self.patched = k, cone

        d = self.d.copy()
        d[cone] = [bits.bit_count() for bits in rows]
        # Ancestor counts lose k's descendants and every pair a cone row no
        # longer reaches; the reduced rows are subsets of the base rows.
        lost = np.vstack((self.rows[k], self.rows[cone] ^ reduced))
        a = self.a - np.unpackbits(lost, axis=1, count=self.n, bitorder="little").sum(axis=0, dtype=np.int64)
        return _without(d, k), _without(a, k)

    def _ancestors(self, k: int) -> np.ndarray:
        """anc(k) in reverse topological order: the nodes whose row holds bit k."""
        nodes = np.flatnonzero(self.rows[:, k >> 3] & (1 << (k & 7)))
        return nodes[np.argsort(-self.rank[nodes])]

    def _rows_avoiding(self, cone: np.ndarray, k: int) -> list[int]:
        """Descendant bitsets of the ``cone`` nodes over paths that avoid ``k``.

        ``cone`` is anc(k) in reverse topological order, so every successor
        inside it is final before its predecessors fold it in; successors
        outside it cannot reach k and keep their base closure.
        """
        closed = self.closed
        within: dict[int, int] = {}
        rows = []
        for i in cone.tolist():
            bits = 0
            for j in self.succ[i]:
                if j != k:
                    bits |= within.get(j, closed[j])
            within[i] = bits | (1 << i)
            rows.append(bits)
        return rows

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
    """Write the packed rows of ``nodes`` into ``buffer`` as 0/1 floats, without row and column k."""
    reach = np.unpackbits(packed, axis=1, bitorder="little")
    at = nodes - (nodes > k)
    buffer[at, :k] = reach[:, :k]
    buffer[at, k:] = reach[:, k + 1:len(buffer) + 1]


def _product(reach: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``R @ w`` in small row blocks, from float rows of R or its packed bit rows.

    ``reach`` is R itself as float64 rows, or R packed into little-endian
    uint8 bit rows, which each block unpacks. Every row gets the bits of
    the whole-matrix product under one BLAS thread, at one and at two
    threads. OpenBLAS dgemv works on groups of rows and gives the ``n % 4``
    tail rows to another kernel, splits a large call between threads, and
    sends a one-row call through a dot kernel. So every block but the last
    is whole 8-row groups starting on a multiple of 8, a block holds at
    most ``_CHUNK`` entries (or 8 rows, whichever is more) so that it runs
    on one thread, and a lone last row joins the block before it. Float
    rows go through one stacked call over their whole blocks. At n=9125
    packed rows take about 0.7 MB of floats at a time where the whole
    matrix took 666 MB.
    """
    n = len(w)
    step = max(_GROUP, _CHUNK // n // _GROUP * _GROUP)
    blocks = n // step
    if blocks and n - blocks * step == 1:
        blocks -= 1  # a lone last row joins the block before it
    cut = blocks * step
    y = np.empty(n, dtype=np.float64)
    if reach.dtype == np.uint8:
        for start in range(0, cut, step):
            y[start:start + step] = _unpack(reach[start:start + step], n) @ w
        y[cut:] = _unpack(reach[cut:], n) @ w
    else:  # one stacked call, one dgemv per block
        y[:cut] = (reach[:cut].reshape(blocks, step, n) @ w).reshape(cut)
        y[cut:] = reach[cut:] @ w
    return y


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(np.float64)


def _without(values: np.ndarray, k: int) -> np.ndarray:
    return np.concatenate((values[:k], values[k + 1:]))


def _rh_from_reach(reach: np.ndarray, d: np.ndarray, a: np.ndarray) -> float:
    """RH value of a 0/1 reach matrix R with row sums ``d`` and column sums ``a``.

    ``reach`` holds R as float64 rows or as packed bit rows (see
    ``_product``). The pair sum expands to
    ``#(i: d_i > 0) + #(j: a_j > 0) - 2 * u' R w`` with u = 1/sqrt(d) and
    w = 1/sqrt(a), so one matrix-vector product replaces iteration over
    every reachable pair. Every summed term has d_i >= 1 and a_j >= 1 by
    construction, so no division by zero can occur. The float contract is
    the bits of ``u @ (R @ w)`` with ``R @ w`` taken as one whole-matrix
    float64 dgemv under one BLAS thread.
    """
    n = len(d)
    if n <= 2 or not d.any():
        return 0.0
    sources = int(np.count_nonzero(d))
    targets = int(np.count_nonzero(a))
    u = np.zeros(n, dtype=np.float64)
    np.divide(1.0, np.sqrt(d, dtype=np.float64), out=u, where=d > 0)
    w = np.zeros(n, dtype=np.float64)
    np.divide(1.0, np.sqrt(a, dtype=np.float64), out=w, where=a > 0)

    cross = float(u @ _product(reach, w))
    raw = sources + targets - 2.0 * cross
    if raw < 0.0:  # cancellation noise on near-homogeneous graphs
        logger.debug("clamped RH raw sum %r to 0 at n=%d", raw, n)
        raw = 0.0
    return raw / _normalizer(n)
