"""Descendant/ancestor reachability for activity networks.

A node j is a descendant of i when a directed path of length >= 1 leads
from i to j (a node is never its own descendant). :func:`closure` is the
one place the transitive closure is built, once per network; the
reachability table and every RH score read that one instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .network import ActivityNetwork, topological_order


@dataclass(frozen=True, eq=False)
class ReachabilityTable:
    """Exact per-node descendant and ancestor counts plus the reachable-pair relation."""

    descendant_counts: np.ndarray
    ancestor_counts: np.ndarray
    pair_count: int
    _rows: np.ndarray = field(repr=False)

    @property
    def reachable_pairs(self) -> Iterator[tuple[int, int]]:
        """All ordered pairs (i, j) with j a proper descendant of i, each exactly once."""
        for i, row in enumerate(self._rows):
            for j in np.flatnonzero(np.unpackbits(row, bitorder="little")).tolist():
                yield i, j


@dataclass(frozen=True, eq=False)
class TailDistribution:
    """Reverse cumulative frequency of reach fractions.

    ``frequency[k]`` counts nodes whose reach fraction is >= ``thresholds[k]``.
    """

    thresholds: np.ndarray
    frequency: np.ndarray


def reachability_table(network: ActivityNetwork) -> ReachabilityTable:
    """Compute descendant/ancestor counts and the reachable-pair relation."""
    return closure(network)


def closure(network: ActivityNetwork) -> ReachabilityTable:
    """The network's transitive closure, built on first use and kept.

    Row i of the uint8 ``_rows`` holds the proper descendants of i as
    little-endian bits: node j is bit ``j & 7`` of byte ``j >> 3``. Rows
    and the exact descendant and ancestor counts are read-only. Reach sets
    are accumulated as Python-int bitsets, ancestors along the topological
    order and descendants against it, so every neighbour's set is final
    before it is folded in.
    """
    if network._closure is None:
        n = network.n
        order = topological_order(network)
        counts = []
        # ancestors first, so only the descendant bitsets are alive when packed
        for adjacency, sequence in ((network.predecessor_lists, order), (network.successor_lists, order[::-1])):
            reach = [0] * n
            for i in sequence:
                bits = 0
                for j in adjacency[i]:
                    bits |= reach[j] | (1 << j)
                reach[i] = bits
            counts.append(np.array([bits.bit_count() for bits in reach], dtype=np.int64))
            counts[-1].setflags(write=False)
        a, d = counts
        nbytes = (n + 7) // 8
        packed = b"".join(bits.to_bytes(nbytes, "little") for bits in reach)
        rows = np.frombuffer(packed, dtype=np.uint8).reshape(n, nbytes)
        network._closure = ReachabilityTable(d, a, int(d.sum()), rows)
    return network._closure


def tail_distribution(
    table: ReachabilityTable,
    which: str = "descendants",
    n: int | None = None,
    thresholds: Sequence[float] | None = None,
) -> TailDistribution:
    """Reverse cumulative distribution of per-node reach fractions.

    ``which`` selects descendants or ancestors; fractions are counts over
    the total node count ``n`` (defaults to the table's length). The
    default thresholds are the distinct observed fractions, producing a
    plot-ready staircase.
    """
    if which == "descendants":
        counts = table.descendant_counts
    elif which == "ancestors":
        counts = table.ancestor_counts
    else:
        raise ValueError(f"which must be 'descendants' or 'ancestors', not {which!r}")
    if n is None:
        n = len(counts)
    if n < 1:
        raise ValueError("node count must be >= 1")
    fractions = np.sort(counts.astype(np.float64) / n)
    if thresholds is None:
        levels = np.unique(fractions)
    else:
        levels = np.asarray(sorted(thresholds), dtype=np.float64)
    frequency = len(fractions) - np.searchsorted(fractions, levels, side="left")
    return TailDistribution(levels, frequency.astype(np.int64))


def tail_distribution_csv(dist: TailDistribution) -> str:
    """Render a distribution as ``threshold,count`` CSV text."""
    lines = ["threshold,count"]
    lines += [
        f"{repr(float(t))},{int(c)}" for t, c in zip(dist.thresholds, dist.frequency)
    ]
    return "\n".join(lines) + "\n"
