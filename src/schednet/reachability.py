"""Descendant/ancestor reachability for activity networks.

A node j is a descendant of i when a directed path of length >= 1 leads
from i to j (a node is never its own descendant). Descendant sets are
accumulated as bit-packed integers in reverse topological order, which
keeps exact counts cheap even for thousands of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .network import ActivityNetwork, topological_order


@dataclass(frozen=True)
class ReachabilityTable:
    """Exact per-node descendant and ancestor counts plus the reachable-pair relation."""

    descendant_counts: np.ndarray
    ancestor_counts: np.ndarray
    pair_count: int
    _descendant_bits: tuple[int, ...] = field(repr=False)

    @property
    def reachable_pairs(self) -> Iterator[tuple[int, int]]:
        """All ordered pairs (i, j) with j a proper descendant of i, each exactly once."""
        for i, bits in enumerate(self._descendant_bits):
            while bits:
                low = bits & -bits
                yield i, low.bit_length() - 1
                bits ^= low


@dataclass(frozen=True)
class TailDistribution:
    """Reverse cumulative frequency of reach fractions.

    ``frequency[k]`` counts nodes whose reach fraction is >= ``thresholds[k]``.
    """

    thresholds: np.ndarray
    frequency: np.ndarray


def reachability_table(network: ActivityNetwork) -> ReachabilityTable:
    """Compute descendant/ancestor counts and the reachable-pair relation."""
    n = network.n
    order = topological_order(network)
    desc = descendant_bitsets(network.successor_lists, order)
    anc = descendant_bitsets(network.predecessor_lists, list(reversed(order)))
    d = np.array([b.bit_count() for b in desc], dtype=np.int64)
    a = np.array([b.bit_count() for b in anc], dtype=np.int64)
    d.setflags(write=False)
    a.setflags(write=False)
    return ReachabilityTable(d, a, int(d.sum()), tuple(desc))


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


def descendant_bitsets(succ: Sequence[Sequence[int]], order: Sequence[int]) -> list[int]:
    """Per-node reachable-set bitmasks, accumulated against a topological order.

    ``order`` must topologically sort ``succ``; iterating it backwards
    guarantees every successor's set is final before it is folded in.
    """
    reach = [0] * len(succ)
    for i in reversed(order):
        bits = 0
        for j in succ[i]:
            bits |= reach[j] | (1 << j)
        reach[i] = bits
    return reach
