"""Mutual information between node metrics and delays.

Plug-in estimation over a two-dimensional frequency matrix: both
variables are cut into the same number of equal-width bins (by default
the floor of the square root of the number of valid observations), the
joint and marginal probabilities are read off the matrix and

    MI = sum p(x, y) * ln(p(x, y) / (p(x) * p(y)))

in nats, with 0*ln(0) = 0. ``benchmark_metrics`` applies this to every
metric in the suite against a delay vector and ranks the results.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricWarning, InsufficientData
from .metrics import MetricVector, metric_suite
from .network import ActivityNetwork
from .performance import DelayVector, _paired, uniform_bin_indices


@dataclass(frozen=True, eq=False)
class FrequencyMatrix:
    """Joint histogram of (metric, delay) with marginals."""

    counts: np.ndarray
    row_totals: np.ndarray
    col_totals: np.ndarray
    total: int

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> FrequencyMatrix:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or (counts < 0).any():
            raise ValueError("counts must be a 2-D nonnegative grid")
        return cls(
            counts=counts,
            row_totals=counts.sum(axis=1),
            col_totals=counts.sum(axis=0),
            total=int(counts.sum()),
        )


@dataclass(frozen=True)
class BenchmarkEntry:
    metric: str
    mi: float
    rank: int


@dataclass(frozen=True)
class BenchmarkReport:
    """Mutual information of each node metric against a delay, with ranks.

    Entries keep metric-suite order; ranks are 1 (highest MI) through the
    number of metrics, ties broken by metric name. Values are in nats.
    """

    entries: tuple[BenchmarkEntry, ...]
    n_bins: int

    def rank_of(self, metric: str) -> int:
        for entry in self.entries:
            if entry.metric == metric:
                return entry.rank
        raise KeyError(metric)


def frequency_matrix(
    x: MetricVector, y: DelayVector, n_bins: int | None = None
) -> FrequencyMatrix:
    """Joint equal-width histogram of a metric against a delay.

    Nodes without a valid delay are excluded pairwise. ``n_bins`` defaults
    to ``floor(sqrt(valid node count))`` and applies to both dimensions;
    each variable's maximum lands in its last bin.

    Raises:
        ValueError: the metric and delay vectors differ in length.
        InsufficientData: fewer than two valid paired observations.
    """
    xv, yv = _paired(x, y)
    valid = len(xv)
    if valid < 2:
        raise InsufficientData(2, valid)
    if n_bins is None:
        n_bins = default_bin_count(valid)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    xi, _ = uniform_bin_indices(xv, n_bins)
    yi, _ = uniform_bin_indices(yv, n_bins)
    counts = np.bincount(xi * n_bins + yi, minlength=n_bins * n_bins).reshape(
        n_bins, n_bins
    )
    return FrequencyMatrix.from_counts(counts)


def default_bin_count(valid_count: int) -> int:
    """Square root of the observation count, rounded down (minimum 1)."""
    return max(1, math.isqrt(valid_count))


def mutual_information(m: FrequencyMatrix) -> float:
    """Plug-in mutual information of a frequency matrix, in nats.

    Empty cells contribute nothing; the result is clamped at zero against
    negative rounding error.
    """
    if m.total <= 0:
        raise ValueError("frequency matrix is empty")
    p = m.counts / m.total
    px = m.row_totals / m.total
    py = m.col_totals / m.total
    occupied = p > 0
    outer = px[:, None] * py[None, :]
    mi = float(np.sum(p[occupied] * np.log(p[occupied] / outer[occupied])))
    return max(mi, 0.0)


def benchmark_metrics(
    network: ActivityNetwork,
    delays: DelayVector,
    *,
    suite: list[MetricVector] | None = None,
) -> BenchmarkReport:
    """Rank every suite metric by mutual information with a delay vector.

    ``suite`` defaults to :func:`~schednet.metrics.metric_suite`, whose
    local RH is the vector the network keeps; a precomputed or narrower
    suite is ranked as given. All matrices share one bin count derived from
    the number of delay-valid nodes. When every valid delay is equal, every
    MI is zero and the ranks only sort metric names, so
    :class:`DegenerateMetricWarning` is emitted.
    """
    distinct = np.unique(delays.valid_values())
    if len(distinct) == 1:
        warnings.warn(
            f"every valid {delays.kind} delay is {distinct[0]} days; all mutual information is 0",
            DegenerateMetricWarning,
            stacklevel=2,
        )
    if suite is None:
        suite = metric_suite(network)
    n_bins = default_bin_count(int(np.count_nonzero(delays.valid)))
    scores = [
        (vector.name, mutual_information(frequency_matrix(vector, delays, n_bins)))
        for vector in suite
    ]
    by_rank = sorted(range(len(scores)), key=lambda k: (-scores[k][1], scores[k][0]))
    ranks = [0] * len(scores)
    for position, k in enumerate(by_rank, start=1):
        ranks[k] = position
    entries = tuple(
        BenchmarkEntry(name, mi, rank) for (name, mi), rank in zip(scores, ranks)
    )
    return BenchmarkReport(entries, n_bins)
