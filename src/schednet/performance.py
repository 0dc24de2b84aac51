"""Activity performance indicators and binned delay statistics.

Start Delay is ``actual_start - planned_start`` in whole days (negative
means an early start) and isolates fluctuations inherited from upstream;
End Delay is the same difference on end dates and additionally absorbs
fluctuations arising within the activity itself. Activities missing the
relevant actual date are masked out rather than treated as on time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .binning import freedman_diaconis_bins, uniform_bin_indices
from .errors import DegenerateMetricWarning, NoValidDelays
from .metrics import MetricVector
from .network import ActivityNetwork

QUANTILE_LEVELS = (16, 25, 50, 75, 84)


@dataclass(frozen=True, eq=False)
class DelayVector:
    """Per-node delays in integer days with a validity mask."""

    days: np.ndarray
    valid: np.ndarray
    kind: str = "start"

    @property
    def valid_count(self) -> int:
        return int(np.count_nonzero(self.valid))

    def valid_values(self) -> np.ndarray:
        return self.days[self.valid]


@dataclass(frozen=True, eq=False)
class BinnedStats:
    """Per-bin delay statistics over equal-width metric bins.

    Empty bins report count 0 and NaN statistics. Quantiles use linear
    interpolation of the empirical distribution.
    """

    bin_edges: np.ndarray
    count: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    q16: np.ndarray
    q84: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.count)


def start_delay(network: ActivityNetwork) -> DelayVector:
    """Start Delay per activity; masked where actual_start is missing.

    Raises:
        NoValidDelays: every activity lacks an actual start date.
    """
    return _delay(network, "start")


def end_delay(network: ActivityNetwork) -> DelayVector:
    """End Delay per activity; masked where actual_end is missing."""
    return _delay(network, "end")


def bin_by_metric(metric: MetricVector, delays: DelayVector, n_bins: int) -> BinnedStats:
    """Group delays into equal-width bins along a metric and summarize each bin.

    Bins partition [min, max] of the metric over the delay-valid nodes;
    the maximum value falls in the last bin. Per bin: count, mean, median
    and the 25/75 and 16/84 percentile pairs (the 50% and 68% central
    intervals).

    A constant metric collapses to a single bin and emits
    :class:`DegenerateMetricWarning` instead of failing.

    Raises:
        NoValidDelays: no node has both a metric value and a valid delay.
        ValueError: ``n_bins`` < 1 or metric length mismatch.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if len(metric.values) != len(delays.days):
        raise ValueError("metric and delay vectors differ in length")
    mask = np.asarray(delays.valid, dtype=bool)
    if not mask.any():
        raise NoValidDelays(f"{delays.kind} delay")
    x = metric.values[mask]
    y = delays.days[mask].astype(np.float64)

    if x.max() == x.min():
        warnings.warn(
            f"metric {metric.name!r} is constant; returning a single bin",
            DegenerateMetricWarning,
            stacklevel=2,
        )
        n_bins = 1
    indices, edges = uniform_bin_indices(x, n_bins)

    count = np.zeros(n_bins, dtype=np.int64)
    stats = {name: np.full(n_bins, np.nan) for name in ("mean", "q16", "q25", "median", "q75", "q84")}
    for b in range(n_bins):
        members = y[indices == b]
        count[b] = len(members)
        if len(members) == 0:
            continue
        stats["mean"][b] = members.mean()
        q16, q25, q50, q75, q84 = np.percentile(members, QUANTILE_LEVELS)
        stats["q16"][b] = q16
        stats["q25"][b] = q25
        stats["median"][b] = q50
        stats["q75"][b] = q75
        stats["q84"][b] = q84
    return BinnedStats(
        bin_edges=edges,
        count=count,
        mean=stats["mean"],
        median=stats["median"],
        q25=stats["q25"],
        q75=stats["q75"],
        q16=stats["q16"],
        q84=stats["q84"],
    )


def suggest_bin_count(metric: MetricVector, delays: DelayVector) -> int:
    """Default bin count for trend plots: Freedman-Diaconis, clamped to [4, 30]."""
    mask = np.asarray(delays.valid, dtype=bool)
    if not mask.any():
        raise NoValidDelays(f"{delays.kind} delay")
    return freedman_diaconis_bins(metric.values[mask])


def _delay(network: ActivityNetwork, which: str) -> DelayVector:
    n = network.n
    days = np.zeros(n, dtype=np.int64)
    valid = np.zeros(n, dtype=bool)
    for i, rec in enumerate(network.nodes):
        planned = rec.planned_start if which == "start" else rec.planned_end
        actual = rec.actual_start if which == "start" else rec.actual_end
        if actual is not None:
            days[i] = (actual - planned).days
            valid[i] = True
    if not valid.any():
        raise NoValidDelays(f"{which} delay")
    days.setflags(write=False)
    valid.setflags(write=False)
    return DelayVector(days, valid, kind=which)
