"""Synthetic layered schedules with a max-plus delay propagation model.

Real activity networks are long chains of bounded width, so the generator
places nodes on layers and draws edges only toward later layers (never
more than ``skip_depth`` layers ahead), which is acyclic by construction.
Larger ``skip_depth`` values fatten the tails of the ancestry-size
distribution. Planned dates follow from a forward pass; actual dates come
from ``simulate_delays``, where each activity starts as soon as its
dependencies allow (inheriting upstream end delays minus a slack) plus
optional endogenous noise. The propagation model is deliberately minimal
desk-scale scaffolding, not a scheduling theory.

Everything is reproducible: one 64-bit seed fixes the topology, and noise
draws use per-activity substreams so an activity's delays depend only on
its ancestors' draws, never on unrelated parts of the network.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from datetime import date, timedelta
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateConfig, EmptyNetwork
from .network import ActivityNetwork, ActivityRecord, Dependency, build_network, prune_isolated, topological_order

EPOCH = date(2021, 1, 4)
# Days a date may move from ``EPOCH`` and stay in the calendar; every day count drawn fits int64.
DAYS_BEFORE, DAYS_AFTER = (EPOCH - date.min).days, (date.max - EPOCH).days


@dataclass(frozen=True)
class NoiseSpec:
    """Endogenous day-level noise: none, integer uniform, or two-point.

    ``uniform(lo, hi)`` draws whole days in [lo, hi] (lo may be negative,
    modelling early starts); ``two_point(p, d)`` yields ``d`` days with
    probability ``p`` and zero otherwise.
    """

    kind: str = "none"
    low: int = 0
    high: int = 0
    probability: float = 0.0
    days: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "uniform", "two_point"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "uniform" and self.low > self.high:
            raise ValueError("uniform noise needs low <= high")
        if self.kind == "two_point" and not 0.0 <= self.probability <= 1.0:
            raise ValueError("two_point probability must lie in [0, 1]")
        if not all(-DAYS_BEFORE <= days <= DAYS_AFTER for days in (self.low, self.high, self.days)):
            raise ValueError(f"noise days must lie in [-{DAYS_BEFORE:,}, {DAYS_AFTER:,}], the calendar around {EPOCH}")

    @classmethod
    def none(cls) -> NoiseSpec:
        return cls("none")

    @classmethod
    def uniform(cls, low: int, high: int) -> NoiseSpec:
        return cls("uniform", low=low, high=high)

    @classmethod
    def two_point(cls, probability: float, days: int) -> NoiseSpec:
        return cls("two_point", probability=probability, days=days)

    @classmethod
    def parse(cls, text: str) -> NoiseSpec:
        """Parse ``none``, ``uniform:LO,HI`` or ``two_point:P,DAYS``."""
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if kind == "none":
            return cls.none()
        parts = [p.strip() for p in rest.split(",")]
        if kind in ("uniform", "two_point") and len(parts) == 2:
            try:
                first, second = (int if kind == "uniform" else float)(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                return cls.uniform(first, second) if kind == "uniform" else cls.two_point(first, second)
        raise ValueError(f"cannot parse noise spec {text!r}: expected none, uniform:LO,HI or two_point:P,DAYS")

    def __str__(self) -> str:
        """The spec in the form :meth:`parse` reads."""
        if self.kind == "uniform":
            return f"uniform:{self.low},{self.high}"
        if self.kind == "two_point":
            return f"two_point:{self.probability!r},{self.days}"
        return "none"

    def draw(self, rng: np.random.Generator | None) -> int:
        if self.kind == "none" or rng is None:
            return 0
        if self.kind == "uniform":
            return int(rng.integers(self.low, self.high + 1))
        return self.days if rng.random() < self.probability else 0


@dataclass(frozen=True)
class GeneratorConfig:
    """Layered random-DAG and planned-schedule parameters.

    ``layer_width`` is one width for every layer or a per-layer sequence;
    ``edge_probability`` applies independently to each (earlier node,
    later node) pair at layer distance <= ``skip_depth``. Planned
    durations are whole days drawn uniformly from ``base_duration_days``.
    """

    layer_count: int
    layer_width: int | tuple[int, ...]
    edge_probability: float
    skip_depth: int = 1
    seed: int = 0
    base_duration_days: tuple[int, int] = (1, 10)

    def __post_init__(self) -> None:
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")
        if self.skip_depth < 1:
            raise ValueError("skip_depth must be >= 1")
        if isinstance(self.layer_width, int):
            shaped = self.layer_width >= 1
        else:
            shaped = len(self.layer_width) == self.layer_count and all(w >= 1 for w in self.layer_width)
        if not shaped:
            raise ValueError("layer_width must hold one positive width per layer")
        draws = draw_count(self.layer_count, self.layer_width, self.skip_depth)
        if draws > MAX_DRAWS:
            raise ValueError(
                f"layer_count, layer_width and skip_depth ask for {draws:,} random draws, more than {MAX_DRAWS:,}"
            )
        if not 0.0 < self.edge_probability <= 1.0:
            raise ValueError("edge_probability must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if len(self.base_duration_days) != 2:
            raise ValueError(f"base_duration_days must be two integers LO,HI, got {list(self.base_duration_days)}")
        lo, hi = self.base_duration_days
        if lo < 1 or hi < lo:
            raise ValueError("base_duration_days must be a positive (low, high) range")
        if hi * self.layer_count > DAYS_AFTER:  # a path visits each layer at most once
            raise ValueError(
                f"base_duration_days and layer_count allow planned dates {hi * self.layer_count:,} days after {EPOCH}, "
                f"past {date.max}"
            )

    def widths(self) -> tuple[int, ...]:
        if isinstance(self.layer_width, int):
            return (self.layer_width,) * self.layer_count
        return tuple(self.layer_width)


# The most random numbers one generator config may draw (see ``draw_count``).
MAX_DRAWS = 100_000_000


def draw_count(layer_count: int, layer_width: int | Sequence[int], skip_depth: int) -> int:
    """Random numbers ``generate_dag`` draws: one per node pair at layer distance 1..``skip_depth``, one per node.

    Integer arithmetic over positive arguments; one width for every layer
    takes constant time, so no tuple of ``layer_count`` widths is built.
    """
    if isinstance(layer_width, int):
        gaps = min(skip_depth, layer_count - 1)  # layer pairs: gaps at each of the first layers, fewer at the end
        pairs = (gaps * (layer_count - 1) - gaps * (gaps - 1) // 2) * layer_width * layer_width
        return pairs + layer_count * layer_width
    prefix = [0, *accumulate(layer_width)]
    last = len(layer_width)
    pairs = sum(w * (prefix[min(last, i + 1 + skip_depth)] - prefix[i + 1]) for i, w in enumerate(layer_width))
    return pairs + prefix[-1]


@dataclass(frozen=True)
class PropagationConfig:
    """How delays travel along dependencies.

    ``slack_days`` is subtracted from an upstream end delay before a
    successor inherits it; with ``clamp_negative`` no activity starts
    before its planned date.
    """

    slack_days: int = 0
    clamp_negative: bool = True

    def __post_init__(self) -> None:
        if self.slack_days < 0:
            raise ValueError("slack_days must be >= 0")


def generate_dag(config: GeneratorConfig) -> ActivityNetwork:
    """Generate a pruned layered activity network with planned dates.

    Deterministic for a fixed config. Roots start at a fixed epoch date
    and every other activity starts when its last predecessor ends.

    Raises:
        DegenerateConfig: pruning isolated nodes empties the graph (for
            example a single layer, where no edge is possible).
    """
    rng = np.random.default_rng(config.seed)
    widths = config.widths()
    offsets = np.concatenate(([0], np.cumsum(widths)))
    total = int(offsets[-1])
    ids = [f"A{i:05d}" for i in range(total)]

    pairs: list[tuple[int, int]] = []
    for layer in range(config.layer_count - 1):
        max_gap = min(config.skip_depth, config.layer_count - 1 - layer)
        for gap in range(1, max_gap + 1):
            hits = rng.random((widths[layer], widths[layer + gap])) < config.edge_probability
            sources, targets = np.nonzero(hits)
            pairs += zip((sources + offsets[layer]).tolist(), (targets + offsets[layer + gap]).tolist())

    lo, hi = config.base_duration_days
    durations = rng.integers(lo, hi + 1, size=total)
    starts = np.zeros(total, dtype=np.int64)
    ends = np.zeros(total, dtype=np.int64)
    preds: list[list[int]] = [[] for _ in range(total)]
    for s, t in pairs:
        preds[t].append(s)
    for i in range(total):  # index order is layer-major, hence topological
        if preds[i]:
            starts[i] = max(ends[j] for j in preds[i])
        ends[i] = starts[i] + durations[i]

    records = [
        ActivityRecord(
            id=ids[i],
            name=f"activity-{i}",
            planned_start=EPOCH + timedelta(days=int(starts[i])),
            planned_end=EPOCH + timedelta(days=int(ends[i])),
        )
        for i in range(total)
    ]
    network = build_network(records, [Dependency(ids[s], ids[t]) for s, t in pairs])
    try:
        return prune_isolated(network)
    except EmptyNetwork as exc:
        raise DegenerateConfig(
            "generated network has no dependencies; increase layer count, "
            "widths or edge_probability"
        ) from exc


def simulate_delays(
    network: ActivityNetwork,
    propagation: PropagationConfig,
    noise: NoiseSpec,
    seed: int,
    *,
    shocks: Mapping[str, int] | None = None,
) -> ActivityNetwork:
    """Fill actual dates by propagating delays through the network.

    In topological order, each activity's start delay is the largest of:
    zero (when ``clamp_negative``), every predecessor's end delay minus
    the slack, and its own endogenous start draw. Its end delay adds a
    second endogenous draw plus any entry for it in ``shocks`` (exogenous
    extra end-delay days, keyed by activity id). Actual dates are the
    planned dates shifted by these delays; an activity can never end
    before it starts.

    Noise draws come from per-activity substreams of ``seed``, so a
    node's delays depend only on its ancestors' draws.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    shocks = dict(shocks or {})
    for node_id in shocks:
        if node_id not in network.index_of:
            raise KeyError(f"shock references unknown activity id {node_id!r}")

    n = network.n
    start_d = np.zeros(n, dtype=np.int64)
    end_d = np.zeros(n, dtype=np.int64)
    preds = network.predecessor_lists
    for i in topological_order(network):
        rec = network.nodes[i]
        rng = _node_rng(seed, rec.id) if noise.kind != "none" else None
        start_draw = noise.draw(rng)
        end_draw = noise.draw(rng)
        candidates = [start_draw]
        if propagation.clamp_negative:
            candidates.append(0)
        candidates.extend(int(end_d[j]) - propagation.slack_days for j in preds[i])
        start_d[i] = max(candidates)
        duration = (rec.planned_end - rec.planned_start).days
        end_d[i] = max(start_d[i] + end_draw + shocks.get(rec.id, 0), start_d[i] - duration)

    records = [
        replace(
            rec,
            actual_start=rec.planned_start + timedelta(days=int(start_d[i])),
            actual_end=rec.planned_end + timedelta(days=int(end_d[i])),
        )
        for i, rec in enumerate(network.nodes)
    ]
    return ActivityNetwork(records, network.edges)


def _node_rng(seed: int, node_id: str) -> np.random.Generator:
    digest = hashlib.sha256(node_id.encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "big")])

