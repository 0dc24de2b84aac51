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
its ancestors' draws, never on unrelated parts of the network. The
substream contract, exactly: with ``h = int.from_bytes(hashlib.sha256(
id.encode("utf-8")).digest()[:8], "big")``, an activity's start and end
draws are ``NoiseSpec.draw`` called twice on ``numpy.random.default_rng(
[seed, h])``. They are computed for all activities at once, by running
numpy's SeedSequence hash, PCG64 seeding and steps and XSL-RR output on
arrays (``_Streams``), with no numpy Generator built per activity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import accumulate
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DegenerateConfig
from .network import ActivityNetwork, ActivityRecord, topological_order

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
        """One draw from ``rng``: the definition the bulk draws of ``simulate_delays`` reproduce."""
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
    offsets = [0, *accumulate(widths)]
    total = offsets[-1]

    incoming: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in widths]  # (sources, targets) into each layer
    for layer in range(config.layer_count - 1):
        max_gap = min(config.skip_depth, config.layer_count - 1 - layer)
        for gap in range(1, max_gap + 1):
            hits = rng.random((widths[layer], widths[layer + gap])) < config.edge_probability
            sources, targets = np.nonzero(hits)
            incoming[layer + gap].append((sources + offsets[layer], targets + offsets[layer + gap]))

    lo, hi = config.base_duration_days
    durations = rng.integers(lo, hi + 1, size=total)
    starts = np.zeros(total, dtype=np.int64)
    ends = np.zeros(total, dtype=np.int64)
    for layer, edges in enumerate(incoming):  # every edge into a layer leaves an earlier one
        for sources, targets in edges:
            np.maximum.at(starts, targets, ends[sources])
        span = slice(offsets[layer], offsets[layer + 1])
        ends[span] = starts[span] + durations[span]

    pairs = [pair for layer in incoming for pair in layer]
    if not any(len(sources) for sources, _ in pairs):
        raise DegenerateConfig(
            "generated network has no dependencies; increase layer count, "
            "widths or edge_probability"
        )
    sources, targets = (np.concatenate(ends_of_edges) for ends_of_edges in zip(*pairs))
    linked = np.zeros(total, dtype=bool)
    linked[sources] = linked[targets] = True
    # isolated nodes pruned, the rest in ascending id order, as build_network indexes them: past 99,999
    # that is not the generation order (A100000 sorts before A10001)
    kept = sorted((f"A{i:05d}", i) for i in np.flatnonzero(linked).tolist())
    order = np.array([i for _, i in kept], dtype=np.int64)
    index = np.zeros(total, dtype=np.int64)
    index[order] = np.arange(len(order))
    first, last = starts[order].tolist(), ends[order].tolist()
    dates = {days: EPOCH + timedelta(days=days) for days in {*first, *last}}
    records = [
        ActivityRecord(node_id, f"activity-{i}", dates[s], dates[e])
        for (node_id, i), s, e in zip(kept, first, last)
    ]
    return ActivityNetwork(records, np.column_stack((index[sources], index[targets])))


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

    An activity's start and end draws are ``noise.draw`` called twice on
    ``numpy.random.default_rng([seed, int.from_bytes(hashlib.sha256(id.encode("utf-8")).digest()[:8], "big")])``,
    computed for all activities at once, so a node's delays depend only
    on its ancestors' draws.

    Raises:
        ValueError: ``seed`` is negative or not an integer, or a shock is
            not a whole number of days.
        KeyError: a shock names an activity the network does not hold.
    """
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    extra = [0] * network.n
    for node_id, days in (shocks or {}).items():
        if node_id not in network.index_of:
            raise KeyError(f"shock references unknown activity id {node_id!r}")
        if not _is_int(days):
            raise ValueError(f"shock for activity {node_id!r} must be a whole number of days, got {days!r}")
        extra[network.index_of[node_id]] = int(days)

    first, second = _noise_draws(noise, int(seed), network.node_ids)
    slack = propagation.slack_days
    preds = network.predecessor_lists
    start_d = [0] * network.n
    end_d = [0] * network.n
    for i in topological_order(network):
        start = max([first[i], *(end_d[j] - slack for j in preds[i])])
        if propagation.clamp_negative:
            start = max(start, 0)
        rec = network.nodes[i]
        duration = (rec.planned_end - rec.planned_start).days
        start_d[i] = start
        end_d[i] = max(start + second[i] + extra[i], start - duration)

    records = [
        ActivityRecord(
            rec.id,
            rec.name,
            rec.planned_start,
            rec.planned_end,
            rec.planned_start + timedelta(days=start),
            rec.planned_end + timedelta(days=end),
        )
        for rec, start, end in zip(network.nodes, start_d, end_d)
    ]
    _, degree, heads = network._csr  # the sorted edges as arrays, not pair by pair
    return ActivityNetwork(records, np.column_stack((np.repeat(np.arange(network.n), degree), heads)))


def _is_int(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# ------------------------------------------------------- bulk noise draws
#
# numpy seeds ``default_rng(entropy)`` in three steps, each redone below on
# arrays with one row per activity: SeedSequence hashes the entropy words
# into a pool of four uint32 words and expands the pool into four uint64
# words; PCG64 takes the first two as its 128-bit initial state and the last
# two as its stream; each 64-bit output steps the 128-bit LCG and applies
# XSL-RR (O'Neill 2014). 128-bit values are (high, low) uint64 pairs. Every
# constant has an explicit numpy dtype, so numpy 1.x's value-based casting
# and numpy 2's NEP 50 rules give the same wrapping arithmetic.

_U32, _U64 = np.uint32, np.uint64
_HASH_A = (0x43B0D7E5, 0x931E8875)  # SeedSequence's (INIT_A, MULT_A): mixing the entropy into the pool
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # (INIT_B, MULT_B): generate_state
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_MULT_HI, _MULT_LO = _U64(2549297995355413924), _U64(4865540595714422341)  # PCG's 128-bit multiplier
_LOW32 = _U64(0xFFFFFFFF)
_MULT_LO0, _MULT_LO1 = _MULT_LO & _LOW32, _MULT_LO >> _U64(32)


def _noise_draws(noise: NoiseSpec, seed: int, ids: Sequence[str]) -> tuple[list[int], list[int]]:
    """Every activity's start and end draw: ``noise.draw`` twice on its own ``default_rng``, as lists of ints."""
    if noise.kind == "none":
        return [0] * len(ids), [0] * len(ids)
    streams = _Streams(seed, ids)
    if noise.kind == "uniform":
        draws = [_integers(streams, noise.low, noise.high - noise.low) for _ in range(2)]
    else:
        draws = [np.where(streams.random() < noise.probability, noise.days, 0) for _ in range(2)]
    return draws[0].tolist(), draws[1].tolist()


def _entropy(seed: int, ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the uint32 words numpy reads from ``[seed, id hash]``, zero-padded to at least 4, and their lengths.

    An int gives its 32-bit words, lowest first, and 0 gives ``[0]``; so
    an id hash below 2**32 is one word. numpy pads a pool of four with
    ``hashmix(0)``, which padding the row with zeros gives too.
    """
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    digests = b"".join(hashlib.sha256(node_id.encode("utf-8")).digest()[:8] for node_id in ids)
    hashes = np.frombuffer(digests, dtype=">u8").astype(_U64)
    low, high = (hashes & _LOW32).astype(_U32), (hashes >> _U64(32)).astype(_U32)
    columns = [np.full(len(ids), word, dtype=_U32) for word in seed_words] + [low, high]
    columns += [np.zeros(len(ids), dtype=_U32)] * (4 - len(columns))
    return np.column_stack(columns), len(seed_words) + 1 + (high != 0)


def _hasher(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's ``hashmix``, with its running hash constant."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ _U32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * _U32(const)
        return value ^ (value >> _U32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _U32(16))


def _seed_state(entropy: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(row[:length]).generate_state(4, np.uint64)`` of every row, as four uint64 columns."""
    hashmix = _hasher(*_HASH_A)
    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):  # words past the pool's four: seeds of 2**64 and above
        present = lengths > src
        for dst in range(4):
            pool[dst] = np.where(present, _mix(pool[dst], hashmix(entropy[:, src])), pool[dst])
    hashmix = _hasher(*_HASH_B)
    words = [hashmix(pool[i % 4]).astype(_U64) for i in range(8)]
    return [words[2 * k] | words[2 * k + 1] << _U64(32) for k in range(4)]  # little-endian pairs


def _add128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    low = a_lo + b_lo
    return a_hi + b_hi + (low < a_lo).astype(_U64), low


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LCG step ``state * multiplier + inc`` modulo 2**128; ``lo * _MULT_LO``'s high word from 32-bit parts."""
    lo0, lo1 = lo & _LOW32, lo >> _U64(32)
    cross0, cross1 = lo0 * _MULT_LO1, lo1 * _MULT_LO0
    middle = (lo0 * _MULT_LO0 >> _U64(32)) + (cross0 & _LOW32) + (cross1 & _LOW32)
    carry = lo1 * _MULT_LO1 + (cross0 >> _U64(32)) + (cross1 >> _U64(32)) + (middle >> _U64(32))
    return _add128(carry + lo * _MULT_HI + hi * _MULT_LO, lo * _MULT_LO, inc_hi, inc_lo)


class _Streams:
    """One PCG64 generator per activity, seeded as ``default_rng([seed, id hash])`` seeds it, all drawn together."""

    def __init__(self, seed: int, ids: Sequence[str]) -> None:
        init_hi, init_lo, seq_hi, seq_lo = _seed_state(*_entropy(seed, ids))
        # pcg64_set_seed: state 0 and inc = initseq << 1 | 1, a step, initstate added, a step
        self.inc = (seq_hi << _U64(1) | seq_lo >> _U64(63), seq_lo << _U64(1) | _U64(1))
        self.state = _step(*_add128(*self.inc, init_hi, init_lo), *self.inc)
        # the high half of a 64-bit output that next32 keeps for the next call (PCG64's has_uint32)
        self.kept = np.zeros(len(ids), dtype=bool)
        self.half = np.zeros(len(ids), dtype=_U64)

    def next64(self, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Step the rows' generators and return their XSL-RR outputs."""
        hi, lo = _step(self.state[0][rows], self.state[1][rows], self.inc[0][rows], self.inc[1][rows])
        self.state[0][rows], self.state[1][rows] = hi, lo
        folded, rotation = hi ^ lo, hi >> _U64(58)
        return folded >> rotation | folded << ((_U64(64) - rotation) & _U64(63))

    def random(self) -> np.ndarray:
        """``Generator.random()`` of every row."""
        return (self.next64() >> _U64(11)).astype(np.float64) * 2.0**-53

    def next32(self, rows: np.ndarray) -> np.ndarray:
        """The kept high half of the last output where there is one, else the low half of a new one."""
        kept = self.kept[rows]
        fresh = rows[~kept]
        words = self.half[rows]
        output = self.next64(fresh)
        words[~kept] = output & _LOW32
        self.half[fresh] = output >> _U64(32)
        self.kept[rows] = ~kept
        return words


def _integers(streams: _Streams, low: int, span: int) -> np.ndarray:
    """``Generator.integers(low, low + span + 1)`` of every row: Lemire's method on buffered 32-bit draws.

    Only the rejected rows draw again. A span of 0 draws nothing. Noise
    spans stay below 2**32 - 1 (the calendar allows about 3.65M days), so
    numpy's 64-bit path and its full 32-bit range shortcut never apply.
    """
    values = np.full(len(streams.kept), low, dtype=np.int64)
    if span == 0:
        return values
    bound, threshold = _U64(span + 1), _U64((2**32 - span - 1) % (span + 1))
    rows = np.arange(len(values))
    while len(rows):
        product = streams.next32(rows) * bound
        accepted = (product & _LOW32) >= threshold
        values[rows[accepted]] += (product[accepted] >> _U64(32)).astype(np.int64)
        rows = rows[~accepted]
    return values
