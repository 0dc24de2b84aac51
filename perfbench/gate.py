"""Output gate: artifact integrity, recorded references and independent oracles.

Everything here uses the standard library and numpy only, never schednet,
so the checks do not share code with the program they judge.

Three kinds of check:

* integrity: every file in an ``analyze`` output directory is listed in its
  ``manifest.json`` with the sha256 of its bytes, and nothing else is there;
* references: at the default seed, each ``analyze`` call's manifest digest
  and each screening stage's outputs must equal the values recorded from
  the reference commit: digests and integers exactly, and float arrays,
  stored in ``reference.npz``, element by element within ``REL_TOL``;
* oracles: at every seed, counts, tail distributions, degrees, closeness,
  the betweenness sum and global RH are recomputed from the input CSVs by
  the code below and compared with what the program produced.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

# Relative tolerance for every float comparison (the acceptance-c2 tolerance).
# The oracle's pair-by-pair RH sum and the program's expansion
# #sources + #targets - 2 u'Rw agree to about 1e-15 on these workloads.
REL_TOL = 1e-12

INPUT_FILES = ("activities.csv", "dependencies.csv")
ANALYZE_FILES = frozenset(
    {
        "network.json", "tail_descendants.csv", "tail_ancestors.csv", "rh.json", "rh.csv",
        "metrics.csv", "bins.csv", "bins.json", "benchmark.csv", "benchmark.json",
        "manifest.json",
    }
)


# ----------------------------------------------------------------- schedules


@dataclass(frozen=True)
class Schedule:
    """A schedule as the oracle sees it: pruned, indexed in ascending id order."""

    ids: tuple[str, ...]
    succ: tuple[tuple[int, ...], ...]
    pred: tuple[tuple[int, ...], ...]
    start_delay: tuple[int | None, ...]

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def edges(self) -> int:
        return sum(len(s) for s in self.succ)


def read_schedule(activities: Path, dependencies: Path) -> Schedule:
    with activities.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    with dependencies.open(newline="", encoding="utf-8") as handle:
        pairs = {(row["predecessor"], row["successor"]) for row in csv.DictReader(handle)}
    linked = {node for pair in pairs for node in pair}
    rows = sorted((row for row in rows if row["id"] in linked), key=lambda row: row["id"])
    index = {row["id"]: i for i, row in enumerate(rows)}
    succ: list[list[int]] = [[] for _ in rows]
    pred: list[list[int]] = [[] for _ in rows]
    for p, s in sorted(pairs):
        succ[index[p]].append(index[s])
        pred[index[s]].append(index[p])
    delays = tuple(
        (date.fromisoformat(row["actual_start"]) - date.fromisoformat(row["planned_start"])).days
        if row["actual_start"]
        else None
        for row in rows
    )
    return Schedule(
        tuple(row["id"] for row in rows),
        tuple(tuple(s) for s in succ),
        tuple(tuple(p) for p in pred),
        delays,
    )


def reach_bits(adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Proper-descendant set of every node as an int bitmask (Kahn order)."""
    n = len(adjacency)
    indegree = [0] * n
    for targets in adjacency:
        for j in targets:
            indegree[j] += 1
    order = [i for i in range(n) if indegree[i] == 0]
    for i in order:
        for j in adjacency[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
    if len(order) != n:
        raise ValueError("schedule has a cycle")
    bits = [0] * n
    for i in reversed(order):
        acc = 0
        for j in adjacency[i]:
            acc |= bits[j] | (1 << j)
        bits[i] = acc
    return bits


def inputs_digest(files: Sequence[Path]) -> str:
    """sha256 over the sha256 of each file, in order."""
    digest = hashlib.sha256()
    for path in files:
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def fingerprint(schedules: Sequence[Schedule], input_files: Sequence[Path]) -> dict[str, Any]:
    """Size and identity of a workload's inputs."""
    return {
        "schedules": len(schedules),
        "nodes": sum(s.n for s in schedules),
        "edges": sum(s.edges for s in schedules),
        "reachable_pairs": sum(sum(b.bit_count() for b in reach_bits(s.succ)) for s in schedules),
        "valid_delays": sum(d is not None for s in schedules for d in s.start_delay),
        "inputs_sha256": inputs_digest(input_files),
    }


# ------------------------------------------------------------------- oracles


@dataclass(frozen=True)
class Expected:
    """Values the program must reproduce for one schedule."""

    in_degree: np.ndarray
    out_degree: np.ndarray
    descendants: np.ndarray
    ancestors: np.ndarray
    closeness: np.ndarray
    reverse_closeness: np.ndarray
    betweenness_sum: float
    global_rh: float
    valid_delays: int


def expected(schedule: Schedule) -> Expected:
    n = schedule.n
    desc = reach_bits(schedule.succ)
    d = np.array([b.bit_count() for b in desc], dtype=np.int64)
    a = np.array([b.bit_count() for b in reach_bits(schedule.pred)], dtype=np.int64)
    forward = _bfs_sums(schedule.succ)
    backward = _bfs_sums(schedule.pred)
    return Expected(
        in_degree=np.array([len(p) for p in schedule.pred], dtype=np.int64),
        out_degree=np.array([len(s) for s in schedule.succ], dtype=np.int64),
        descendants=d,
        ancestors=a,
        closeness=_closeness(forward, n),
        reverse_closeness=_closeness(backward, n),
        # sum over nodes of betweenness = sum over reachable (s, t) of dist(s, t) - 1
        betweenness_sum=float(sum(total - reached for reached, total in forward)),
        global_rh=_rh_pair_sum(n, desc, d, a),
        valid_delays=sum(x is not None for x in schedule.start_delay),
    )


def _bfs_sums(adjacency: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Per source: nodes reached and the sum of their hop distances."""
    out = []
    for source in range(len(adjacency)):
        seen = {source}
        frontier = [source]
        reached = total = hops = 0
        while frontier:
            hops += 1
            nxt = []
            for v in frontier:
                for w in adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            reached += len(nxt)
            total += hops * len(nxt)
            frontier = nxt
        out.append((reached, total))
    return out


def _closeness(sums: list[tuple[int, int]], n: int) -> np.ndarray:
    return np.array(
        [(r / (n - 1)) * (r / t) if r else 0.0 for r, t in sums], dtype=np.float64
    )


def _rh_pair_sum(n: int, desc: list[int], d: np.ndarray, a: np.ndarray) -> float:
    """RH summed pair by pair, without the program's expansion trick."""
    if n <= 2 or not d.any():
        return 0.0
    w = np.zeros(n)
    np.divide(1.0, np.sqrt(a), out=w, where=a > 0)
    nbytes = (n + 7) // 8
    raw = 0.0
    for i, bits in enumerate(desc):
        if bits:
            row = np.unpackbits(
                np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8),
                bitorder="little",
                count=n,
            )
            raw += float(np.sum((1.0 / math.sqrt(d[i]) - w[row.astype(bool)]) ** 2))
    return raw / (n - 2.0 * math.sqrt(n - 1))


def tail(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct reach fractions and how many nodes reach at least each one."""
    fractions = np.sort(counts / n)
    levels = np.unique(fractions)
    return levels, (len(fractions) - np.searchsorted(fractions, levels, side="left")).astype(np.int64)


def tail_csv(counts: np.ndarray, n: int) -> str:
    """The ``threshold,count`` staircase ``analyze`` must write for ``counts``."""
    lines = ["threshold,count"] + [f"{float(t)!r},{int(c)}" for t, c in zip(*tail(counts, n))]
    return "\n".join(lines) + "\n"


def close(actual: float, want: float, tol: float) -> bool:
    if math.isnan(actual) or math.isnan(want):
        return math.isnan(actual) and math.isnan(want)
    return abs(actual - want) <= tol * max(abs(want), abs(actual), 1e-300)


def _vector_problem(actual: np.ndarray, want: np.ndarray, tol: float | None) -> str | None:
    """First difference of two arrays; NaN equals NaN, floats within ``tol`` relative."""
    if actual.shape != want.shape:
        return f"shape {actual.shape} != {want.shape}"
    same = actual == want
    if actual.dtype.kind == "f" and want.dtype.kind == "f":
        same |= np.isnan(actual) & np.isnan(want)
        if tol is not None:
            with np.errstate(invalid="ignore", over="ignore"):
                scale = np.maximum(np.maximum(np.abs(actual), np.abs(want)), 1e-300)
                same |= np.abs(actual - want) <= tol * scale
    bad = np.flatnonzero(~same)
    if bad.size:
        i = int(bad[0])
        return f"{bad.size} values differ, first at {i}: {actual[i]!r} != {want[i]!r}"
    return None


def check_values(
    want: Expected,
    *,
    in_degree: np.ndarray,
    out_degree: np.ndarray,
    descendants: np.ndarray,
    ancestors: np.ndarray,
    closeness: np.ndarray,
    reverse_closeness: np.ndarray,
    betweenness: np.ndarray,
    global_rh: float,
) -> dict[str, str]:
    """Compare program outputs with the oracle; returns problems by field."""
    problems = {}
    for name, actual, want_values, tol in (
        ("in_degree", in_degree, want.in_degree, None),
        ("out_degree", out_degree, want.out_degree, None),
        ("descendants", descendants, want.descendants, None),
        ("ancestors", ancestors, want.ancestors, None),
        ("closeness", closeness, want.closeness, REL_TOL),
        ("reverse_closeness", reverse_closeness, want.reverse_closeness, REL_TOL),
    ):
        problem = _vector_problem(np.asarray(actual, dtype=np.float64), want_values.astype(np.float64), tol)
        if problem:
            problems[name] = problem
    total = float(betweenness.sum())
    if betweenness.min(initial=0.0) < 0 or not close(total, want.betweenness_sum, REL_TOL):
        problems["betweenness"] = f"sum {total!r} != sum of (distance - 1) {want.betweenness_sum!r}"
    if not close(global_rh, want.global_rh, REL_TOL):
        problems["global_rh"] = f"{global_rh!r} != pair-sum oracle {want.global_rh!r}"
    return problems


# ------------------------------------------------------- analyze artifacts


def manifest_digest(out_dir: Path) -> tuple[str, int, list[str]]:
    """Digest of the manifest, bytes in the directory and integrity problems.

    The manifest lists the sha256 of every other artifact, so once those are
    verified its own digest stands for the whole output.
    """
    files = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
    if "manifest.json" not in files:
        return "", sum(map(len, files.values())), ["manifest.json missing"]
    listed = {entry["path"]: entry["sha256"] for entry in json.loads(files["manifest.json"])["artifacts"]}
    problems = []
    for name, blob in sorted(files.items()):
        if name == "manifest.json":
            continue
        if name not in listed:
            problems.append(f"{name} not listed in manifest")
        elif hashlib.sha256(blob).hexdigest() != listed[name]:
            problems.append(f"{name} does not match its manifest digest")
    problems += [f"{name} listed but missing" for name in listed if name not in files]
    if set(files) != ANALYZE_FILES:
        problems.append(f"artifact set {sorted(files)} is not the full analyze set")
    digest = hashlib.sha256(files["manifest.json"]).hexdigest()
    return digest, sum(map(len, files.values())), problems


def check_analyze_output(schedule: Schedule, out_dir: Path) -> list[str]:
    """Oracle checks on one ``analyze`` output directory."""
    want = expected(schedule)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    problems = []
    net = manifest["network"]
    if (net["nodes"], net["dependencies"]) != (schedule.n, schedule.edges):
        problems.append(f"manifest network {net} != {schedule.n} nodes, {schedule.edges} edges")
    for which, counts in (("descendants", want.descendants), ("ancestors", want.ancestors)):
        if (out_dir / f"tail_{which}.csv").read_text() != tail_csv(counts, schedule.n):
            problems.append(f"tail_{which}.csv differs from the oracle staircase")

    with (out_dir / "metrics.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    if tuple(row["id"] for row in rows) != schedule.ids:
        return problems + ["metrics.csv rows are not the schedule's ids in order"]

    def column(name: str) -> np.ndarray:
        return np.array([float(row[name]) for row in rows])

    rh = json.loads((out_dir / "rh.json").read_text())
    mismatches = check_values(
        want,
        **{name: column(name) for name in ("in_degree", "out_degree", "descendants", "ancestors", "closeness", "reverse_closeness", "betweenness")},
        global_rh=float(rh["global"]),
    )
    problems += [f"{field}: {message}" for field, message in mismatches.items()]
    local = {entry["id"]: entry["value"] for entry in rh["local"]}
    if local.keys() != set(schedule.ids) or any(
        local[row["id"]] != float(row["local_rh"]) for row in rows
    ):
        problems.append("rh.json local values disagree with metrics.csv local_rh")

    bins = json.loads((out_dir / "bins.json").read_text())
    if sum(b["count"] for b in bins["bins"]) != want.valid_delays:
        problems.append("bins.json counts do not add up to the valid delays")
    bench = json.loads((out_dir / "benchmark.json").read_text())
    if sorted(m["rank"] for m in bench["metrics"]) != list(range(1, 9)):
        problems.append("benchmark.json ranks are not 1..8")
    if bench["n_bins"] != math.isqrt(want.valid_delays):
        problems.append(f"benchmark.json n_bins {bench['n_bins']} != floor(sqrt({want.valid_delays}))")
    return problems


# ----------------------------------------------------- stage summaries


def summarize_array(values: Any) -> dict[str, Any]:
    """dtype, shape and the sha256 of an array's bytes, for reference comparison.

    Integer and boolean arrays compare by digest alone. For float arrays the
    digest is a fast path: when it differs, :func:`summary_problems` compares
    the arrays themselves element by element within ``REL_TOL``.
    """
    array = np.ascontiguousarray(values)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
    }


def summary_problems(
    name: str,
    actual: Any,
    want: Any,
    actual_floats: Mapping[str, np.ndarray],
    want_floats: Mapping[str, np.ndarray],
) -> list[str]:
    """Differences between two summaries built from :func:`summarize_array`.

    ``name`` is the summary path (``stage.field``); the float arrays behind
    the summaries are looked up by that path in ``actual_floats`` and
    ``want_floats``.
    """
    if isinstance(want, dict):
        if not isinstance(actual, dict) or actual.keys() != want.keys():
            return [f"{name}: fields differ"]
        if "sha256" in want:
            if actual == want:
                return []
            if want["dtype"][1] != "f" or actual["dtype"] != want["dtype"]:
                return [f"{name}: {actual['dtype']} {actual['shape']} differs from {want['dtype']} {want['shape']}"]
            if name not in actual_floats or name not in want_floats:
                return [f"{name}: float values missing"]
            problem = _vector_problem(actual_floats[name], want_floats[name], REL_TOL)
            return [f"{name}: {problem}"] if problem else []
        return [
            p
            for key in want
            for p in summary_problems(f"{name}.{key}", actual[key], want[key], actual_floats, want_floats)
        ]
    if isinstance(want, list):
        if not isinstance(actual, list) or len(actual) != len(want):
            return [f"{name}: lengths differ"]
        return [
            p
            for i, (a, w) in enumerate(zip(actual, want))
            for p in summary_problems(f"{name}[{i}]", a, w, actual_floats, want_floats)
        ]
    if isinstance(want, float):
        return [] if close(float(actual), want, REL_TOL) else [f"{name}: {actual!r} != {want!r}"]
    return [] if actual == want else [f"{name}: {actual!r} != {want!r}"]
