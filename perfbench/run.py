"""Seeded benchmark for ``schednet analyze`` and the screening pipeline.

Usage, from any directory of a checkout:

    python3 perfbench/run.py --workload analyze-c7 [--seed 0] [--seconds 32] [--trace 0]

Workloads (see ``workloads.py`` for why each exists): ``analyze-c7``,
``screen-10k``, ``analyze-small-batch``.

A run sets the inputs up ``SETUP_REPEATS`` times, each in a fresh process
and a new directory, then measures passes over the first set-up's inputs
in one more fresh process for ``--seconds`` and checks every output
(``gate.py``). With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics. The last line of
standard output is the result object; the line before it carries the
workload fingerprint, machine facts, sample counts, the raw times and any
gate problems. A table of every metric with its unit goes to standard error.

Times are seconds at a reference speed of the host: each interval is
rescaled by how fast a fixed loop, sampled while it ran, went then
(``speed.py``). The host this was written on changes speed by up to 1.7x
in phases of seconds to minutes, which the raw times follow.

``--record`` runs the default seed and stores its fingerprint and output
digests in ``reference.json``, and the screening float arrays in
``reference.npz``, as the reference later runs must match.

Exit codes: 0 result printed, 1 set-up or measurement failed, 2 the
checkout has no schednet sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
REFERENCE_FLOATS = HERE / "reference.npz"
WORKLOADS = ("analyze-c7", "screen-10k", "analyze-small-batch")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# A set-up takes 0.2-3 s; the limit only stops one that hangs.
SETUP_TIMEOUT_S = 120

# One BLAS thread: on a small shared machine a second spinning BLAS thread
# made analyze-c7 both slower and noisier, and the result would otherwise
# depend on the core count.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "call_p50_s": "s",
    "call_p95_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# metric -> (span name, field) over the traced passes
SPAN_METRICS = {
    "heterogeneity.rh_local_all_s": ("heterogeneity.rh_local_all", "total"),
    "heterogeneity.rh_global_s": ("heterogeneity.rh_global", "total"),
    "heterogeneity.rh_global_calls": ("heterogeneity.rh_global", "calls"),
    "reachability.table_s": ("reachability.table", "total"),
    "reachability.table_calls": ("reachability.table", "calls"),
    "reachability.tail_s": ("reachability.tail", "total"),
    "metrics.betweenness_s": ("metrics.betweenness", "total"),
    "metrics.closeness_s": ("metrics.closeness", "total"),
    "metrics.metric_suite_s": ("metrics.metric_suite", "total"),
    "schedule_io.read_s": ("schedule_io.read", "total"),
    "network.build_s": ("network.build", "total"),
    "network.prune_s": ("network.prune", "total"),
    "network.components_s": ("network.components", "total"),
    "cli.analyze_s": ("cli.analyze", "total"),
    "cli.self_s": ("cli.analyze", "self"),
    "performance.delay_s": ("performance.delay", "total"),
    "performance.bin_s": ("performance.bin", "total"),
    "infoanalysis.mi_s": ("infoanalysis.mi", "total"),
}
# metric -> span name over the traced set-ups
SETUP_SPAN_METRICS = {
    "synthgen.generate_s": "synthgen.generate",
    "synthgen.simulate_s": "synthgen.simulate",
    "schedule_io.write_s": "schedule_io.write",
}
PER_LAYER = {
    **{name: ("count" if name.endswith("_calls") else "s") for name in SPAN_METRICS},
    "heterogeneity.rh_local_us_per_node": "us",
    "reachability.pairs": "count",
    "cli.artifact_bytes": "bytes",
    "performance.valid_delays": "count",
    **{name: "s" for name in SETUP_SPAN_METRICS},
    "trace.overhead_s": "s",
}
# oracle field -> screening stage that produced it
SCREEN_FIELDS = {
    "in_degree": "degree_metrics",
    "out_degree": "degree_metrics",
    "descendants": "reachability_table",
    "ancestors": "reachability_table",
    "closeness": "closeness",
    "reverse_closeness": "reverse_closeness",
    "betweenness": "betweenness",
    "global_rh": "rh_global",
}


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "schednet" / "__init__.py").is_file():
        print(f"error: no schednet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        args.seed, args.trace = DEFAULT_SEED, 0
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6f} {metric['unit']}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_nonnegative, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=_positive, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store the default seed's outputs as the reference")
    return parser


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def measure(workload: str, seed: int, seconds: float, trace: bool, record: bool) -> tuple[dict, dict]:
    machine = machine_facts()
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # Each set-up writes new files into a directory of its own: writing over
    # the files of the one before would time ext4's truncate writeback too.
    setups = [
        _child(work, f"setup-{k}", SETUP_TIMEOUT_S, "setup", workload, seed, work / f"set-{k}", int(trace))
        for k in range(SETUP_REPEATS)
    ]
    for k in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"set-{k}")
    workdir = work / "set-0"
    dirs = sorted((d for d in (workdir / "in").iterdir() if d.name != "warmup"), key=lambda d: int(d.name))
    schedules = [gate.read_schedule(*(d / name for name in gate.INPUT_FILES)) for d in dirs]
    fingerprint = gate.fingerprint(schedules, [d / name for d in dirs for name in gate.INPUT_FILES])
    problems = []
    if any(s["inputs_sha256"] != fingerprint["inputs_sha256"] for s in setups):
        problems.append("set-up repeats wrote different inputs")

    # passes end within ``seconds``; the last may run one pass long
    run_timeout = 2 * seconds + 60
    measured = _child(work, "run", run_timeout, "run", workload, workdir, seconds, int(trace))
    passes = measured["passes"]

    reference = None
    if seed == DEFAULT_SEED and not record:
        reference = json.loads(REFERENCE.read_text())["workloads"].get(workload)
        if reference is None:
            problems.append("no recorded reference for this workload")
        elif reference["fingerprint"] != fingerprint:
            problems.append(f"inputs changed: fingerprint {fingerprint} != recorded {reference['fingerprint']}")
            reference = None
    bad_ops, gate_problems = check_outputs(workload, workdir, schedules, passes, reference)
    problems += gate_problems
    attempted, failed = tally(passes, bad_ops)
    correct = failed == 0 and not problems

    if trace:
        metrics = layer_metrics(passes, setups, fingerprint)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "call_p50_s": call_percentile(passes, 50),
            "call_p95_s": call_percentile(passes, 95),
            "peak_rss_mb": measured["peak_rss_mb"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        units = END_TO_END
    if record:
        if not correct:
            raise BenchError(f"not recording a reference that fails the gate: {problems[:5]}")
        _record(workload, fingerprint, passes[0], workdir)

    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "fingerprint": fingerprint,
        "machine": machine,
        "samples": {
            "setups": len(setups),
            "passes": len(passes),
            "calls": sum(len(p["latencies"]) for p in passes),
            "pass_wall_s": [p["wall"] for p in passes],
            "pass_raw_wall_s": [p["raw_wall"] for p in passes],
            "setup_s": [s["setup_s"] for s in setups],
            "raw_setup_s": [s["raw_setup_s"] for s in setups],
        },
        "failed_frac": failed / attempted,
        "problems": problems[:20],
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "report.json").write_text(json.dumps({"report": report, "result": result}, indent=2))
    return report, result


def call_percentile(passes: list[dict], q: float) -> float:
    """The q-th percentile of call latency, or the median when too few calls lie beyond it.

    A percentile is reported only with at least ten calls beyond it; a run
    of analyze-c7 or screen-10k makes 4-6 calls, too few for a p95.
    """
    latencies = [t for p in passes for t in p["latencies"]]
    if len(latencies) * (100 - q) / 100 < 10:
        q = 50
    return float(np.percentile(latencies, q))


def tally(passes: list[dict], bad_ops: set[int]) -> tuple[int, int]:
    """Operations attempted and failed over all passes.

    An operation fails when it raised or exited non-zero, when its own
    output check found a problem, or when the gate marked its position bad.
    """
    attempted = sum(len(p["calls"]) for p in passes)
    failed = sum(
        bool(call["problems"]) or k in bad_ops for p in passes for k, call in enumerate(p["calls"])
    )
    return attempted, failed


def check_outputs(
    workload: str, workdir: Path, schedules: list[gate.Schedule], passes: list[dict], reference: dict | None
) -> tuple[set[int], list[str]]:
    """Operations whose output is wrong in every pass, and what was wrong.

    The first pass is the baseline: every later pass must reproduce it
    exactly, it must match the recorded reference when there is one, and
    the outputs left on disk must pass the oracle checks.
    """
    baseline = passes[0]
    bad: set[int] = set()
    problems: list[str] = []

    names = [call.get("op", f"call {k}") for k, call in enumerate(baseline["calls"])]

    def flag(k: int, message: str) -> None:
        bad.add(k)
        problems.append(f"{names[k]}: {message}")

    if workload == "screen-10k":
        stages = names
        summaries = baseline.get("summaries")
        if summaries is None:
            return bad, ["screening pass failed"]
        for p in passes[1:]:
            for k, stage in enumerate(stages):
                if p.get("summaries", {}).get(stage) != summaries[stage]:
                    flag(k, "output differs from the first pass")
        if reference is not None:
            with np.load(workdir / "floats.npz") as got, np.load(REFERENCE_FLOATS) as want:
                for k, stage in enumerate(stages):
                    for problem in gate.summary_problems(
                        stage, summaries[stage], reference["stages"][stage], got, want
                    ):
                        flag(k, problem)
        for field, message in _screen_oracle(schedules[0], workdir / "screen.npz", summaries).items():
            flag(stages.index(SCREEN_FIELDS.get(field, field)), message)
        return bad, problems

    digests = [call["digest"] for call in baseline["calls"]]
    for p in passes[1:]:
        for k, call in enumerate(p["calls"]):
            if call["digest"] != digests[k]:
                flag(k, "artifacts differ from the first pass")
    if reference is not None:
        for k, digest in enumerate(digests):
            if digest != reference["calls"][k]:
                flag(k, "artifacts differ from the recorded reference")
    for k, schedule in enumerate(schedules):
        if baseline["calls"][k]["problems"]:
            continue  # already failed; its output may not exist
        try:
            messages = gate.check_analyze_output(schedule, workdir / "out" / str(k))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            messages = [f"unreadable artifacts: {exc!r}"]
        for message in messages:
            flag(k, message)
    return bad, problems


def _screen_oracle(schedule: gate.Schedule, npz: Path, summaries: dict) -> dict[str, str]:
    want = gate.expected(schedule)
    with np.load(npz) as data:
        got = {name: data[name] for name in data.files}
    vectors = {k: got[k] for k in SCREEN_FIELDS if k != "global_rh"}
    out = gate.check_values(want, **vectors, global_rh=float(got["global_rh"]))
    if (summaries["load_network"]["n"], summaries["load_network"]["edges"]) != (schedule.n, schedule.edges):
        out["load_network"] = "network size differs from the input"
    for which, counts in (("descendants", want.descendants), ("ancestors", want.ancestors)):
        levels, at_least = gate.tail(counts, schedule.n)
        stage = f"tail_{which}"
        if summaries[stage] != {"thresholds": gate.summarize_array(levels), "frequency": gate.summarize_array(at_least)}:
            out[stage] = "tail distribution differs from the oracle"
    if summaries["start_delay"]["valid"] != gate.summarize_array(
        np.array([d is not None for d in schedule.start_delay])
    ) or summaries["start_delay"]["days"] != gate.summarize_array(
        np.array([d or 0 for d in schedule.start_delay], dtype=np.int64)
    ):
        out["start_delay"] = "start delays differ from the input dates"
    if int(got["bin_count"].sum()) != want.valid_delays:
        out["bin_by_metric"] = "bin counts do not add up to the valid delays"
    if summaries["benchmark_metrics"]["n_bins"] != math.isqrt(want.valid_delays):
        out["benchmark_metrics"] = "bin count is not floor(sqrt(valid delays))"
    return out


def layer_metrics(passes: list[dict], setups: list[dict], fingerprint: dict) -> dict[str, float]:
    """Per-layer values per pass (median over the traced passes)."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]

    def per_pass(value) -> float:
        return statistics.median(value(p) for p in traced)

    def span(p: dict, name: str, field: str) -> float:
        return p["trace"].get(name, {}).get(field, 0)

    metrics = {
        name: per_pass(lambda p, s=spec: span(p, *s)) for name, spec in SPAN_METRICS.items()
    }
    local_rh_nodes = fingerprint["nodes"] if metrics["heterogeneity.rh_local_all_s"] else 0
    metrics["heterogeneity.rh_local_us_per_node"] = (
        1e6 * metrics["heterogeneity.rh_local_all_s"] / local_rh_nodes if local_rh_nodes else 0.0
    )
    metrics["reachability.pairs"] = fingerprint["reachable_pairs"]
    metrics["cli.artifact_bytes"] = per_pass(lambda p: sum(call.get("bytes", 0) for call in p["calls"]))
    metrics["performance.valid_delays"] = fingerprint["valid_delays"]
    for name, span_name in SETUP_SPAN_METRICS.items():
        metrics[name] = statistics.median(s["trace"].get(span_name, {}).get("total", 0.0) for s in setups)
    metrics["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - statistics.median(
        p["wall"] for p in untraced
    )
    return metrics


def machine_facts() -> dict[str, Any]:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _child(workdir: Path, tag: str, timeout: float, *args: Any) -> dict:
    result_path = workdir / f"{tag}.json"
    command = [sys.executable, str(HERE / "child.py"), *map(str, args), str(result_path)]
    try:
        completed = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=timeout, env=CHILD_ENV)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} did not finish within {timeout} s") from exc
    if completed.returncode != 0:
        raise BenchError(f"{tag} exited with code {completed.returncode}")
    return json.loads(result_path.read_text())


def _record(workload: str, fingerprint: dict, first_pass: dict, workdir: Path) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"seed": DEFAULT_SEED, "workloads": {}}
    entry: dict[str, Any] = {"fingerprint": fingerprint}
    if workload == "screen-10k":
        entry["stages"] = first_pass["summaries"]
        with np.load(workdir / "floats.npz") as floats:
            np.savez_compressed(REFERENCE_FLOATS, **floats)
    else:
        entry["calls"] = [call["digest"] for call in first_pass["calls"]]
    data["workloads"][workload] = entry
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr)
    raise SystemExit(code)
