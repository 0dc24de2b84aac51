"""The three workloads: how their inputs are made and how one pass runs.

Why these three: each layer the roadmap plans to optimise does most of the
work in one workload and little or none in another, so a gain shows where
it should and a cost moved elsewhere shows too.

* ``analyze-c7``: one ``schednet analyze`` on the acceptance-c7 schedule
  (40 layers x 34, p=0.0169, skip 2, generator seed 7; n=1208, e=1485).
  Local RH on sparse cones is nearly all of the time.
* ``screen-10k``: the library pipeline without local RH on a 9.1k-node
  schedule (200 layers x 50, p=0.012, skip 2, generator seed 11; e=11976,
  2.44M reachable pairs). The Python BFS in ``metrics`` dominates the time
  and ``rh_global``'s dense n x n matrix sets the peak RSS. Local RH never
  runs, so a local-RH change must leave this workload unchanged.
* ``analyze-small-batch``: 200 ``analyze`` calls on small dense schedules
  (12 layers x 8, p=0.2, skip 3; n~96, deep cones). Fixed per-call costs
  (argparse, CSV parsing, JSON rendering, the sha256 manifest) are a large
  share, so per-call set-up added for the big cases shows here as a loss.

The workload seed picks the delay draws of the two single-schedule
workloads, whose topology is pinned: their cost depends on the topology,
which near the percolation threshold of these densities varies two-fold
between generator seeds. The batch averages 200 topologies, so there the
seed picks the topologies too. At the default seed 0 the inputs are the
schedules named above, with delay seed 3 as in acceptance c7.

This module imports schednet and runs only in the benchmark's child
processes.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

import schednet as sn
from schednet import cli
from schednet.network import Dependency

import gate

BATCH_CALLS = 200
DELAYS = sn.NoiseSpec.two_point(0.15, 10)
SMALL = dict(layer_count=12, layer_width=8, edge_probability=0.2, skip_depth=3)
TOPOLOGY = {
    "analyze-c7": dict(layer_count=40, layer_width=34, edge_probability=0.0169, skip_depth=2, seed=7),
    "screen-10k": dict(layer_count=200, layer_width=50, edge_probability=0.012, skip_depth=2, seed=11),
}
NAMES = ("analyze-c7", "screen-10k", "analyze-small-batch")


def input_dirs(workload: str) -> list[str]:
    """Input directories relative to the work directory, in call order."""
    count = BATCH_CALLS if workload == "analyze-small-batch" else 1
    return [f"in/{k}" for k in range(count)]


def make_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Generate the workload's schedules and write them as CSV under ``workdir``."""
    if workload == "analyze-small-batch":
        for k in range(BATCH_CALLS):
            call_seed = BATCH_CALLS * seed + k
            _write(_schedule(dict(SMALL, seed=call_seed), call_seed), workdir / f"in/{k}")
    else:
        _write(_schedule(TOPOLOGY[workload], 3 + seed), workdir / "in/0")
    _write(_schedule(dict(SMALL, seed=0), 0), workdir / "in/warmup")


def _schedule(config: dict[str, Any], delay_seed: int) -> sn.ActivityNetwork:
    network = sn.generate_dag(sn.GeneratorConfig(**config))
    return sn.simulate_delays(network, sn.PropagationConfig(slack_days=0), DELAYS, seed=delay_seed)


def _write(network: sn.ActivityNetwork, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    ids = network.node_ids
    sn.write_activities(directory / "activities.csv", network.nodes)
    sn.write_dependencies(directory / "dependencies.csv", [Dependency(ids[s], ids[t]) for s, t in network.edges])


# ------------------------------------------------------------------ passes


def analyze_pass(dirs: list[str], recorder: Any, clock: Callable[[], float] = time.perf_counter) -> dict[str, Any]:
    """One ``analyze`` call per input directory; outputs go to ``out/<k>``.

    Paths are relative to the work directory, which is the process's
    current directory, so the manifests (which record input paths) do not
    depend on where the checkout lives. ``stamps`` holds each call's start
    and end on ``clock``, ``latencies`` their differences.
    """
    stamps, calls = [], []
    for directory in dirs:
        out = "out/" + directory.split("/", 1)[1]
        argv = ["analyze", f"{directory}/activities.csv", f"{directory}/dependencies.csv", "--out", out]
        error = None
        start = clock()
        try:
            with recorder.span("cli.analyze"):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code, error = None, repr(exc)
        stamps.append((start, clock()))
        call: dict[str, Any] = {"code": code, "digest": "", "bytes": 0, "problems": []}
        if error is not None:
            call["problems"].append(error)
        elif code != 0:
            call["problems"].append(f"exit code {code}")
        else:
            call["digest"], call["bytes"], call["problems"] = gate.manifest_digest(Path(out))
        calls.append(call)
    latencies = [end - start for start, end in stamps]
    return {"wall": sum(latencies), "latencies": latencies, "stamps": stamps, "calls": calls}


SCREEN_STAGES = (
    "load_network", "reachability_table", "tail_descendants", "tail_ancestors", "rh_global",
    "degree_metrics", "betweenness", "closeness", "reverse_closeness", "start_delay",
    "bin_by_metric", "benchmark_metrics",
)
SUITE_STAGES = ("degree_metrics", "betweenness", "closeness", "reverse_closeness")


def screen_pass(dirs: list[str], recorder: Any, clock: Callable[[], float] = time.perf_counter) -> dict[str, Any]:
    """The screening pipeline: every stage of ``analyze`` except local RH.

    Each stage call is one operation. Once one fails, the later stages
    count as failed without running. Stage outputs are summarized after
    the timed region; the raw vectors are returned under ``arrays`` for the
    oracle check and every summarized float array under ``floats``, keyed
    by its summary path, for the element-wise reference check.

    ``metric_suite`` always runs local RH, so the pipeline calls the suite's
    members one by one instead and the ``metrics.metric_suite`` layer does
    not run here. ``recorder`` is unused: the wrapped schednet functions
    record their own spans. The whole pipeline is one latency on ``clock``.
    """
    directory = dirs[0]
    r: dict[str, Any] = {}
    steps = {
        "load_network": lambda: sn.load_network(f"{directory}/activities.csv", f"{directory}/dependencies.csv"),
        "reachability_table": lambda: sn.reachability_table(r["load_network"]),
        "tail_descendants": lambda: sn.tail_distribution(r["reachability_table"], "descendants", r["load_network"].n),
        "tail_ancestors": lambda: sn.tail_distribution(r["reachability_table"], "ancestors", r["load_network"].n),
        "rh_global": lambda: sn.rh_global(r["load_network"]),
        "degree_metrics": lambda: sn.degree_metrics(r["load_network"]),
        "betweenness": lambda: sn.betweenness(r["load_network"]),
        "closeness": lambda: sn.closeness(r["load_network"]),
        "reverse_closeness": lambda: sn.closeness(r["load_network"], reversed_edges=True),
        "start_delay": lambda: sn.start_delay(r["load_network"]),
        "bin_by_metric": lambda: sn.bin_by_metric(
            r["suite"][5], r["start_delay"], sn.suggest_bin_count(r["suite"][5], r["start_delay"])
        ),
        "benchmark_metrics": lambda: sn.benchmark_metrics(r["load_network"], r["start_delay"], suite=r["suite"]),
    }
    ops: list[dict[str, Any]] = []

    def run(stage: str) -> None:
        if any(op["problems"] for op in ops):
            ops.append({"op": stage, "problems": ["not run: an earlier stage failed"]})
            return
        try:
            r[stage] = steps[stage]()
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            ops.append({"op": stage, "problems": [repr(exc)]})
        else:
            ops.append({"op": stage, "problems": []})

    start = clock()
    for stage in SCREEN_STAGES[:9]:
        run(stage)
    if all(stage in r for stage in SUITE_STAGES):
        table = r["reachability_table"]
        r["suite"] = [
            *r["degree_metrics"], r["betweenness"], r["closeness"], r["reverse_closeness"],
            sn.MetricVector("descendants", table.descendant_counts.astype(np.float64)),
            sn.MetricVector("ancestors", table.ancestor_counts.astype(np.float64)),
        ]
    for stage in SCREEN_STAGES[9:]:
        run(stage)
    end = clock()
    result: dict[str, Any] = {"wall": end - start, "latencies": [end - start], "stamps": [(start, end)], "calls": ops}
    if not any(op["problems"] for op in ops):
        result["summaries"], result["arrays"], result["floats"] = _screen_outputs(r)
    return result


def _screen_outputs(r: dict[str, Any]) -> tuple[dict[str, Any], dict[str, np.ndarray], dict[str, np.ndarray]]:
    net, table = r["load_network"], r["reachability_table"]
    delays, stats, report = r["start_delay"], r["bin_by_metric"], r["benchmark_metrics"]
    floats: dict[str, np.ndarray] = {}

    def s(path: str, values: Any) -> dict[str, Any]:
        array = np.ascontiguousarray(values)
        if array.dtype.kind == "f":
            floats[path] = array
        return gate.summarize_array(array)

    summaries = {
        "load_network": {"n": net.n, "edges": len(net.edges)},
        "reachability_table": {
            "descendants": s("reachability_table.descendants", table.descendant_counts),
            "ancestors": s("reachability_table.ancestors", table.ancestor_counts),
            "pair_count": table.pair_count,
        },
        **{
            f"tail_{which}": {
                "thresholds": s(f"tail_{which}.thresholds", r[f"tail_{which}"].thresholds),
                "frequency": s(f"tail_{which}.frequency", r[f"tail_{which}"].frequency),
            }
            for which in ("descendants", "ancestors")
        },
        "rh_global": {"value": r["rh_global"].value, "pairs": r["rh_global"].pair_count},
        "degree_metrics": {v.name: s(f"degree_metrics.{v.name}", v.values) for v in r["degree_metrics"]},
        **{stage: s(stage, r[stage].values) for stage in ("betweenness", "closeness", "reverse_closeness")},
        "start_delay": {"days": s("start_delay.days", delays.days), "valid": s("start_delay.valid", delays.valid)},
        "bin_by_metric": {
            "count": s("bin_by_metric.count", stats.count),
            "edges": s("bin_by_metric.edges", stats.bin_edges),
            "stats": s(
                "bin_by_metric.stats",
                np.stack([stats.mean, stats.median, stats.q25, stats.q75, stats.q16, stats.q84]),
            ),
        },
        "benchmark_metrics": {
            "n_bins": report.n_bins,
            "entries": [[e.metric, e.mi, e.rank] for e in report.entries],
        },
    }
    arrays = {
        "in_degree": r["degree_metrics"][0].values,
        "out_degree": r["degree_metrics"][1].values,
        "descendants": table.descendant_counts,
        "ancestors": table.ancestor_counts,
        "closeness": r["closeness"].values,
        "reverse_closeness": r["reverse_closeness"].values,
        "betweenness": r["betweenness"].values,
        "global_rh": np.array(r["rh_global"].value),
        "bin_count": stats.count,
    }
    return summaries, arrays, floats


PASSES = {"analyze-c7": analyze_pass, "screen-10k": screen_pass, "analyze-small-batch": analyze_pass}
