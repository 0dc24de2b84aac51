"""Command-line front end for schedule-network analysis.

Subcommands: ``validate``, ``analyze``, ``rh``, ``metrics``, ``bins``,
``benchmark``, ``generate``. Every run is deterministic: identical inputs
and flags produce byte-identical artifacts, and ``analyze`` writes a
manifest listing a content digest for each emitted file.

Exit codes: 0 ok, 2 parse/input error, 3 dependency cycle, 4 network
empty after pruning, 5 not enough data for the requested analysis.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .errors import (
    CycleDetected,
    DegenerateConfig,
    DuplicateActivityId,
    EmptyNetwork,
    InsufficientData,
    NoValidDelays,
    ScheduleParseError,
    SelfLoop,
    UnknownActivityId,
)
from .heterogeneity import LocalRHVector, rh_local_all
from .infoanalysis import BenchmarkReport, benchmark_metrics
from .metrics import METRIC_NAMES, MetricVector, metric_suite
from .network import (
    ActivityNetwork,
    Dependency,
    build_network,
    prune_isolated,
    weakly_connected_components,
)
from .performance import BinnedStats, DelayVector, bin_by_metric, end_delay, start_delay, suggest_bin_count
from .reachability import reachability_table, tail_distribution, tail_distribution_csv
from .schedule_io import (
    network_to_json,
    read_activities,
    read_dependencies,
    write_activities,
    write_dependencies,
)
from .synthgen import (
    GeneratorConfig,
    NoiseSpec,
    PropagationConfig,
    generate_dag,
    simulate_delays,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CYCLE = 3
EXIT_EMPTY = 4
EXIT_NODATA = 5


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")
    try:
        return args.func(args)
    except ScheduleParseError as exc:
        return _fail(exc, EXIT_PARSE)
    except (DuplicateActivityId, UnknownActivityId, SelfLoop) as exc:
        return _fail(exc, EXIT_PARSE)
    except CycleDetected as exc:
        return _fail(exc, EXIT_CYCLE)
    except EmptyNetwork as exc:
        return _fail(exc, EXIT_EMPTY)
    except (NoValidDelays, InsufficientData, DegenerateConfig) as exc:
        return _fail(exc, EXIT_NODATA)
    except OSError as exc:
        return _fail(exc, EXIT_PARSE)


def entry() -> None:
    raise SystemExit(main())


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="DIR", help="directory for emitted artifacts")
    common.add_argument(
        "--log-base",
        choices=("e", "2"),
        default="e",
        help="logarithm base for mutual-information output (default: e, i.e. nats)",
    )
    common.add_argument(
        "--bins",
        type=_bins_arg,
        default="auto",
        metavar="N|auto",
        help="bin count for delay-trend statistics (default: auto)",
    )
    common.add_argument("--seed", type=int, default=None, metavar="N", help="generator seed")
    common.add_argument(
        "--metric",
        choices=("start", "end"),
        default="start",
        help="delay indicator to analyse (default: start)",
    )

    parser = argparse.ArgumentParser(
        prog="schednet",
        description="Analyse project schedules as directed acyclic activity networks.",
    )
    parser.add_argument("--version", action="version", version=f"schednet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def schedule_command(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.add_argument("activities", help="activities CSV file")
        cmd.add_argument("dependencies", help="dependencies CSV file")
        return cmd

    cmd = schedule_command("validate", "parse, build and check a schedule; print network stats")
    cmd.set_defaults(func=cmd_validate)

    cmd = schedule_command("analyze", "run the full pipeline and write every artifact")
    cmd.set_defaults(func=cmd_analyze)

    cmd = schedule_command("rh", "global and per-node reachability-heterogeneity scores")
    cmd.set_defaults(func=_cmd_rh)

    cmd = schedule_command("metrics", "per-node metric suite as wide CSV")
    cmd.set_defaults(func=_cmd_metrics)

    cmd = schedule_command("bins", "binned delay statistics along one metric")
    cmd.add_argument(
        "--by",
        choices=METRIC_NAMES,
        default="local_rh",
        help="metric defining the bin axis (default: local_rh)",
    )
    cmd.set_defaults(func=_cmd_bins)

    cmd = schedule_command("benchmark", "mutual information of every metric vs the delay")
    cmd.set_defaults(func=_cmd_benchmark)

    cmd = sub.add_parser("generate", parents=[common], help="write a synthetic schedule")
    cmd.add_argument("--config", metavar="FILE", help="generator config as JSON")
    cmd.add_argument("--layers", type=int, default=8, help="layer count (default: 8)")
    cmd.add_argument(
        "--width",
        default="4",
        metavar="W|W1,W2,...",
        help="nodes per layer, single value or comma list (default: 4)",
    )
    cmd.add_argument("--edge-prob", type=float, default=0.3, help="edge probability (default: 0.3)")
    cmd.add_argument("--skip-depth", type=int, default=1, help="max layer distance for edges")
    cmd.add_argument(
        "--duration",
        default="1,10",
        metavar="LO,HI",
        help="planned duration range in days (default: 1,10)",
    )
    cmd.add_argument(
        "--noise",
        default="none",
        metavar="SPEC",
        help="endogenous noise: none, uniform:LO,HI or two_point:P,DAYS",
    )
    cmd.add_argument("--slack", type=int, default=0, help="slack days absorbed per dependency")
    cmd.add_argument(
        "--no-clamp",
        action="store_true",
        help="allow activities to start before their planned date",
    )
    cmd.set_defaults(func=cmd_generate)

    return parser


# ---------------------------------------------------------------- commands


def cmd_validate(args: argparse.Namespace) -> int:
    network, stats, inputs = _load_with_stats(args)
    for key in ("nodes", "dependencies", "weakly_connected_components", "largest_component", "isolated_removed"):
        print(f"{key}: {stats[key]}")
    print("acyclic: true")
    if args.out:
        out_dir = _ensure_dir(args.out)
        artifacts: list[tuple[str, str]] = []
        report = _manifest("validate", inputs, _parameters(args), stats, {}, artifacts)
        _write_json(out_dir / "validate.json", report, artifacts)
        print(f"report: {out_dir / 'validate.json'}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    out_dir = _ensure_dir(args.out or "schednet_out")
    network, stats, inputs = _load_with_stats(args)
    artifacts: list[tuple[str, str]] = []

    _write_json(out_dir / "network.json", network_to_json(network), artifacts)

    table = reachability_table(network)
    for which in ("descendants", "ancestors"):
        dist = tail_distribution(table, which, network.n)
        _write_text(out_dir / f"tail_{which}.csv", tail_distribution_csv(dist), artifacts)

    local = rh_local_all(network)
    _write_json(out_dir / "rh.json", _rh_payload(network, local), artifacts)
    _write_text(out_dir / "rh.csv", _rh_csv(network, local), artifacts)

    suite = metric_suite(network, local_rh=local)
    _write_text(out_dir / "metrics.csv", _metrics_csv(network, suite), artifacts)

    results: dict[str, Any] = {"global_rh": local.global_score.value}
    delays = _try_delays(network, args.metric)
    if delays is None:
        logger.warning(
            "no actual %s dates in the schedule; skipping delay bins and benchmark",
            args.metric,
        )
        results["delay_bins"] = None
        results["benchmark_bins"] = None
    else:
        axis = next(v for v in suite if v.name == "local_rh")
        n_bins = _resolve_bins(args.bins, axis, delays)
        stats_bins = bin_by_metric(axis, delays, n_bins)
        _write_text(out_dir / "bins.csv", _bins_csv(stats_bins), artifacts)
        _write_json(out_dir / "bins.json", _bins_payload(stats_bins, axis.name, delays.kind), artifacts)
        report = benchmark_metrics(network, delays, suite=suite)
        _write_text(out_dir / "benchmark.csv", _benchmark_csv(report, args.log_base), artifacts)
        _write_json(out_dir / "benchmark.json", _benchmark_payload(report, args.log_base), artifacts)
        results["delay_bins"] = n_bins
        results["benchmark_bins"] = report.n_bins

    manifest = _manifest("analyze", inputs, _parameters(args), stats, results, artifacts)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )
    print(f"global_rh: {_fmt(local.global_score.value)}")
    print(f"artifacts: {len(artifacts) + 1} files in {out_dir}")
    return EXIT_OK


def _cmd_rh(args: argparse.Namespace) -> int:
    network, _, _ = _load_with_stats(args)
    local = rh_local_all(network)
    payload = _rh_payload(network, local)
    if args.out:
        out_dir = _ensure_dir(args.out)
        artifacts: list[tuple[str, str]] = []
        _write_json(out_dir / "rh.json", payload, artifacts)
        _write_text(out_dir / "rh.csv", _rh_csv(network, local), artifacts)
        _print_artifacts(artifacts, out_dir)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    network, _, _ = _load_with_stats(args)
    text = _metrics_csv(network, metric_suite(network))
    if args.out:
        out_dir = _ensure_dir(args.out)
        artifacts: list[tuple[str, str]] = []
        _write_text(out_dir / "metrics.csv", text, artifacts)
        _print_artifacts(artifacts, out_dir)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_bins(args: argparse.Namespace) -> int:
    network, _, _ = _load_with_stats(args)
    delays = _delays(network, args.metric)
    suite = metric_suite(network)
    axis = next(v for v in suite if v.name == args.by)
    n_bins = _resolve_bins(args.bins, axis, delays)
    stats_bins = bin_by_metric(axis, delays, n_bins)
    text = _bins_csv(stats_bins)
    if args.out:
        out_dir = _ensure_dir(args.out)
        artifacts: list[tuple[str, str]] = []
        _write_text(out_dir / "bins.csv", text, artifacts)
        _write_json(out_dir / "bins.json", _bins_payload(stats_bins, axis.name, delays.kind), artifacts)
        _print_artifacts(artifacts, out_dir)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_benchmark(args: argparse.Namespace) -> int:
    network, _, _ = _load_with_stats(args)
    delays = _delays(network, args.metric)
    report = benchmark_metrics(network, delays)
    if args.out:
        out_dir = _ensure_dir(args.out)
        artifacts: list[tuple[str, str]] = []
        _write_text(out_dir / "benchmark.csv", _benchmark_csv(report, args.log_base), artifacts)
        _write_json(out_dir / "benchmark.json", _benchmark_payload(report, args.log_base), artifacts)
        _print_artifacts(artifacts, out_dir)
    else:
        print(_benchmark_csv(report, args.log_base), end="")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        config, propagation, noise = _generator_setup(args)
    except (ValueError, TypeError) as exc:
        return _fail(exc, EXIT_PARSE)
    network = generate_dag(config)
    network = simulate_delays(network, propagation, noise, config.seed)
    out_dir = _ensure_dir(args.out or "schednet_out")
    activities_path = out_dir / "activities.csv"
    dependencies_path = out_dir / "dependencies.csv"
    write_activities(activities_path, network.nodes)
    write_dependencies(dependencies_path, _edge_dependencies(network))
    artifacts = [
        ("activities.csv", _digest_file(activities_path)),
        ("dependencies.csv", _digest_file(dependencies_path)),
    ]
    manifest = _manifest(
        "generate",
        {},
        {
            "layer_count": config.layer_count,
            "layer_width": list(config.widths()),
            "edge_probability": config.edge_probability,
            "skip_depth": config.skip_depth,
            "seed": config.seed,
            "base_duration_days": list(config.base_duration_days),
            "noise": noise.kind,
            "slack_days": propagation.slack_days,
            "clamp_negative": propagation.clamp_negative,
        },
        {"nodes": network.n, "dependencies": len(network.edges)},
        {},
        artifacts,
    )
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )
    print(f"schedule: {network.n} activities, {len(network.edges)} dependencies -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- helpers


def _edge_dependencies(network: ActivityNetwork) -> list[Dependency]:
    ids = network.node_ids
    return [Dependency(ids[s], ids[t]) for s, t in network.edges]


def _generator_setup(args: argparse.Namespace) -> tuple[GeneratorConfig, PropagationConfig, NoiseSpec]:
    raw: dict[str, Any] = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    width_text = str(raw.get("layer_width", args.width))
    width: int | tuple[int, ...]
    if "," in width_text:
        width = tuple(int(w) for w in width_text.split(","))
    else:
        width = int(width_text)
    duration_text = raw.get("base_duration_days", args.duration)
    if isinstance(duration_text, str):
        lo, hi = (int(part) for part in duration_text.split(","))
    else:
        lo, hi = (int(part) for part in duration_text)
    noise = NoiseSpec.parse(str(raw.get("endogenous_noise", args.noise)))
    seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
    config = GeneratorConfig(
        layer_count=int(raw.get("layer_count", args.layers)),
        layer_width=width,
        edge_probability=float(raw.get("edge_probability", args.edge_prob)),
        skip_depth=int(raw.get("skip_depth", args.skip_depth)),
        seed=seed,
        base_duration_days=(lo, hi),
        endogenous_noise=noise,
    )
    propagation = PropagationConfig(
        slack_days=int(raw.get("slack_days", args.slack)),
        clamp_negative=bool(raw.get("clamp_negative", not args.no_clamp)),
    )
    return config, propagation, noise


def _load_with_stats(args: argparse.Namespace) -> tuple[ActivityNetwork, dict[str, int], dict[str, dict[str, str]]]:
    activities_path = Path(args.activities)
    dependencies_path = Path(args.dependencies)
    inputs = {
        "activities": {"path": str(activities_path), "sha256": _digest_file(activities_path)},
        "dependencies": {"path": str(dependencies_path), "sha256": _digest_file(dependencies_path)},
    }
    records = read_activities(activities_path)
    deps = read_dependencies(dependencies_path, known_ids={r.id for r in records})
    raw = build_network(records, deps)
    network = prune_isolated(raw)
    components = weakly_connected_components(network)
    stats = {
        "nodes": network.n,
        "dependencies": len(network.edges),
        "weakly_connected_components": components.component_count,
        "largest_component": components.largest_component_size,
        "isolated_removed": raw.n - network.n,
    }
    return network, stats, inputs


def _delays(network: ActivityNetwork, which: str) -> DelayVector:
    return start_delay(network) if which == "start" else end_delay(network)


def _try_delays(network: ActivityNetwork, which: str) -> DelayVector | None:
    try:
        return _delays(network, which)
    except NoValidDelays:
        return None


def _resolve_bins(bins: Any, axis: MetricVector, delays: DelayVector) -> int:
    if bins == "auto":
        return suggest_bin_count(axis, delays)
    return int(bins)


def _bins_arg(text: str) -> Any:
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("bin count must be >= 1")
    return value


def _parameters(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "bins": args.bins,
        "log_base": args.log_base,
        "delay": args.metric,
        "seed": args.seed,
    }


def _manifest(
    command: str,
    inputs: dict[str, dict[str, str]],
    parameters: dict[str, Any],
    network_stats: dict[str, int],
    results: dict[str, Any],
    artifacts: list[tuple[str, str]],
) -> dict[str, Any]:
    return {
        "tool": {"name": "schednet", "version": __version__},
        "command": command,
        "inputs": inputs,
        "parameters": parameters,
        "network": network_stats,
        "results": {key: _none_if_nan(value) for key, value in results.items()},
        "artifacts": [
            {"path": path, "sha256": digest} for path, digest in sorted(artifacts)
        ],
    }


def _rh_payload(network: ActivityNetwork, local: LocalRHVector) -> dict[str, Any]:
    order = sorted(range(network.n), key=lambda i: (-local.values[i], network.nodes[i].id))
    return {
        "global": local.global_score.value,
        "local": [
            {"id": network.nodes[i].id, "value": float(local.values[i])} for i in order
        ],
    }


def _rh_csv(network: ActivityNetwork, local: LocalRHVector) -> str:
    order = sorted(range(network.n), key=lambda i: (-local.values[i], network.nodes[i].id))
    lines = ["id,local_rh"]
    lines += [f"{network.nodes[i].id},{_fmt(local.values[i])}" for i in order]
    return "\n".join(lines) + "\n"


def _metrics_csv(network: ActivityNetwork, suite: list[MetricVector]) -> str:
    header = "id," + ",".join(vector.name for vector in suite)
    lines = [header]
    for i, rec in enumerate(network.nodes):
        lines.append(rec.id + "," + ",".join(_fmt(vector.values[i]) for vector in suite))
    return "\n".join(lines) + "\n"


def _bins_csv(stats: BinnedStats) -> str:
    lines = ["bin_lo,bin_hi,count,mean,median,q25,q75,q16,q84"]
    for b in range(stats.n_bins):
        lines.append(
            ",".join(
                [
                    _fmt(stats.bin_edges[b]),
                    _fmt(stats.bin_edges[b + 1]),
                    str(int(stats.count[b])),
                    _fmt(stats.mean[b]),
                    _fmt(stats.median[b]),
                    _fmt(stats.q25[b]),
                    _fmt(stats.q75[b]),
                    _fmt(stats.q16[b]),
                    _fmt(stats.q84[b]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _bins_payload(stats: BinnedStats, metric_name: str, delay_kind: str) -> dict[str, Any]:
    bins = []
    for b in range(stats.n_bins):
        bins.append(
            {
                "lo": float(stats.bin_edges[b]),
                "hi": float(stats.bin_edges[b + 1]),
                "count": int(stats.count[b]),
                "mean": _none_if_nan(stats.mean[b]),
                "median": _none_if_nan(stats.median[b]),
                "q25": _none_if_nan(stats.q25[b]),
                "q75": _none_if_nan(stats.q75[b]),
                "q16": _none_if_nan(stats.q16[b]),
                "q84": _none_if_nan(stats.q84[b]),
            }
        )
    return {"metric": metric_name, "delay": delay_kind, "bins": bins}


def _benchmark_csv(report: BenchmarkReport, log_base: str) -> str:
    factor = 1.0 / math.log(2.0) if log_base == "2" else 1.0
    lines = ["metric,mi,rank"]
    lines += [
        f"{entry.metric},{_fmt(entry.mi * factor)},{entry.rank}" for entry in report.entries
    ]
    return "\n".join(lines) + "\n"


def _benchmark_payload(report: BenchmarkReport, log_base: str) -> dict[str, Any]:
    factor = 1.0 / math.log(2.0) if log_base == "2" else 1.0
    return {
        "log_base": log_base,
        "n_bins": report.n_bins,
        "metrics": [
            {"metric": entry.metric, "mi": entry.mi * factor, "rank": entry.rank}
            for entry in report.entries
        ],
    }


def _none_if_nan(value: Any) -> Any:
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, np.floating):
        return _none_if_nan(float(value))
    return value


def _fmt(value: Any) -> str:
    """Lossless, compact, deterministic number formatting for CSV cells."""
    x = float(value)
    if math.isnan(x):
        return ""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _ensure_dir(path: str | Path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_text(path: Path, text: str, artifacts: list[tuple[str, str]]) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")
    artifacts.append((path.name, hashlib.sha256(text.encode("utf-8")).hexdigest()))


def _write_json(path: Path, payload: dict[str, Any], artifacts: list[tuple[str, str]]) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n", artifacts)


def _print_artifacts(artifacts: list[tuple[str, str]], out_dir: Path) -> None:
    for name, _ in artifacts:
        print(f"wrote: {out_dir / name}")


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code
