"""Command-line front end for schedule-network analysis.

Subcommands: ``validate``, ``analyze``, ``rh``, ``metrics``, ``bins``,
``benchmark``, ``generate``. Every run is deterministic: identical inputs
and flags produce byte-identical artifacts, and ``analyze`` and ``generate``
write a manifest listing a content digest for each emitted file.

Exit codes: 0 ok, 2 parse/input error, 3 dependency cycle, 4 network
empty after pruning, 5 not enough data for the requested analysis.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import re
import sys
import warnings
from dataclasses import fields
from datetime import date
from functools import cache, cached_property
from pathlib import Path
from typing import Any, Callable, Sequence

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
from .heterogeneity import rh_local_all
from .infoanalysis import BenchmarkReport, benchmark_metrics
from .metrics import METRIC_NAMES, MetricVector, metric_suite, metric_vector
from .network import ActivityNetwork, Dependency, prune_isolated, weakly_connected_components
from .performance import BIN_STATS, BinnedStats, DelayVector, bin_by_metric, end_delay, start_delay, suggest_bin_count
from .reachability import ReachabilityTable, reachability_table, tail_distribution, tail_distribution_csv
from .schedule_io import activities_csv, csv_text, dependencies_csv, load_network, network_to_json
from .synthgen import GeneratorConfig, NoiseSpec, PropagationConfig, generate_dag, simulate_delays

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CYCLE = 3
EXIT_EMPTY = 4
EXIT_NODATA = 5


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")
    with warnings.catch_warnings():
        warnings.showwarning = _log_warning
        try:
            return args.func(args)
        except (ScheduleParseError, DuplicateActivityId, UnknownActivityId, SelfLoop, OSError) as exc:
            return _fail(exc, EXIT_PARSE)
        except CycleDetected as exc:
            return _fail(exc, EXIT_CYCLE)
        except EmptyNetwork as exc:
            return _fail(exc, EXIT_EMPTY)
        except (NoValidDelays, InsufficientData, DegenerateConfig) as exc:
            return _fail(exc, EXIT_NODATA)


def entry() -> None:
    raise SystemExit(main())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schednet",
        description="Analyse project schedules as directed acyclic activity networks.",
    )
    parser.add_argument("--version", action="version", version=f"schednet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags that several subcommands read; each subcommand takes only those it reads.
    shared: dict[str, dict[str, Any]] = {
        "--out": dict(metavar="DIR", help="directory for emitted artifacts"),
        "--log-base": dict(
            choices=("e", "2"),
            default="e",
            help="logarithm base for mutual-information output (default: e, i.e. nats)",
        ),
        "--bins": dict(
            type=_bins_arg,
            default="auto",
            metavar="N|auto",
            help="bin count for delay-trend statistics (default: auto)",
        ),
        "--metric": dict(choices=("start", "end"), default="start", help="delay indicator to analyse (default: start)"),
    }

    def command(name: str, help_text: str, func: Callable[..., int], *flags: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        for flag in ("--out", *flags):
            cmd.add_argument(flag, **shared[flag])
        cmd.set_defaults(func=func)
        return cmd

    def schedule_command(name: str, help_text: str, func: Callable[..., int], *flags: str) -> argparse.ArgumentParser:
        cmd = command(name, help_text, func, *flags)
        cmd.add_argument("activities", help="activities CSV file")
        cmd.add_argument("dependencies", help="dependencies CSV file")
        return cmd

    schedule_command("validate", "parse, build and check a schedule; print network stats", cmd_validate)
    schedule_command(
        "analyze", "run the full pipeline and write every artifact", cmd_analyze, "--log-base", "--bins", "--metric"
    )
    schedule_command("rh", "global and per-node reachability-heterogeneity scores", _cmd_subset)
    schedule_command("metrics", "per-node metric suite as wide CSV", _cmd_subset)
    cmd = schedule_command("bins", "binned delay statistics along one metric", _cmd_subset, "--bins", "--metric")
    cmd.add_argument(
        "--by",
        choices=METRIC_NAMES,
        default="local_rh",
        help="metric defining the bin axis (default: local_rh)",
    )
    schedule_command(
        "benchmark", "mutual information of every metric vs the delay", _cmd_subset, "--log-base", "--metric"
    )

    cmd = command("generate", "write a synthetic schedule", cmd_generate)
    cmd.add_argument("--config", metavar="FILE", help="generator config as JSON")
    for key, parameter in GENERATE.items():
        cmd.add_argument(parameter.flag, dest=key, **parameter.settings)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built once: parsing leaves it as it was."""
    return build_parser()


# ---------------------------------------------------------------- commands


def cmd_validate(args: argparse.Namespace) -> int:
    run = _Run(args)
    for key, value in run.stats.items():
        print(f"{key}: {value}")
    print("acyclic: true")
    if args.out:
        report = _manifest("validate", run.inputs, {}, run.stats, {}, {})
        out_dir = _save(args.out, {"validate.json": _json(report)})
        print(f"report: {out_dir / 'validate.json'}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    run = _Run(args)
    try:
        run.delays
        has_delays = True
    except NoValidDelays:
        logger.warning("no actual %s dates in the schedule; skipping delay bins and benchmark", args.metric)
        has_delays = False
    texts = {name: render(run) for name, render in ARTIFACTS.items() if has_delays or name not in DELAY_ARTIFACTS}
    global_rh = rh_local_all(run.network).global_score.value
    results = {
        "global_rh": global_rh,
        "delay_bins": run.n_bins if has_delays else None,
        "benchmark_bins": run.report.n_bins if has_delays else None,
    }
    parameters = {
        "bins": args.bins,
        "log_base": args.log_base,
        "delay": args.metric,
        "seed": None,  # analyze reads no seed; the key keeps the bytes of every manifest digest recorded so far
    }
    manifest = _manifest("analyze", run.inputs, parameters, run.stats, results, texts)
    out_dir = _save(args.out or "schednet_out", {**texts, "manifest.json": _json(manifest)})
    print(f"global_rh: {_fmt(global_rh)}")
    print(f"artifacts: {len(texts) + 1} files in {out_dir}")
    return EXIT_OK


def _cmd_subset(args: argparse.Namespace) -> int:
    """Render the subcommand's artifacts; write them to ``--out`` or print the first."""
    run = _Run(args)
    names = SUBSETS[args.command]
    if not args.out:
        print(ARTIFACTS[names[0]](run), end="")
        return EXIT_OK
    out_dir = _save(args.out, {name: ARTIFACTS[name](run) for name in names})
    for name in names:
        print(f"wrote: {out_dir / name}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        values, sources, config, propagation = _generator_setup(args)
    except (ValueError, TypeError) as exc:
        return _fail(exc, EXIT_PARSE)
    noise = values["endogenous_noise"]
    planned = generate_dag(config)
    try:
        network = simulate_delays(planned, propagation, noise, config.seed)
    except OverflowError:  # the planned dates fit the calendar (``GeneratorConfig``), so the delays left it
        message = f"{sources['endogenous_noise']}: {noise} delays actual dates past {date.max}"
        return _fail(ValueError(message), EXIT_PARSE)
    ids = network.node_ids
    texts = {
        "activities.csv": activities_csv(network.nodes),
        "dependencies.csv": dependencies_csv([Dependency(ids[s], ids[t]) for s, t in network.edges]),
    }
    # the values that ran, in the forms --config reads, so the manifest's parameters reproduce the run
    parameters = {**values, "layer_width": config.widths(), "endogenous_noise": str(noise)}
    stats = {"nodes": network.n, "dependencies": len(network.edges)}
    manifest = _manifest("generate", {}, parameters, stats, {}, texts)
    out_dir = _save(args.out or "schednet_out", {**texts, "manifest.json": _json(manifest)})
    print(f"schedule: {network.n} activities, {len(network.edges)} dependencies -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- helpers


def _generator_setup(
    args: argparse.Namespace,
) -> tuple[dict[str, Any], dict[str, str], GeneratorConfig, PropagationConfig]:
    """Each parameter of ``GENERATE`` read once, from its ``--config`` key or else its flag, and that source.

    Errors name the source.
    """
    raw = _config(args.config)
    values: dict[str, Any] = {}
    sources: dict[str, str] = {}
    for key, parameter in GENERATE.items():
        value, sources[key] = getattr(args, key), parameter.flag
        if key in raw and not (key == "seed" and value is not None):  # a given --seed overrides the config's
            value, sources[key] = raw[key], f"{args.config}: {key}"
            ints = type(value) is not list or all(type(item) is int for item in value)
            if not (type(value) in parameter.forms and ints):
                raise ValueError(f"{sources[key]} must be {parameter.words}, got {json.dumps(value)}")
        try:
            values[key] = parameter.read(value)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{sources[key]}: {exc}") from None
    try:
        config = GeneratorConfig(**{field.name: values[field.name] for field in fields(GeneratorConfig)})
        propagation = PropagationConfig(**{field.name: values[field.name] for field in fields(PropagationConfig)})
    except ValueError as exc:  # the library names keys; name their sources instead
        raise ValueError(_KEYS.sub(lambda key: sources[key[0]], str(exc))) from None
    return values, sources, config, propagation


def _config(path: str | None) -> dict[str, Any]:
    """The ``--config`` file's JSON object, whose keys must all be keys of ``GENERATE``."""
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    for key in raw:
        if key not in GENERATE:
            raise ValueError(f"{path}: {key} is not a generate parameter; the keys are {', '.join(GENERATE)}")
    return raw


def _ints(value: Any) -> tuple[int, ...]:
    """The integers of a JSON list or a comma-separated text."""
    parts = value if isinstance(value, list) else str(value).split(",")
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise ValueError(f"expected integers separated by commas, got {json.dumps(value)}") from None


def _widths(value: Any) -> int | tuple[int, ...]:
    widths = _ints(value)
    return widths[0] if len(widths) == 1 else widths  # one width for every layer


class _Parameter:
    """A ``generate`` flag with its argparse ``settings``; ``read`` turns its value or its key's into the library's.

    A key's value must have a JSON type in ``forms``, named by ``words`` in an error (``int`` never takes true or
    false, and a list holds integers only).
    """

    def __init__(
        self, flag: str, forms: tuple[type, ...], words: str, read: Callable[[Any], Any] | None = None, **settings: Any
    ) -> None:
        self.flag, self.forms, self.words, self.settings = flag, forms, words, settings
        self.read = read or (lambda value: value)


# The parameters of ``generate`` by ``--config`` key, which is also the flag's dest, the manifest's key
# and the field name in ``GeneratorConfig`` or ``PropagationConfig``; --help lists them in this order.
GENERATE = {
    "seed": _Parameter(  # no default, so a given --seed can override the config's; neither given reads 0
        "--seed", (int,), "an integer", lambda value: value or 0, type=int, metavar="N", help="generator seed"
    ),
    "layer_count": _Parameter("--layers", (int,), "an integer", type=int, default=8, help="layer count (default: 8)"),
    "layer_width": _Parameter(
        "--width", (int, str, list), 'an integer, "W1,W2,..." or a list of integers', _widths,
        default="4", metavar="W|W1,W2,...", help="nodes per layer, single value or comma list (default: 4)",
    ),
    "edge_probability": _Parameter(
        "--edge-prob", (int, float), "a number", float, type=float, default=0.3, help="edge probability (default: 0.3)"
    ),
    "skip_depth": _Parameter(
        "--skip-depth", (int,), "an integer", type=int, default=1, help="max layer distance for edges"
    ),
    "base_duration_days": _Parameter(
        "--duration", (str, list), '"LO,HI" or a list of integers', _ints,
        default="1,10", metavar="LO,HI", help="planned duration range in days (default: 1,10)",
    ),
    "endogenous_noise": _Parameter(
        "--noise", (str,), "a string", NoiseSpec.parse,
        default="none", metavar="SPEC", help="endogenous noise: none, uniform:LO,HI or two_point:P,DAYS",
    ),
    "slack_days": _Parameter(
        "--slack", (int,), "an integer", type=int, default=0, help="slack days absorbed per dependency"
    ),
    "clamp_negative": _Parameter(
        "--no-clamp", (bool,), "true or false", action="store_false",
        help="allow activities to start before their planned date",
    ),
}
_KEYS = re.compile(r"\b(?:" + "|".join(GENERATE) + r")\b")  # the keys a library error may name


class _Run:
    """One schedule analysis whose stages are computed on first use and kept.

    A subcommand asks only for the artifacts it writes, so it computes only
    the stages those artifacts read.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args

    @cached_property
    def inputs(self) -> dict[str, dict[str, str]]:
        paths = {"activities": Path(self.args.activities), "dependencies": Path(self.args.dependencies)}
        return {key: {"path": str(path), "sha256": _sha256(path.read_bytes())} for key, path in paths.items()}

    @cached_property
    def raw(self) -> ActivityNetwork:
        self.inputs  # digest both files before parsing, so a missing one fails here first
        return load_network(self.args.activities, self.args.dependencies, prune=False)

    @cached_property
    def network(self) -> ActivityNetwork:
        return prune_isolated(self.raw)

    @cached_property
    def stats(self) -> dict[str, int]:
        components = weakly_connected_components(self.network)
        return {
            "nodes": self.network.n,
            "dependencies": len(self.network.edges),
            "weakly_connected_components": components.component_count,
            "largest_component": components.largest_component_size,
            "isolated_removed": self.raw.n - self.network.n,
        }

    @cached_property
    def table(self) -> ReachabilityTable:
        return reachability_table(self.network)

    @cached_property
    def rh_rows(self) -> tuple[list[str], list[float]]:
        """Node ids and their local RH, by descending value, ties by id; sorted on Python lists, not numpy scalars."""
        ids, values = list(self.network.node_ids), rh_local_all(self.network).values.tolist()
        order = sorted(range(len(ids)), key=lambda i: (-values[i], ids[i]))
        return [ids[i] for i in order], [values[i] for i in order]

    @cached_property
    def suite(self) -> list[MetricVector]:
        return metric_suite(self.network)

    @cached_property
    def delays(self) -> DelayVector:
        return start_delay(self.network) if self.args.metric == "start" else end_delay(self.network)

    @cached_property
    def axis(self) -> MetricVector:
        return metric_vector(self.network, getattr(self.args, "by", "local_rh"))  # analyze bins along local RH

    @cached_property
    def n_bins(self) -> int:
        if self.args.bins == "auto":
            return suggest_bin_count(self.axis, self.delays)
        return self.args.bins

    @cached_property
    def binned(self) -> BinnedStats:
        delays = self.delays  # a schedule without actual dates fails before the axis is computed
        return bin_by_metric(self.axis, delays, self.n_bins)

    @cached_property
    def report(self) -> BenchmarkReport:
        return benchmark_metrics(self.network, self.delays, suite=self.suite)


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


def _manifest(
    command: str,
    inputs: dict[str, dict[str, str]],
    parameters: dict[str, Any],
    network_stats: dict[str, int],
    results: dict[str, Any],
    texts: dict[str, str],
) -> dict[str, Any]:
    """The manifest of a run that writes ``texts``, each listed with its sha256 digest."""
    return {
        "tool": {"name": "schednet", "version": __version__},
        "command": command,
        "inputs": inputs,
        "parameters": parameters,
        "network": network_stats,
        "results": {key: _none_if_nan(value) for key, value in results.items()},
        "artifacts": [
            {"path": name, "sha256": _sha256(texts[name].encode("utf-8"))} for name in sorted(texts)
        ],
    }


def _metrics_csv(network: ActivityNetwork, suite: list[MetricVector]) -> str:
    columns = [network.node_ids, *(vector.values for vector in suite)]
    return _csv("id," + ",".join(vector.name for vector in suite), columns)


def _bin_rows(run: _Run) -> list[dict[str, Any]]:
    """One dict per bin: its edges, its count and its delay statistics (NaN when empty)."""
    stats = run.binned
    edges = stats.bin_edges
    return [
        {
            "lo": float(edges[b]),
            "hi": float(edges[b + 1]),
            "count": int(stats.count[b]),
            **{name: float(getattr(stats, name)[b]) for name in BIN_STATS},
        }
        for b in range(stats.n_bins)
    ]


def _bins_csv(run: _Run) -> str:
    stats = run.binned
    columns = [stats.bin_edges[:-1], stats.bin_edges[1:], stats.count, *(getattr(stats, name) for name in BIN_STATS)]
    return _csv("bin_lo,bin_hi,count," + ",".join(BIN_STATS), columns)


def _benchmark_rows(run: _Run) -> list[dict[str, Any]]:
    """Metric, MI in the ``--log-base`` unit and rank, in suite order."""
    factor = 1.0 / math.log(2.0) if run.args.log_base == "2" else 1.0
    return [
        {"metric": entry.metric, "mi": entry.mi * factor, "rank": entry.rank}
        for entry in run.report.entries
    ]


def _benchmark_csv(run: _Run) -> str:
    rows = _benchmark_rows(run)
    columns = [[row["metric"] for row in rows], *(np.array([row[key] for row in rows]) for key in ("mi", "rank"))]
    return _csv("metric,mi,rank", columns)


def _tail_csv(run: _Run, which: str) -> str:
    return tail_distribution_csv(tail_distribution(run.table, which, run.network.n))


# Every artifact ``analyze`` writes, in writing order, by file name.
ARTIFACTS: dict[str, Callable[[_Run], str]] = {
    "network.json": lambda run: _json(network_to_json(run.network)),
    "tail_descendants.csv": lambda run: _tail_csv(run, "descendants"),
    "tail_ancestors.csv": lambda run: _tail_csv(run, "ancestors"),
    "rh.json": lambda run: _json(
        {
            "global": rh_local_all(run.network).global_score.value,
            "local": [{"id": node_id, "value": value} for node_id, value in zip(*run.rh_rows)],
        }
    ),
    "rh.csv": lambda run: _csv("id,local_rh", [run.rh_rows[0], np.array(run.rh_rows[1])]),
    "metrics.csv": lambda run: _metrics_csv(run.network, run.suite),
    "bins.csv": _bins_csv,
    "bins.json": lambda run: _json(
        {
            "metric": run.axis.name,
            "delay": run.delays.kind,
            "bins": [{key: _none_if_nan(value) for key, value in row.items()} for row in _bin_rows(run)],
        }
    ),
    "benchmark.csv": _benchmark_csv,
    "benchmark.json": lambda run: _json(
        {"log_base": run.args.log_base, "n_bins": run.report.n_bins, "metrics": _benchmark_rows(run)}
    ),
}

# Artifacts that need actual dates; ``analyze`` skips them when there are none.
DELAY_ARTIFACTS = ("bins.csv", "bins.json", "benchmark.csv", "benchmark.json")

# What each subcommand writes; without ``--out`` it prints the first.
SUBSETS = {
    "rh": ("rh.json", "rh.csv"),
    "metrics": ("metrics.csv",),
    "bins": ("bins.csv", "bins.json"),
    "benchmark": ("benchmark.csv", "benchmark.json"),
}


def _none_if_nan(value: Any) -> Any:
    return None if isinstance(value, float) and math.isnan(value) else value


def _fmt(value: Any) -> str:
    """Lossless, compact, deterministic number formatting for CSV cells."""
    x = float(value)
    if math.isnan(x):
        return ""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(payload: dict[str, Any]) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, byte for byte; keys must be str.

    CPython encodes an indented dump in pure Python, so this writes the
    layout itself, with ``%s`` for each key and scalar, and encodes those
    in one compact ``json.dumps`` of a list, which runs on the C encoder.
    No encoded scalar holds ",\n", so that dump splits on it into them.
    """
    pieces: list[str] = []
    scalars: list[Any] = []
    _layout(payload, "\n", pieces, scalars)
    encoded = json.dumps(scalars, separators=(",\n", ":"))[1:-1].split(",\n") if scalars else []
    return "".join(pieces) % tuple(encoded) + "\n"


def _layout(value: Any, indent: str, pieces: list[str], scalars: list[Any]) -> None:
    """Append ``value``'s layout at ``indent`` (a newline and its spaces) to ``pieces``, and its scalars in order."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        opening = "{"
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            pieces.append(opening + inner + "%s: ")
            scalars.append(key)
            _layout(item, inner, pieces, scalars)
            opening = ","
        pieces.append(indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        rows = _rows(value, inner)
        if rows is not None:  # one layout for every item
            pieces.append("[" + inner + ("," + inner).join([rows[0]] * len(value)) + indent + "]")
            scalars += rows[1]
            return
        opening = "["
        for item in value:
            pieces.append(opening + inner)
            _layout(item, inner, pieces, scalars)
            opening = ","
        pieces.append(indent + "]")
    elif isinstance(value, dict):
        pieces.append("{}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[]")
    else:
        pieces.append("%s")
        scalars.append(value)


def _rows(items: Sequence[Any], indent: str) -> tuple[str, list[Any]] | None:
    """One layout for every item of ``items`` at ``indent``, and all their scalars in order; or None.

    There is one where every item is a dict with the same str keys, or
    every item a list of the same length, and no item holds a container.
    Like :func:`_csv`, this works on all cells at once, not cell by cell:
    one C-level pass, ``set(map(type, cells))``, checks that every cell's
    exact type is str, int, float, bool or NoneType. Where a cell has
    another type (a namedtuple or a numpy scalar, say), there is no layout,
    and :func:`_layout` lays the items out one by one.
    """
    first, inner = items[0], indent + "  "
    if type(first) is dict and first:
        keys = sorted(first)
        if not all(type(key) is str for key in keys) or not all(
            type(item) is dict and item.keys() == first.keys() for item in items
        ):
            return None
        names = [json.dumps(key).replace("%", "%%") for key in keys]
        layout = "{" + ",".join(inner + name + ": %s" for name in names) + indent + "}"
        cells = [item[key] for item in items for key in keys]
    elif type(first) is list and first:
        if not all(type(item) is list and len(item) == len(first) for item in items):
            return None
        layout = "[" + ",".join([inner + "%s"] * len(first)) + indent + "]"
        cells = [cell for item in items for cell in item]
    else:
        return None
    return (layout, cells) if set(map(type, cells)) <= _SCALARS else None


_SCALARS = {str, int, float, bool, type(None)}  # exact cell types that are never containers


def _csv(header: str, columns: Sequence[Sequence[Any]]) -> str:
    """CSV text by :func:`~schednet.schedule_io.csv_text`, rendered a column at a time, not cell by cell.

    A column is a numpy array of numbers or a sequence of str, written as
    it is. The number columns are formatted together by :func:`_numbers`,
    in whole-array passes by :func:`_fmt`'s rule, and the columns are
    zipped into rows at the end.
    """
    cells = list(columns)
    at = [i for i, column in enumerate(columns) if isinstance(column, np.ndarray)]
    if at:  # every number column in one pass
        texts, m = _numbers(np.concatenate([columns[i] for i in at])), len(columns[at[0]])
        for j, i in enumerate(at):
            cells[i] = texts[j * m:(j + 1) * m]
    return csv_text(header.split(","), list(zip(*cells)))


def _numbers(values: np.ndarray) -> list[str]:
    """:func:`_fmt` of every entry of ``values``, taken in whole-array passes.

    Entries that are integral and below 1e15 in absolute value print as
    ints, all through one ``astype(int64).tolist()``, so a column of them
    takes no ``repr``; every other entry prints as the ``repr`` of its
    float, and NaN as "". An infinite entry raises as it does in ``_fmt``.
    """
    x = np.asarray(values, dtype=np.float64)
    infinite = np.isinf(x)
    if infinite.any():
        _fmt(x[infinite][0])  # raises OverflowError
    whole = (x == np.trunc(x)) & (np.abs(x) < 1e15)
    if whole.all():
        return list(map(str, x.astype(np.int64).tolist()))
    cells = np.empty(len(x), dtype=object)
    cells[whole] = list(map(str, x[whole].astype(np.int64).tolist()))
    cells[~whole] = list(map(repr, x[~whole].tolist()))
    cells[np.isnan(x)] = ""
    return cells.tolist()


def _save(out: str, texts: dict[str, str]) -> Path:
    """Create ``out`` and write each rendered text into it.

    Every command renders all its texts first, so a failing stage leaves no ``out``.
    """
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8", newline="\n")
    return out_dir


def _log_warning(message: Warning | str, *_: Any) -> None:
    """Show a library warning as a log line, without its source location."""
    logger.warning("%s", message)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    entry()
