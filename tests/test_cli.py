"""End-to-end command-line behaviour: exit codes, artifacts, determinism."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import heapq
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schednet.cli
import schednet.heterogeneity
import schednet.metrics
import schednet.network
import schednet.reachability
from schednet import (
    Dependency,
    GeneratorConfig,
    NoiseSpec,
    PropagationConfig,
    generate_dag,
    load_network,
    metric_suite,
    simulate_delays,
    write_activities,
    write_dependencies,
)
from schednet.cli import main
from oracles import traced_peak

ACTIVITIES = """id,name,planned_start,planned_end,actual_start,actual_end
a,Dig,2021-01-01,2021-01-05,2021-01-02,2021-01-06
b,Pour,2021-01-06,2021-01-08,2021-01-07,2021-01-09
c,Cure,2021-01-09,2021-01-12,2021-01-08,2021-01-12
"""

DEPENDENCIES = """predecessor,successor
a,b
b,c
"""

NO_ACTUALS = """id,name,planned_start,planned_end,actual_start,actual_end
a,Dig,2021-01-01,2021-01-05,,
b,Pour,2021-01-06,2021-01-08,,
c,Cure,2021-01-09,2021-01-12,,
"""

ONE_ACTUAL = """id,name,planned_start,planned_end,actual_start,actual_end
a,Dig,2021-01-01,2021-01-05,2021-01-02,2021-01-06
b,Pour,2021-01-06,2021-01-08,,
c,Cure,2021-01-09,2021-01-12,,
"""


@pytest.fixture
def schedule_files(tmp_path):
    a = tmp_path / "activities.csv"
    d = tmp_path / "dependencies.csv"
    a.write_text(ACTIVITIES, encoding="utf-8")
    d.write_text(DEPENDENCIES, encoding="utf-8")
    return a, d


def c7_files(tmp_path):
    """The acceptance-c7 schedule (n=1208) with simulated actual dates."""
    config = GeneratorConfig(layer_count=40, layer_width=34, edge_probability=0.0169, skip_depth=2, seed=7)
    network = simulate_delays(
        generate_dag(config), PropagationConfig(slack_days=0), NoiseSpec.two_point(0.15, 10), seed=3
    )
    a, d = tmp_path / "activities.csv", tmp_path / "dependencies.csv"
    write_activities(a, network.nodes)
    write_dependencies(d, [Dependency(network.nodes[s].id, network.nodes[t].id) for s, t in network.edges])
    return a, d


def synth_files(tmp_path, seed=9):
    """A generated mid-size schedule with simulated actual dates."""
    out = tmp_path / f"synth{seed}"
    code = main(
        [
            "generate",
            "--out",
            str(out),
            "--layers",
            "12",
            "--width",
            "6",
            "--edge-prob",
            "0.2",
            "--skip-depth",
            "3",
            "--seed",
            str(seed),
            "--noise",
            "two_point:0.2,8",
        ]
    )
    assert code == 0
    return out / "activities.csv", out / "dependencies.csv"


class TestValidate:
    def test_path_schedule_stats(self, schedule_files, capsys):
        a, d = schedule_files
        assert main(["validate", str(a), str(d)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 3" in out
        assert "dependencies: 2" in out
        assert "weakly_connected_components: 1" in out
        assert "largest_component: 3" in out
        assert "acyclic: true" in out

    def test_cycle_exits_3_and_names_cycle(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        d = tmp_path / "d.csv"
        a.write_text(ACTIVITIES, encoding="utf-8")
        d.write_text("predecessor,successor\na,b\nb,a\n", encoding="utf-8")
        assert main(["validate", str(a), str(d)]) == 3
        err = capsys.readouterr().err
        assert "cycle" in err
        assert "a" in err and "b" in err

    def test_unknown_id_exits_2_with_line(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        d = tmp_path / "d.csv"
        a.write_text(ACTIVITIES, encoding="utf-8")
        d.write_text("predecessor,successor\na,b\nz,c\n", encoding="utf-8")
        assert main(["validate", str(a), str(d)]) == 2
        assert ":3:" in capsys.readouterr().err

    def test_everything_isolated_exits_4(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        d = tmp_path / "d.csv"
        a.write_text(ACTIVITIES, encoding="utf-8")
        d.write_text("predecessor,successor\n", encoding="utf-8")
        assert main(["validate", str(a), str(d)]) == 4

    def test_utf8_bom_inputs_load_and_are_digested_as_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        d = tmp_path / "d.csv"
        a.write_bytes(b"\xef\xbb\xbf" + ACTIVITIES.encode("utf-8"))
        d.write_bytes(b"\xef\xbb\xbf" + DEPENDENCIES.encode("utf-8"))
        out = tmp_path / "report"
        assert main(["validate", str(a), str(d), "--out", str(out)]) == 0
        assert "nodes: 3" in capsys.readouterr().out
        inputs = json.loads((out / "validate.json").read_text())["inputs"]
        for key, path in (("activities", a), ("dependencies", d)):
            assert inputs[key]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "no.csv"), str(tmp_path / "no2.csv")]) == 2

    def test_report_records_no_parameters(self, schedule_files, tmp_path):
        out = tmp_path / "report"
        assert main(["validate", *map(str, schedule_files), "--out", str(out)]) == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["parameters"] == {}
        assert report["artifacts"] == []

    @pytest.mark.parametrize("row", [b"\xff,x\n", b'"' + b"x" * 131_073 + b'",y\n'], ids=["undecodable", "oversized"])
    @pytest.mark.parametrize("broken", ["activities", "dependencies"])
    def test_unreadable_file_exits_2(self, schedule_files, capsys, broken, row):
        a, d = schedule_files
        path = a if broken == "activities" else d
        path.write_bytes(path.read_bytes() + row)
        assert main(["validate", str(a), str(d)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}")
        assert "Traceback" not in err


# The flags each subcommand reads besides --out, which every subcommand takes.
READS = {
    "validate": (),
    "analyze": ("--log-base", "--bins", "--metric"),
    "rh": (),
    "metrics": (),
    "bins": ("--bins", "--metric"),
    "benchmark": ("--log-base", "--metric"),
    "generate": ("--seed",),
}
FLAG_VALUES = {  # flag: (its argument, the attribute it sets, the parsed value)
    "--log-base": ("2", "log_base", "2"),
    "--bins": ("3", "bins", 3),
    "--metric": ("end", "metric", "end"),
    "--seed": ("9", "seed", 9),
}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("command", sorted(READS))
def test_subcommand_takes_only_the_flags_it_reads(command, flag, capsys):
    text, dest, value = FLAG_VALUES[flag]
    schedule = [] if command == "generate" else ["a.csv", "d.csv"]
    argv = [command, *schedule, "--out", "o", flag, text]
    if flag in READS[command]:
        args = schednet.cli.build_parser().parse_args(argv)
        assert (args.out, getattr(args, dest)) == ("o", value)
    else:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {text}" in capsys.readouterr().err


def test_the_kept_parser_gives_each_call_what_a_fresh_parser_gives(tmp_path):
    a, d = synth_files(tmp_path)
    calls = [
        ["analyze", str(a), str(d)],
        ["generate", "--layers", "4", "--seed", "3", "--noise", "uniform:0,2"],
        ["analyze", str(a), str(d), "--bins", "3", "--metric", "end", "--log-base", "2"],
    ]
    outputs = {}
    for run in "kept", "fresh":
        for k, argv in enumerate(calls):
            if run == "fresh":
                schednet.cli._parser.cache_clear()
            out = tmp_path / run / str(k)
            code = main([*argv, "--out", str(out)])
            outputs.setdefault(k, []).append((code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    for k, (kept, fresh) in outputs.items():
        assert kept[0] == 0 and kept == fresh, calls[k]
    for argv in calls:  # no flag of an earlier call reaches a later call's namespace
        assert vars(schednet.cli._parser().parse_args(argv)) == vars(schednet.cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("module", ["schednet", "schednet.cli"])
class TestPythonDashM:
    """``python -m schednet`` and ``python -m schednet.cli`` run the command line."""

    @staticmethod
    def run(module, *args, cwd):
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_version(self, module, tmp_path):
        result = self.run(module, "--version", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "schednet 0.1.0"

    def test_cycle_exits_3(self, module, tmp_path):
        (tmp_path / "a.csv").write_text(ACTIVITIES, encoding="utf-8")
        (tmp_path / "d.csv").write_text("predecessor,successor\na,b\nb,a\n", encoding="utf-8")
        result = self.run(module, "validate", "a.csv", "d.csv", cwd=tmp_path)
        assert result.returncode == 3
        assert "cycle" in result.stderr


NUMPY_ONLY = """
import sys

allowed = set(sys.stdlib_module_names) | {"numpy", "schednet"}


class RefuseThirdParty:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in allowed:
            raise ModuleNotFoundError(f"refused import of {name!r}", name=name)
        return None


sys.meta_path.insert(0, RefuseThirdParty())
from schednet import cli

sys.exit(cli.main(["analyze", *sys.argv[1:]]))
"""


def test_analyze_imports_nothing_but_numpy_and_the_standard_library(schedule_files, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, *map(str, schedule_files), "--out", str(tmp_path / "out")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "manifest.json").exists()


def assert_manifest_digests_match_files(out):
    """Check every artifact ``out/manifest.json`` lists against its file's sha256; return the manifest."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"]["name"] == "schednet"
    for artifact in manifest["artifacts"]:
        digest = hashlib.sha256((out / artifact["path"]).read_bytes()).hexdigest()
        assert digest == artifact["sha256"]
    return manifest


class TestAnalyze:
    def test_writes_full_artifact_set(self, tmp_path):
        a, d = synth_files(tmp_path)
        out = tmp_path / "report"
        assert main(["analyze", str(a), str(d), "--out", str(out)]) == 0
        expected = {
            "network.json",
            "tail_descendants.csv",
            "tail_ancestors.csv",
            "rh.json",
            "rh.csv",
            "metrics.csv",
            "bins.csv",
            "bins.json",
            "benchmark.csv",
            "benchmark.json",
            "manifest.json",
        }
        assert {p.name for p in out.iterdir()} == expected

    def test_manifest_digests_match_files(self, tmp_path):
        a, d = synth_files(tmp_path)
        out = tmp_path / "report"
        main(["analyze", str(a), str(d), "--out", str(out)])
        manifest = assert_manifest_digests_match_files(out)
        assert len(manifest["artifacts"]) == 10
        stats = manifest["network"]
        assert stats["nodes"] > 0 and stats["dependencies"] > 0

    def test_reruns_are_byte_identical(self, tmp_path):
        a, d = synth_files(tmp_path)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        main(["analyze", str(a), str(d), "--out", str(out1)])
        main(["analyze", str(a), str(d), "--out", str(out2)])
        for path in sorted(out1.iterdir()):
            assert path.read_bytes() == (out2 / path.name).read_bytes()

    def test_c7_sorts_once_and_builds_one_closure(self, tmp_path, monkeypatch):
        a, d = c7_files(tmp_path)
        counts = {"sorts": 0, "closures": 0}

        def heapify(heap):  # once per topological sort
            counts["sorts"] += 1
            heapq.heapify(heap)

        def table(*fields):  # once per closure build
            counts["closures"] += 1
            return table_type(*fields)

        table_type = schednet.reachability.ReachabilityTable
        monkeypatch.setattr(
            schednet.network, "heapq", SimpleNamespace(heapify=heapify, heappop=heapq.heappop, heappush=heapq.heappush)
        )
        monkeypatch.setattr(schednet.reachability, "ReachabilityTable", table)
        assert main(["analyze", str(a), str(d), "--out", str(tmp_path / "out")]) == 0
        assert counts == {"sorts": 1, "closures": 1}

    def test_c7_runs_one_local_rh_sweep(self, tmp_path, monkeypatch):
        a, d = c7_files(tmp_path)
        sweeps = []

        class Counted(schednet.heterogeneity._ReducedReach):
            def __init__(self, network):
                sweeps.append(network)
                super().__init__(network)

        monkeypatch.setattr(schednet.heterogeneity, "_ReducedReach", Counted)
        assert main(["analyze", str(a), str(d), "--out", str(tmp_path / "out")]) == 0
        assert len(sweeps) == 1

    def test_c7_runs_one_shortest_path_search(self, tmp_path, monkeypatch):
        a, d = c7_files(tmp_path)
        searches = []
        batches = schednet.metrics._batches

        def counted(n, reach):
            searches.append(n)
            return batches(n, reach)

        monkeypatch.setattr(schednet.metrics, "_batches", counted)  # sizes the batches once per search
        assert main(["analyze", str(a), str(d), "--out", str(tmp_path / "out")]) == 0
        assert len(searches) == 1

    def test_one_dated_activity_exits_5_and_writes_nothing(self, tmp_path):
        a, d = tmp_path / "a.csv", tmp_path / "d.csv"
        a.write_text(ONE_ACTUAL, encoding="utf-8")
        d.write_text(DEPENDENCIES, encoding="utf-8")
        assert main(["analyze", str(a), str(d), "--out", str(tmp_path / "out")]) == 5
        assert not (tmp_path / "out").exists()

    def test_missing_input_exits_2_and_writes_nothing(self, schedule_files, tmp_path):
        _, d = schedule_files
        assert main(["analyze", str(tmp_path / "missing.csv"), str(d), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_missing_actuals_skips_performance_outputs(self, tmp_path, capsys, caplog):
        a = tmp_path / "a.csv"
        d = tmp_path / "d.csv"
        a.write_text(NO_ACTUALS, encoding="utf-8")
        d.write_text(DEPENDENCIES, encoding="utf-8")
        out = tmp_path / "report"
        assert main(["analyze", str(a), str(d), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "rh.json" in names and "metrics.csv" in names
        assert "bins.csv" not in names and "benchmark.csv" not in names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["delay_bins"] is None

    def test_end_delay_flag(self, tmp_path):
        a, d = synth_files(tmp_path)
        out = tmp_path / "report"
        assert main(["analyze", str(a), str(d), "--out", str(out), "--metric", "end"]) == 0
        payload = json.loads((out / "bins.json").read_text())
        assert payload["delay"] == "end"

    def test_explicit_bin_count(self, tmp_path):
        a, d = synth_files(tmp_path)
        out = tmp_path / "report"
        assert main(["analyze", str(a), str(d), "--out", str(out), "--bins", "5"]) == 0
        rows = (out / "bins.csv").read_text().strip().splitlines()
        assert len(rows) == 6  # header + 5 bins


class TestRh:
    def test_stdout_payload_sorted_descending(self, schedule_files, capsys):
        a, d = schedule_files
        assert main(["rh", str(a), str(d)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["global"] == pytest.approx(1.0, abs=1e-12)
        values = [row["value"] for row in payload["local"]]
        assert values == sorted(values, reverse=True)

    def test_csv_variant(self, schedule_files, tmp_path):
        a, d = schedule_files
        out = tmp_path / "rh_out"
        assert main(["rh", str(a), str(d), "--out", str(out)]) == 0
        rows = (out / "rh.csv").read_text().strip().splitlines()
        assert rows[0] == "id,local_rh"
        assert len(rows) == 4

    def test_json_and_csv_sort_the_rows_once(self, schedule_files, tmp_path, monkeypatch):
        a, d = schedule_files
        sorts, rows = [], schednet.cli._Run.rh_rows.func
        monkeypatch.setattr(schednet.cli._Run.rh_rows, "func", lambda run: sorts.append(run) or rows(run))
        assert main(["rh", str(a), str(d), "--out", str(tmp_path / "out")]) == 0
        assert len(sorts) == 1


QUOTED_IDS = """id,name,planned_start,planned_end,actual_start,actual_end
"a,1",Dig,2021-01-01,2021-01-05,2021-01-02,2021-01-06
b,Pour,2021-01-06,2021-01-08,2021-01-07,2021-01-09
"c""x",Cure,2021-01-09,2021-01-12,2021-01-08,2021-01-12
"""

QUOTED_DEPENDENCIES = """predecessor,successor
"a,1",b
b,"c""x"
"""


def test_ids_that_need_quoting_read_back_from_rh_and_metrics_csv(tmp_path, capsys):
    a, d = tmp_path / "activities.csv", tmp_path / "dependencies.csv"
    a.write_text(QUOTED_IDS, encoding="utf-8")
    d.write_text(QUOTED_DEPENDENCIES, encoding="utf-8")
    assert main(["rh", str(a), str(d), "--out", str(tmp_path / "rh")]) == 0
    capsys.readouterr()
    assert main(["metrics", str(a), str(d)]) == 0
    texts = {2: (tmp_path / "rh" / "rh.csv").read_text(), 9: capsys.readouterr().out}
    for fields, text in texts.items():
        rows = list(csv.reader(text.splitlines(keepends=True)))
        assert [len(row) for row in rows] == [fields] * 4
        assert sorted(row[0] for row in rows[1:]) == ["a,1", "b", 'c"x']
    assert "\nb," in texts[9]  # an id that needs no quotes keeps its bytes


@pytest.mark.parametrize(
    "text, cell",
    [(text, text) for text in ("plain", " spaced ", "semi;colon", "tab\there", "it's", "")]
    + [("a,1", '"a,1"'), ('c"x', '"c""x"'), ("cr\rhere", '"cr\rhere"'), ("lf\nhere", '"lf\nhere"')],
)
def test_csv_quotes_a_string_only_where_it_holds_a_comma_quote_or_line_break(text, cell):
    written = schednet.cli._csv("id,x", [(text, 1.5)])
    assert written == f"id,x\n{cell},1.5\n"
    assert list(csv.reader(io.StringIO(written, newline=""))) == [["id", "x"], [text, "1.5"]]


class TestMetricsCommand:
    def test_csv_round_trips_exactly(self, tmp_path, capsys):
        a, d = synth_files(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(a), str(d)]) == 0
        text = capsys.readouterr().out
        rows = list(csv.DictReader(text.splitlines()))
        net = load_network(a, d)
        suite = {v.name: v for v in metric_suite(net)}
        assert len(rows) == net.n
        for row in rows:
            i = net.index_of[row["id"]]
            for name, vector in suite.items():
                assert float(row[name]) == vector.values[i]


class TestBinsCommand:
    def test_default_axis_is_local_rh(self, tmp_path, capsys):
        a, d = synth_files(tmp_path)
        capsys.readouterr()
        assert main(["bins", str(a), str(d), "--bins", "4"]) == 0
        text = capsys.readouterr().out
        rows = text.strip().splitlines()
        assert rows[0] == "bin_lo,bin_hi,count,mean,median,q25,q75,q16,q84"
        assert len(rows) == 5

    def test_alternate_axis(self, tmp_path, capsys):
        a, d = synth_files(tmp_path)
        capsys.readouterr()
        assert main(["bins", str(a), str(d), "--by", "ancestors", "--bins", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_no_actuals_exits_5(self, tmp_path):
        a = tmp_path / "a.csv"
        d = tmp_path / "d.csv"
        a.write_text(NO_ACTUALS, encoding="utf-8")
        d.write_text(DEPENDENCIES, encoding="utf-8")
        assert main(["bins", str(a), str(d)]) == 5


    def test_non_rh_axis_skips_local_rh(self, tmp_path, monkeypatch):
        a, d = synth_files(tmp_path)

        def forbidden(network):
            raise AssertionError("local RH computed for an axis that does not read it")

        monkeypatch.setattr(schednet.metrics, "rh_local_all", forbidden)
        monkeypatch.setattr(schednet.cli, "rh_local_all", forbidden)
        assert main(["bins", str(a), str(d), "--by", "in_degree"]) == 0


class TestBenchmarkCommand:
    def test_csv_shape(self, tmp_path, capsys):
        a, d = synth_files(tmp_path)
        capsys.readouterr()
        assert main(["benchmark", str(a), str(d)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "metric,mi,rank"
        assert len(rows) == 9
        ranks = sorted(int(row.rsplit(",", 1)[1]) for row in rows[1:])
        assert ranks == list(range(1, 9))

    def test_constant_delays_warn_through_logging(self, tmp_path, capsys, caplog):
        out = tmp_path / "quiet"
        flags = ["--layers", "6", "--width", "4", "--edge-prob", "0.4", "--seed", "2"]
        assert main(["generate", "--out", str(out), *flags]) == 0  # no --noise: every delay is equal
        capsys.readouterr()
        assert main(["benchmark", str(out / "activities.csv"), str(out / "dependencies.csv")]) == 0
        err = capsys.readouterr().err
        assert "DegenerateMetricWarning" not in err and "cli.py" not in err
        [record] = [r for r in caplog.records if r.levelname == "WARNING"]
        assert record.name == "schednet.cli"
        assert record.getMessage().startswith("every valid start delay is ")

    def test_log_base_two_rescales(self, tmp_path):
        a, d = synth_files(tmp_path)
        out_e = tmp_path / "nats"
        out_2 = tmp_path / "bits"
        main(["benchmark", str(a), str(d), "--out", str(out_e)])
        main(["benchmark", str(a), str(d), "--out", str(out_2), "--log-base", "2"])
        nats = json.loads((out_e / "benchmark.json").read_text())["metrics"]
        bits = json.loads((out_2 / "benchmark.json").read_text())["metrics"]
        for row_e, row_2 in zip(nats, bits):
            assert row_2["mi"] == pytest.approx(row_e["mi"] / math.log(2), rel=1e-12)
            assert row_2["rank"] == row_e["rank"]


@pytest.mark.parametrize(
    "command, names",
    [
        ("rh", ["rh.json", "rh.csv"]),
        ("metrics", ["metrics.csv"]),
        ("bins", ["bins.csv", "bins.json"]),
        ("benchmark", ["benchmark.csv", "benchmark.json"]),
    ],
)
def test_subcommand_artifacts_match_analyze(tmp_path, capsys, command, names):
    a, d = synth_files(tmp_path)
    full = tmp_path / "full"
    subset = tmp_path / command
    assert main(["analyze", str(a), str(d), "--out", str(full)]) == 0
    assert main([command, str(a), str(d), "--out", str(subset)]) == 0
    assert sorted(p.name for p in subset.iterdir()) == sorted(names)
    for name in names:
        assert (subset / name).read_bytes() == (full / name).read_bytes()
    capsys.readouterr()
    assert main([command, str(a), str(d)]) == 0
    assert capsys.readouterr().out == (full / names[0]).read_text(encoding="utf-8")


class TestGenerate:
    def test_output_loads_and_is_deterministic(self, tmp_path):
        a1, d1 = synth_files(tmp_path, seed=4)
        net = load_network(a1, d1)
        assert net.n > 10
        out2 = tmp_path / "again"
        main(
            [
                "generate",
                "--out",
                str(out2),
                "--layers",
                "12",
                "--width",
                "6",
                "--edge-prob",
                "0.2",
                "--skip-depth",
                "3",
                "--seed",
                "4",
                "--noise",
                "two_point:0.2,8",
            ]
        )
        assert (out2 / "activities.csv").read_bytes() == a1.read_bytes()
        assert (out2 / "dependencies.csv").read_bytes() == d1.read_bytes()

    def test_config_file(self, tmp_path):
        config = {
            "layer_count": 5,
            "layer_width": 3,
            "edge_probability": 0.6,
            "skip_depth": 2,
            "seed": 12,
            "base_duration_days": [2, 4],
            "endogenous_noise": "uniform:0,3",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        net = load_network(out / "activities.csv", out / "dependencies.csv")
        assert net.n > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 12

    def test_config_layer_width_list_matches_the_width_flag(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"layer_count": 3, "layer_width": [2, 3, 2]}), encoding="utf-8")
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "config")]) == 0
        assert main(["generate", "--layers", "3", "--width", "2,3,2", "--out", str(tmp_path / "flags")]) == 0
        for name in ("activities.csv", "dependencies.csv"):
            assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    def test_degenerate_config_exits_5(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--layers", "1", "--out", str(out)]) == 5

    @pytest.mark.parametrize(
        "flags",
        [["--layers", "0"], ["--noise", "bogus"], ["--width", "x"], ["--duration", "5"]],
    )
    def test_bad_generator_parameter_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "gen"
        assert main(["generate", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["{not json", '{"layer_count": [3]}', "[1, 2]", '"x"'])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text, encoding="utf-8")
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "gen")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value, code", [(False, 0), (True, 0), ("false", 2), (0, 2), (None, 2)])
    def test_config_clamp_negative_takes_only_a_json_boolean(self, tmp_path, capsys, value, code):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"layer_count": 4, "clamp_negative": value}), encoding="utf-8")
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "gen")]) == code
        if code:
            assert "clamp_negative must be true or false" in capsys.readouterr().err
        else:
            manifest = json.loads((tmp_path / "gen" / "manifest.json").read_text())
            assert manifest["parameters"]["clamp_negative"] is value

    @pytest.mark.parametrize(
        "key, value",
        [
            ("layer_count", 4.0),
            ("layer_count", "4"),
            ("layer_width", [2, True, 2]),
            ("edge_probability", "0.5"),
            ("skip_depth", True),
            ("seed", 1.7),
            ("seed", False),
            ("base_duration_days", [1.5, 4]),
            ("slack_days", 2.9),
        ],
    )
    def test_config_value_of_the_wrong_json_type_exits_2_naming_its_key(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"layer_count": 4, key: value}), encoding="utf-8")
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "gen")]) == 2
        assert f"error: {cfg_path}: {key} must be " in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    def test_config_forms_that_ran_are_recorded(self, tmp_path):
        config = {"layer_count": 3, "layer_width": "2,3,2", "edge_probability": 1, "base_duration_days": "2,4"}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "gen")]) == 0
        parameters = json.loads((tmp_path / "gen" / "manifest.json").read_text())["parameters"]
        assert parameters["layer_width"] == [2, 3, 2] and parameters["base_duration_days"] == [2, 4]
        assert parameters["edge_probability"] == 1.0 and isinstance(parameters["edge_probability"], float)

    def test_manifest_digests_match_files(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--layers", "5", "--noise", "two_point:0.2,8", "--out", str(out)]) == 0
        manifest = assert_manifest_digests_match_files(out)
        assert [artifact["path"] for artifact in manifest["artifacts"]] == ["activities.csv", "dependencies.csv"]
        assert sorted(p.name for p in out.iterdir()) == ["activities.csv", "dependencies.csv", "manifest.json"]

    @pytest.mark.parametrize(
        "flags, config, name",
        [
            (["--duration", "1"], None, "--duration"),
            (["--duration", "1,2,3"], None, "--duration"),
            ([], {"base_duration_days": []}, "base_duration_days"),
            ([], {"base_duration_days": [1, 2, 3]}, "base_duration_days"),
            ([], {"base_duration_days": "1"}, "base_duration_days"),
        ],
    )
    def test_a_duration_that_is_not_two_integers_exits_2_naming_its_key_or_flag(
        self, tmp_path, capsys, flags, config, name
    ):
        if config is not None:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            flags, name = ["--config", str(cfg_path)], f"{cfg_path}: {name}"
        assert main(["generate", *flags, "--out", str(tmp_path / "gen")]) == 2
        assert f"error: {name} must be two integers LO,HI, got " in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize(
        "flags, config, names",
        [
            (["--layers", "100000000000"], None, "--layers, --width and --skip-depth"),
            ([], {"layer_width": 100000, "layer_count": 3}, "{0}: layer_count, {0}: layer_width and --skip-depth"),
            ([], {"layer_width": 2**70}, "--layers, {0}: layer_width and --skip-depth"),
        ],
    )
    def test_an_oversized_config_exits_2_at_once_naming_its_keys_or_flags(self, tmp_path, capsys, flags, config, names):
        if config is not None:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            flags, names = ["--config", str(cfg_path)], names.format(cfg_path)
        codes, start = [], time.perf_counter()
        peak = traced_peak(lambda: codes.append(main(["generate", *flags, "--out", str(tmp_path / "gen")])))
        assert codes == [2]
        assert time.perf_counter() - start < 1.0 and peak < 1 << 20  # no draw, no tuple of layer widths
        err = capsys.readouterr().err
        assert err.startswith(f"error: {names} ask for ") and err.endswith(" random draws, more than 100,000,000\n")
        assert "Traceback" not in err and not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("spec", ["none", "uniform:-2,3", "two_point:0.2,8", "two_point:0.15,10"])
    def test_manifest_records_the_noise_spec_that_ran(self, tmp_path, spec):
        out = tmp_path / "gen"
        assert main(["generate", "--layers", "4", "--noise", spec, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert NoiseSpec.parse(manifest["parameters"]["endogenous_noise"]) == NoiseSpec.parse(spec)

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--layers", "12", "--width", "6", "--edge-prob", "0.2", "--skip-depth", "3", "--seed", "42",
              "--noise", "two_point:0.2,8"], None),  # the README's example
            ([], None),
            (["--layers", "3", "--width", "3,4,5"], None),
            (["--noise", "two_point:0.3,5", "--seed", "4"], None),
            (["--noise", "uniform:-2,3", "--slack", "2", "--no-clamp"], None),
            ([], {"layer_count": 3, "layer_width": [2, 3, 2], "base_duration_days": [2, 4], "edge_probability": 1}),
        ],
    )
    def test_the_manifest_parameters_fed_back_as_config_write_the_same_bytes(self, tmp_path, flags, config):
        if config is not None:
            (tmp_path / "first.json").write_text(json.dumps(config), encoding="utf-8")
            flags = ["--config", str(tmp_path / "first.json")]
        assert main(["generate", *flags, "--out", str(tmp_path / "run")]) == 0
        parameters = json.loads((tmp_path / "run" / "manifest.json").read_text())["parameters"]
        (tmp_path / "config.json").write_text(json.dumps(parameters), encoding="utf-8")
        assert main(["generate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "again")]) == 0
        for name in ("activities.csv", "dependencies.csv", "manifest.json"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name

    @pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize(
        "flag, text, value",
        [
            ("--noise", "uniform:nan,inf", "uniform:nan,inf"),
            ("--noise", "bogus", "bogus"),
            ("--noise", "uniform:3,1", "uniform:3,1"),
            ("--noise", "two_point:2,5", "two_point:2,5"),
            ("--noise", "two_point:x,5", "two_point:x,5"),
            ("--layers", "0", 0),
            ("--edge-prob", "2", 2),
            ("--slack", "-1", -1),
            ("--seed", "-1", -1),
            ("--skip-depth", "0", 0),
            ("--width", "0", 0),
            ("--width", "2,3", "2,3"),
            ("--duration", "5,1", [5, 1]),
            # past int64 in a draw, past the calendar's end in the planned and in the actual dates
            ("--duration", "1,99999999999999999999", [1, 99999999999999999999]),
            ("--noise", "uniform:0,99999999999999999999", "uniform:0,99999999999999999999"),
            ("--duration", "1,999999999", [1, 999999999]),
            ("--noise", "uniform:0,2000000", "uniform:0,2000000"),
        ],
    )
    def test_every_bad_value_names_its_flag_or_key(self, tmp_path, capsys, flag, text, value, as_config):
        (key,) = [key for key, parameter in schednet.cli.GENERATE.items() if parameter.flag == flag]
        argv, source = [f"{flag}={text}"], flag
        if as_config:
            (tmp_path / "config.json").write_text(json.dumps({key: value}), encoding="utf-8")
            argv, source = ["--config", str(tmp_path / "config.json")], f"{tmp_path / 'config.json'}: {key}"
        assert main(["generate", *argv, "--out", str(tmp_path / "gen")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source} ") or err.startswith(f"error: {source}: "), err
        assert not (tmp_path / "gen").exists()

    def test_an_unknown_config_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"layer_count": 4, "unknown": 1}), encoding="utf-8")
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "gen")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: unknown is not a generate parameter")
        assert not (tmp_path / "gen").exists()


# Values of generate's parameters, by config key. Layer counts and widths stay at 8 or below,
# or go past the draw limit, so no run draws more than a few thousand numbers.
GOOD_VALUES = {
    "seed": st.integers(0, 2**40),
    "layer_count": st.integers(1, 8),
    "layer_width": st.integers(1, 8),
    "edge_probability": st.floats(0.05, 1.0),
    "skip_depth": st.integers(1, 9),
    "base_duration_days": st.tuples(st.integers(1, 4), st.integers(4, 9)).map("{0[0]},{0[1]}".format),
    "endogenous_noise": st.sampled_from(["none", "uniform:-2,3", "two_point:0.3,5"]),
    "slack_days": st.integers(0, 5),
}
BAD_VALUES = {
    "seed": st.just(-1),
    "layer_count": st.sampled_from([-1, 0, 10**11]),
    "layer_width": st.sampled_from([0, 2**70, "2,3", "3,,2", "", "1e3"]),
    "edge_probability": st.sampled_from([0, 1.5, -0.5, math.inf, math.nan]),
    "skip_depth": st.sampled_from([0, -2]),
    "base_duration_days": st.sampled_from(["5,1", "1", "1,2,3", "0,4", "a,b"]),
    "endogenous_noise": st.sampled_from(["uniform:3,1", "two_point:2,5", "uniform:nan,inf"]) | st.text(max_size=12),
    "slack_days": st.just(-1),
}
# config values of the wrong JSON type, also the values of a key that is no parameter
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(-2, 10), st.text(max_size=6), st.lists(st.integers(-2, 8), max_size=4)
)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(data=st.data())
def test_generate_exits_with_a_documented_code_and_names_every_error(data):
    flags = data.draw(st.fixed_dictionaries({}, optional=GOOD_VALUES))
    config = data.draw(st.none() | st.fixed_dictionaries({}, optional={**GOOD_VALUES, "clamp_negative": st.booleans()}))
    if data.draw(st.booleans()):  # one bad value, as a flag or in the config
        key = data.draw(st.sampled_from(sorted(BAD_VALUES) + ["unknown"]))
        if config is not None and data.draw(st.booleans()):
            config[key] = data.draw(BAD_VALUES.get(key, ODD_VALUES) | ODD_VALUES)
        elif key != "unknown":
            flags[key] = data.draw(BAD_VALUES[key])
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["generate", "--out", f"{tmp}/gen", *(f"{schednet.cli.GENERATE[k].flag}={v}" for k, v in flags.items())]
        argv += ["--no-clamp"] if data.draw(st.booleans()) else []
        if config is not None:
            Path(tmp, "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", f"{tmp}/config.json"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 5)
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
