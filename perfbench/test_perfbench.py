"""Self-tests of the benchmark: gate, span arithmetic, speed scaling, failure counting, inputs.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _tiny_inputs(workdir: Path, seeds: list[int]) -> list[gate.Schedule]:
    schedules = []
    for k, seed in enumerate(seeds):
        directory = workdir / "in" / str(k)
        workloads._write(workloads._schedule(dict(workloads.SMALL, seed=seed), seed), directory)
        schedules.append(gate.read_schedule(*(directory / name for name in gate.INPUT_FILES)))
    return schedules


def test_gate_flags_one_corrupted_artifact(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    schedules = _tiny_inputs(tmp_path, [5, 6])
    first = workloads.analyze_pass(["in/0", "in/1"], spans.Recorder(enabled=False))
    assert [call["problems"] for call in first["calls"]] == [[], []]
    reference = {"calls": [call["digest"] for call in first["calls"]]}
    assert run.check_outputs("analyze-c7", tmp_path, schedules, [first], reference) == (set(), [])

    # one descendant count of one node, in the second call's output only
    path = tmp_path / "out/1/metrics.csv"
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[6] = str(int(fields[6]) + 1)
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    digest, size, problems = gate.manifest_digest(tmp_path / "out/1")
    assert problems == ["metrics.csv does not match its manifest digest"]

    second = {"calls": [first["calls"][0], {"digest": digest, "bytes": size, "problems": problems}]}
    bad, messages = run.check_outputs("analyze-c7", tmp_path, schedules, [first, second], reference)
    assert bad == {1}
    assert any(m.startswith("call 1: descendants") for m in messages)
    assert run.tally([first, second], bad) == (4, 2)


def test_reference_mismatch_is_flagged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    schedules = _tiny_inputs(tmp_path, [7])
    first = workloads.analyze_pass(["in/0"], spans.Recorder(enabled=False))
    bad, messages = run.check_outputs("analyze-c7", tmp_path, schedules, [first], {"calls": ["0" * 64]})
    assert bad == {0}
    assert messages == ["call 0: artifacts differ from the recorded reference"]


def test_float_reference_is_compared_element_by_element():
    want = np.linspace(0.5, 2.0, 50)
    floats = {"closeness": want}
    summary = gate.summarize_array(want)

    def problems(actual: np.ndarray) -> list[str]:
        return gate.summary_problems("closeness", gate.summarize_array(actual), summary, {"closeness": actual}, floats)

    assert problems(want.copy()) == []
    assert problems(want * (1 + 1e-14)) == []  # digest differs, values within 1e-12
    swapped = want.copy()
    swapped[[3, 7]] = swapped[[7, 3]]  # same sum and extremes, two nodes wrong
    assert problems(swapped) == [f"closeness: 2 values differ, first at 3: {want[7]!r} != {want[3]!r}"]
    nudged = want.copy()
    nudged[10] *= 1 + 1e-10
    assert len(problems(nudged)) == 1


def test_call_p95_needs_ten_calls_beyond_it():
    few = [{"latencies": [1.0, 2.0, 3.0, 4.0, 100.0]}]
    assert run.call_percentile(few, 95) == run.call_percentile(few, 50) == 3.0
    many = [{"latencies": [float(k) for k in range(1, 201)]}]
    assert run.call_percentile(many, 95) == pytest.approx(190.05)


def test_self_time_on_a_synthetic_nested_trace():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 20.0, 21.0])
    recorder = spans.Recorder(clock=lambda: next(ticks))
    with recorder.span("root"):  # 0 .. 10
        with recorder.span("a"):  # 1 .. 4
            with recorder.span("leaf"):  # 2 .. 3
                pass
        with recorder.span("a"):  # 5 .. 9
            pass
    mark = recorder.mark()
    with recorder.span("root"):  # 20 .. 21
        pass
    assert recorder.summary() == {
        "root": {"total": 11.0, "self": 11.0 - 7.0, "calls": 2},
        "a": {"total": 7.0, "self": 6.0, "calls": 2},
        "leaf": {"total": 1.0, "self": 1.0, "calls": 1},
    }
    assert recorder.summary(mark) == {"root": {"total": 1.0, "self": 1.0, "calls": 1}}
    # spans whose parent precedes the window are charged to no one
    assert spans.summarize(recorder.spans[1:3], offset=1)["a"]["self"] == 2.0


def test_speed_scaling_on_synthetic_samples():
    sampler = speed.Sampler()
    sampler.times = [float(t) for t in range(30)]
    sampler.loop_s = [speed.REFERENCE_S] * 15 + [2 * speed.REFERENCE_S] * 15
    assert sampler.scaled(0.0, 2.0) == pytest.approx(2.0)  # samples 0..12, all at reference speed
    assert sampler.scaled(26.0, 27.0) == pytest.approx(0.5)  # samples 16..29, all at half speed
    # samples 0..22: the mean loop time of 15 fast and 8 slow ones, not their median
    assert sampler.scaled(10.0, 12.0) == pytest.approx(2.0 * 23 / (15 + 2 * 8))
    # spans scaled piecewise keep self = total - children
    summary = spans.summarize(
        [{"name": "a", "start": 0.0, "end": 2.0, "parent": None}, {"name": "b", "start": 26.0, "end": 27.0, "parent": 0}],
        duration=sampler.scaled,
    )
    assert summary["a"]["self"] == pytest.approx(2.0 - 0.5)
    with pytest.raises(RuntimeError):
        speed.Sampler().speed(0.0, 1.0)


def test_sampler_clock_leaves_out_sampling_time():
    sampler = speed.Sampler()
    started, clock_started = time.perf_counter(), sampler.clock()
    for _ in range(20):
        sampler._sample()
    assert len(sampler.loop_s) == len(sampler.times) == 20
    assert sampler.clock() - clock_started < 0.1 * (time.perf_counter() - started)
    assert sampler.times == sorted(sampler.times)


def test_failed_frac_counts_an_injected_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    schedules = _tiny_inputs(tmp_path, [1, 2, 3])
    deps = tmp_path / "in/1/dependencies.csv"
    first_edge = deps.read_text().splitlines()[1].split(",")
    with deps.open("a") as handle:  # a back edge makes a cycle: analyze exits 3
        handle.write(f"{first_edge[1]},{first_edge[0]}\n")
    result = workloads.analyze_pass(["in/0", "in/1", "in/2"], spans.Recorder(enabled=False))
    assert [call["code"] for call in result["calls"]] == [0, 3, 0]
    bad, _ = run.check_outputs("analyze-c7", tmp_path, schedules, [result], None)
    assert run.tally([result], bad) == (3, 1)


def test_screen_stage_failure_counts_every_stage_left(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _tiny_inputs(tmp_path, [4])

    def broken(network):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.sn, "betweenness", broken)
    result = workloads.screen_pass(["in/0"], spans.Recorder(enabled=False))
    failed = [op["op"] for op in result["calls"] if op["problems"]]
    assert failed == list(workloads.SCREEN_STAGES[6:])
    assert run.tally([result], set()) == (12, 6)


def test_traced_child_reports_nested_spans(tmp_path):
    _tiny_inputs(tmp_path, [8])
    _tiny_inputs(tmp_path / "warm", [9])
    (tmp_path / "warm/in/0").rename(tmp_path / "in/warmup")
    out = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "run", "analyze-c7", str(tmp_path), "0.001", "1", str(out)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    untraced, traced = json.loads(out.read_text())["passes"]
    assert not untraced["traced"] and "trace" not in untraced
    assert untraced["wall"] == sum(untraced["latencies"]) > 0 < untraced["raw_wall"]
    trace = traced["trace"]
    assert trace["cli.analyze"]["calls"] == 1
    assert trace["reachability.table"]["calls"] == 2  # cli and metric_suite each build one
    assert trace["heterogeneity.rh_global"]["calls"] == 1  # inside rh_local_all
    assert 0 < trace["cli.analyze"]["self"] < trace["cli.analyze"]["total"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_default_seed_reproduces_recorded_fingerprint(tmp_path, workload):
    recorded = json.loads(run.REFERENCE.read_text())["workloads"][workload]["fingerprint"]

    def fingerprint(seed: int) -> dict:
        workdir = tmp_path / str(seed)
        workloads.make_inputs(workload, seed, workdir)
        dirs = [workdir / d for d in workloads.input_dirs(workload)]
        schedules = [gate.read_schedule(*(d / name for name in gate.INPUT_FILES)) for d in dirs]
        return gate.fingerprint(schedules, [d / name for d in dirs for name in gate.INPUT_FILES])

    assert fingerprint(run.DEFAULT_SEED) == recorded
    assert fingerprint(run.DEFAULT_SEED + 1)["inputs_sha256"] != recorded["inputs_sha256"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
