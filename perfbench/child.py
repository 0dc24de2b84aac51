"""Child process of the benchmark: writes a workload's inputs or runs its passes.

Started by ``run.py``, one fresh process per set-up and per measured run,
so import cost is paid in each set-up and ``ru_maxrss`` is the workload's
own peak:

    child.py setup WORKLOAD SEED WORKDIR TRACE RESULT_JSON
    child.py run WORKLOAD WORKDIR SECONDS TRACE RESULT_JSON

Every time is taken on ``speed.Sampler``'s clock, started before any other
import, and reported in seconds at the reference speed (see ``speed.py``);
each pass keeps its raw time as ``raw_wall``.
``setup`` times the schednet import plus input generation and CSV writing.
``run`` makes one untimed warm-up call on a tiny schedule, then repeats
passes over the inputs while another pass, as long as the last one, would
end within SECONDS of raw time; at least one pass always runs. Each pass
writes its outputs into a new ``out`` directory: the previous one is
deleted before the pass starts, outside its timing. Rewriting the files in
place would truncate them, and on ext4 (``auto_da_alloc``) closing a
truncated file starts its writeback, so the next pass waited on the disk
and its time followed the disk load of the host. With TRACE 1 the public
schednet functions are wrapped by ``spans.instrument``, passes alternate
between untraced and traced (at least one of each), and every traced pass
carries its span summary.
"""

from __future__ import annotations

import speed

SAMPLER = speed.Sampler()
SAMPLER.start()
START = SAMPLER.clock()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402  (imports schednet)


def setup(workload: str, seed: int, workdir: Path, trace: bool) -> dict:
    recorder = spans.Recorder(clock=SAMPLER.clock)
    if trace:
        spans.instrument(recorder)
    workloads.make_inputs(workload, seed, workdir)
    end = SAMPLER.clock()
    files = [workdir / d / name for d in workloads.input_dirs(workload) for name in gate.INPUT_FILES]
    return {
        "setup_s": SAMPLER.scaled(START, end),
        "raw_setup_s": end - START,
        "inputs_sha256": gate.inputs_digest(files),
        "trace": recorder.summary(duration=SAMPLER.scaled),
    }


def run(workload: str, workdir: Path, seconds: float, trace: bool) -> dict:
    os.chdir(workdir)
    recorder = spans.Recorder(clock=SAMPLER.clock, enabled=False)
    if trace:
        spans.instrument(recorder)
    run_pass = workloads.PASSES[workload]
    run_pass(["in/warmup"], recorder, SAMPLER.clock)
    dirs = workloads.input_dirs(workload)
    passes = []
    begin = SAMPLER.clock()
    while True:
        # with tracing, odd passes are traced and even ones are not, so slow
        # drift in machine speed affects both alike
        _fresh_outputs()
        recorder.enabled = traced = trace and len(passes) % 2 == 1
        mark = recorder.mark()
        result = run_pass(dirs, recorder, SAMPLER.clock)
        recorder.enabled = False
        result["traced"] = traced
        result["raw_wall"] = result["wall"]
        result["latencies"] = [SAMPLER.scaled(*stamp) for stamp in result.pop("stamps")]
        result["wall"] = sum(result["latencies"])
        if traced:
            result["trace"] = recorder.summary(mark, duration=SAMPLER.scaled)
        arrays, floats = result.pop("arrays", None), result.pop("floats", None)
        if arrays is not None and not passes:
            np.savez("screen.npz", **arrays)
            np.savez("floats.npz", **floats)
        passes.append(result)
        if len(passes) > trace and SAMPLER.clock() - begin + result["raw_wall"] > seconds:
            break  # another pass would end after the deadline
    if trace:
        recorder.write(Path("trace.json"))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"passes": passes, "peak_rss_mb": peak_mb}


def _fresh_outputs() -> None:
    """Delete the last pass's ``out`` directory, so this pass creates its files."""
    if os.path.isdir("out"):
        shutil.rmtree("out")


def main(argv: list[str]) -> int:
    role, workload, *rest = argv
    try:
        if role == "setup":
            seed, workdir, trace, result_path = rest
            result = setup(workload, int(seed), Path(workdir), trace == "1")
        elif role == "run":
            workdir, seconds, trace, result_path = rest
            result = run(workload, Path(workdir), float(seconds), trace == "1")
        else:
            raise SystemExit(f"unknown role {role!r}")
    finally:
        # a SIGPROF after the handler is gone, at interpreter exit, would kill the process
        SAMPLER.stop()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
