"""In-memory span recorder and the wrappers that feed it.

A span is one call across a layer boundary: its name, start, end and the
span that was open when it began. Spans stay in memory while the
benchmark runs and are written out once, when it ends. Self time is a
span's duration minus the durations of its direct children; calls run on
one thread, so children never overlap.

Tracing wraps public schednet functions from outside: every module of the
package that holds a reference to a target function (the defining module,
each module that imported the name, and the package namespace) gets the
wrapper, so internal calls such as ``metrics.reachability_table`` are
traced as well as the benchmark's own calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

# (defining module, function name) -> span name. Several functions may share
# a span name when together they make up one layer operation.
TARGETS: dict[tuple[str, str], str] = {
    ("schednet.schedule_io", "read_activities"): "schedule_io.read",
    ("schednet.schedule_io", "read_dependencies"): "schedule_io.read",
    ("schednet.schedule_io", "write_activities"): "schedule_io.write",
    ("schednet.schedule_io", "write_dependencies"): "schedule_io.write",
    ("schednet.network", "build_network"): "network.build",
    ("schednet.network", "prune_isolated"): "network.prune",
    ("schednet.network", "weakly_connected_components"): "network.components",
    ("schednet.reachability", "reachability_table"): "reachability.table",
    ("schednet.reachability", "tail_distribution"): "reachability.tail",
    ("schednet.heterogeneity", "rh_global"): "heterogeneity.rh_global",
    ("schednet.heterogeneity", "rh_local_all"): "heterogeneity.rh_local_all",
    ("schednet.metrics", "betweenness"): "metrics.betweenness",
    ("schednet.metrics", "closeness"): "metrics.closeness",
    ("schednet.metrics", "metric_suite"): "metrics.metric_suite",
    ("schednet.performance", "start_delay"): "performance.delay",
    ("schednet.performance", "end_delay"): "performance.delay",
    ("schednet.performance", "suggest_bin_count"): "performance.bin",
    ("schednet.performance", "bin_by_metric"): "performance.bin",
    ("schednet.infoanalysis", "benchmark_metrics"): "infoanalysis.mi",
    ("schednet.synthgen", "generate_dag"): "synthgen.generate",
    ("schednet.synthgen", "simulate_delays"): "synthgen.simulate",
}


Duration = Callable[[float, float], float] | None


def _elapsed(start: float, end: float) -> float:
    return end - start


class Recorder:
    """Collects spans; ``clock`` is injectable for tests.

    While ``enabled`` is false, spans are not recorded and the wrapped
    functions call straight through.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, enabled: bool = True) -> None:
        self.clock = clock
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": self.clock(), "end": None, "parent": parent}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = self.clock()

    def mark(self) -> int:
        """Position to pass to :meth:`summary` for spans recorded after now."""
        return len(self.spans)

    def summary(self, since: int = 0, duration: Duration = None) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count."""
        return summarize(self.spans[since:], offset=since, duration=duration)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}))


def summarize(
    spans: list[dict[str, Any]], offset: int = 0, duration: Duration = None
) -> dict[str, dict[str, float]]:
    """Aggregate spans by name; ``offset`` is the index of ``spans[0]``.

    ``duration(start, end)`` gives a span's seconds, ``end - start`` by
    default. A child whose parent lies before ``offset`` is charged to no
    one here.
    """
    seconds = [(duration or _elapsed)(span["start"], span["end"]) for span in spans]
    child_time = [0.0] * len(spans)
    for span, own in zip(spans, seconds):
        parent = span["parent"]
        if parent is not None and parent >= offset:
            child_time[parent - offset] += own
    out: dict[str, dict[str, float]] = {}
    for span, own, children in zip(spans, seconds, child_time):
        entry = out.setdefault(span["name"], {"total": 0.0, "self": 0.0, "calls": 0})
        entry["total"] += own
        entry["self"] += own - children
        entry["calls"] += 1
    return out


def instrument(recorder: Recorder) -> None:
    """Wrap every loaded schednet reference to each function in :data:`TARGETS`."""
    modules = [m for name, m in sys.modules.items() if name == "schednet" or name.startswith("schednet.")]
    for (module_name, attr), span_name in TARGETS.items():
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(recorder, original, span_name)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)


def _wrap(recorder: Recorder, fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not recorder.enabled:
            return fn(*args, **kwargs)
        with recorder.span(name):
            return fn(*args, **kwargs)

    return traced
