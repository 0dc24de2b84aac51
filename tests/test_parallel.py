"""The fork helper every split stage uses: failures, the conditions to split, CPU pinning and the stream."""

from __future__ import annotations

import io
import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from schednet import GeneratorConfig, generate_dag, metrics, parallel, rh_global, rh_local_all
from schednet import heterogeneity
from schednet.network import ActivityNetwork
from oracles import forced_split, screening_network
from rh_bits import NETWORKS

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split stages fork")

# (module, its split threshold, the function that does one piece of a range, the vector kept on the network or None)
CALLERS = {
    "local RH": (heterogeneity, "_SPLIT_NODES", "_fill", "_local"),
    "global RH": (heterogeneity, "_SPLIT_ROWS", "_blocks", None),
    "shortest paths": (metrics, "_SPLIT_PAIRS", "_search", "_paths"),
}
# a child killed while it sends this record (0-based): the search's 3 is inside its second batch, after the
# parent has added the first batch's dependencies to the scores
KILL_AT = {"local RH": 0, "global RH": 0, "shortest paths": 3}


def network(caller):
    if caller == "local RH":
        return NETWORKS["sparse"]()
    if caller == "global RH":
        return screening_network()
    # n=1560, 43 batches at the default limits
    return generate_dag(GeneratorConfig(layer_count=40, layer_width=40, edge_probability=0.015, skip_depth=3, seed=13))


def values(caller, net):
    if caller == "local RH":
        return rh_local_all(net).values.tobytes()
    if caller == "global RH":
        return np.float64(rh_global(net).value).tobytes()
    return b"".join(vector.values.tobytes() for vector in metrics._paths(net))


def fresh(net):
    """A copy of ``net`` that keeps nothing yet."""
    return ActivityNetwork(net.nodes, net.edges)


def run(caller, net, threshold=0, cpus=2):
    """The caller's output bytes on ``net`` under a threshold and a CPU count, and the forks made.

    The defaults split every network between two processes.
    """
    module, name, _, _ = CALLERS[caller]
    with forced_split(module, name, threshold, cpus) as forks:
        out = values(caller, net)
    return out, len(forks)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=list(CALLERS))
def caller(request):
    return request.param


@pytest.fixture
def case(caller):
    """The caller, its network and its one-process bytes."""
    net = network(caller)
    return caller, net, run(caller, fresh(net), math.inf)[0]


class TestSplitFailures:
    """Whatever fails, the output keeps its one-process bytes and no child is left."""

    def test_a_child_that_raises(self, case, monkeypatch):
        caller, net, expected = case
        parent, send = os.getpid(), parallel._send

        def failing(out, array):
            if os.getpid() != parent:
                raise RuntimeError("child failed")
            send(out, array)

        monkeypatch.setattr(parallel, "_send", failing)
        assert run(caller, fresh(net)) == (expected, 1)
        assert_no_child_left()

    def test_a_child_killed_mid_stream(self, case, monkeypatch):
        caller, net, expected = case
        sent, send = [], parallel._send

        def killed(out, array):
            if len(sent) == KILL_AT[caller]:
                out.write(parallel._HEAD.pack(array.nbytes, array.dtype.str.encode()))
                out.write(array.tobytes()[: array.nbytes // 2])
                out.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            sent.append(array)
            send(out, array)

        monkeypatch.setattr(parallel, "_send", killed)
        assert run(caller, fresh(net)) == (expected, 1)
        assert_no_child_left()

    def test_a_refused_fork(self, case, monkeypatch):
        caller, net, expected = case

        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        assert run(caller, fresh(net)) == (expected, 0)

    def test_a_raising_parent_reaps_its_children(self, caller, monkeypatch):
        module, _, work, kept = CALLERS[caller]
        net = network(caller)
        parent, piece = os.getpid(), getattr(module, work)

        def failing(*args):
            if os.getpid() == parent:
                raise RuntimeError("parent failed")
            time.sleep(30)  # a child ends only when it is killed
            return piece(*args)

        monkeypatch.setattr(module, work, failing)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="parent failed"):
            run(caller, net)
        assert time.perf_counter() - start < 20
        assert_no_child_left()
        assert kept is None or getattr(net, kept) is None


class TestSplitConditions:
    def test_no_fork_on_one_cpu(self, caller):
        assert run(caller, network(caller), cpus=1)[1] == 0

    def test_no_fork_while_another_thread_runs(self, caller):
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(60,))
        thread.start()
        try:
            forks = run(caller, network(caller))[1]
        finally:
            done.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert forks == 0

    def test_one_process_where_the_affinity_mask_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert parallel.processes(1000) == 1

    def test_no_more_processes_than_ranges(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert parallel.processes(3) == 3
        assert parallel.processes(0) == 1

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads the thread count from /proc")
    def test_the_parent_has_one_thread_after_each_fork(self, caller, monkeypatch):
        # Python 3.12 warns when a fork leaves the parent with other threads; OpenBLAS stops its own at a fork
        np.ones((256, 256)) @ np.ones((256, 256))  # BLAS starts its worker threads, if it has any
        counts, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                with open("/proc/self/stat") as stat:
                    counts.append(int(stat.read().rsplit(")", 1)[1].split()[17]))
            return pid

        monkeypatch.setattr(os, "fork", counted)
        run(caller, network(caller))
        assert counts == [1]


def kept_writes(name):
    """The values the split local-RH sweep and the split search write to the slot ``name`` of one network."""
    writes = []

    class Counted(ActivityNetwork):
        __slots__ = ()

        def __setattr__(self, slot, value):
            if slot == name and value is not None:
                writes.append(value)
            super().__setattr__(slot, value)

    net = generate_dag(GeneratorConfig(layer_count=40, layer_width=34, edge_probability=0.0169, skip_depth=2, seed=7))
    net = Counted(net.nodes, net.edges)  # the acceptance-c7 topology, which searches in several batches
    with forced_split(heterogeneity, "_SPLIT_NODES") as forks, forced_split(metrics, "_SPLIT_PAIRS"):
        rh_local_all(net)
        metrics._paths(net)
    assert len(forks) == 2  # one child for each stage
    return writes


def test_a_network_above_both_thresholds_derives_its_heights_once():
    # the sweep reads the heights to order its cone rows, and the search to cost its batches
    assert len(kept_writes("_height")) == 1


def test_a_network_above_both_thresholds_derives_its_successor_csr_once():
    # the sweep expands its cone rows over the successor CSR, and the search its levels
    writes = kept_writes("_csr")
    assert len(writes) == 1
    assert not any(array.flags.writeable for array in writes[0])


class TestSplitHelper:
    def test_each_process_runs_on_its_own_cpu_and_the_mask_comes_back(self):
        mask = sorted(os.sched_getaffinity(0))
        if len(mask) < 2:
            pytest.skip("needs two CPUs")
        seen = []

        def produce(part):
            yield np.array(sorted(os.sched_getaffinity(0)))

        parallel.split([0, 1, 2], produce, lambda part, records: seen.append(next(records).tolist()))
        assert seen == [[mask[0]], [mask[1]]]
        assert sorted(os.sched_getaffinity(0)) == mask
        assert_no_child_left()

    def test_records_keep_their_dtype_shape_and_bytes(self):
        arrays = [np.arange(5, dtype=np.int32), np.array([0.1, -0.0, np.inf]), np.empty(0, dtype=np.int64)]
        stream = io.BytesIO()
        for array in arrays:
            parallel._send(stream, array)
        stream.seek(0)
        records = parallel._records(stream)
        for array in arrays:
            got = next(records)
            assert got.dtype == array.dtype and got.tobytes() == array.tobytes()
        with pytest.raises(EOFError):
            next(records)

    def test_a_stream_cut_inside_an_array_raises(self):
        stream = io.BytesIO()
        parallel._send(stream, np.arange(4.0))
        with pytest.raises(EOFError):
            next(parallel._records(io.BytesIO(stream.getvalue()[:-1])))
