"""Contiguous ranges of one job split between forked processes.

Three stages run on every CPU the process may use: the local-RH sweep
(``heterogeneity.rh_local_all``), the product of global RH
(``heterogeneity.rh_global``) and the batched shortest-path search
(``metrics._paths``). Each states only a cost per item of its work and
whether it is above its split size, and :func:`cuts`, the one cut rule,
gives each process (:func:`processes`) a contiguous range of about equal
total cost: the items whose cost midpoint falls in its share of the total.
The sweep and the product :func:`fill` one vector, a slice per range. The
search streams through :func:`split`, which ``fill`` wraps, with two
functions: ``produce(r)`` yields range r's results as numpy arrays, and
``consume(r, records)`` takes them, in the order they were yielded, into
the caller's outputs. This process produces and consumes the first range
itself, one array at a time, and forks a child for each other range. A
child produces its whole range from its copy-on-write copy of this
process, then writes the arrays to a pipe and ends in ``os._exit``; it
computes everything before it writes, since a pipe holds 64 KiB and a
child that wrote as it went would wait for this process to finish its own
range. This process then consumes each child's stream in range order, one
array at a time, so it never holds a child's whole output, and every
output gets its updates in the order one process would give them.

A child that could not start (``os.fork`` raised ``OSError``), that exits
non-zero or by a signal, or whose stream ends early, has its range run here
before the next child's stream is read; the arrays the caller names as
``kept`` are first put back as they were before that child's stream was
read. If this process raises, it kills and reaps the children it still has.

The split uses ``os.fork`` and not a ``multiprocessing`` pool because a
pool costs more than it saves: on a 2-vCPU VM a spawn pool of one worker
took 0.375 s to start, more than the whole local-RH sweep of the
1208-node acceptance-c7 network, a forkserver pool 0.27 s and a fork pool
13 ms, where an ``os.fork`` round trip took 2.7 ms. Threads ran slower
than one process (0.356 to 0.424 s for the sweep on c7), since the stages
hold the interpreter lock for most of their steps. A fork copies only the
calling thread, so a job splits only when no other Python thread runs;
OpenBLAS stops its own worker threads in an at-fork handler and starts
them again at its next call.

While the children run, each process is pinned to its own CPU of the
mask, and this process gets its mask back at the end. Unpinned, a new
child stayed on its parent's CPU for tens of ms while the other CPU sat
idle: on a 2-vCPU VM the child of a 100 ms search used 53 ms of CPU in
100 ms, with 13-18 involuntary context switches, and the split took
93-119 ms where pinned it took 55-71 ms (6 runs each). A split still
costs a few ms, in the fork, the copy-on-write faults of both processes
and the stream, so each caller splits only above a size it measured.
"""

from __future__ import annotations

import contextlib
import os
import signal
import struct
import threading
from typing import Callable, Iterator

import numpy as np

_HEAD = struct.Struct("<q8s")  # an array's byte count and its dtype string, before its bytes


def processes(limit: int) -> int:
    """Processes a job of at most ``limit`` ranges may use: one per CPU in this process's affinity mask, or one.

    One where ``os.fork`` or ``os.sched_getaffinity`` is missing (other
    platforms than Linux) or another Python thread runs: a child gets only
    the calling thread, and a lock another one held stays held.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), limit))


def cuts(cost: np.ndarray, above: bool) -> list[int]:
    """Bounds of contiguous ranges of about equal cost, one per process (one unless ``above``), 0 to len(cost).

    A range takes the items whose cost midpoint falls in its share of the
    total. No range is empty; unit costs on two CPUs cut at len(cost) // 2.
    """
    workers = processes(len(cost)) if above else 1
    if workers == 1:
        return [0, len(cost)]
    cumulative = np.cumsum(cost)
    shares = cumulative[-1] * np.arange(1, workers) / workers
    return sorted({0, *np.searchsorted(cumulative - cost / 2, shares).tolist(), len(cost)})


def fill(out: np.ndarray, bounds: list[int], write: Callable[[range], None]) -> None:
    """Run ``write(r)`` for each range r of ``bounds``, the first here (:func:`split`); it sets ``out[r.start:r.stop]``."""

    def produce(part: range) -> Iterator[np.ndarray]:
        write(part)
        yield out[part.start:part.stop]

    def consume(part: range, records: Iterator[np.ndarray]) -> None:
        out[part.start:part.stop] = next(records)

    split(bounds, produce, consume)


def split(
    bounds: list[int],
    produce: Callable[[range], Iterator[np.ndarray]],
    consume: Callable[[range, Iterator[np.ndarray]], None],
    kept: tuple[np.ndarray, ...] = (),
) -> None:
    """``consume(r, produce(r))`` for each range r = ``range(bounds[w], bounds[w + 1])`` in order, the first here.

    Each other range runs in a child (see the module docstring).
    ``consume`` reads a child's arrays from an iterator that raises
    ``EOFError`` where the stream ends early.
    """
    ranges = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children = []
    # one CPU each, where the mask is known: a new child can wait for the scheduler to move it off this CPU
    cpus = sorted(os.sched_getaffinity(0)) if len(ranges) > 1 and hasattr(os, "sched_getaffinity") else []
    try:
        _pin(cpus[:1])
        for w, part in enumerate(ranges[1:], 1):
            children.append((part, *_fork(produce, part, cpus[w:w + 1])))
        consume(ranges[0], produce(ranges[0]))
        while children:
            part, pid, stream = children[0]
            saved = [array.copy() for array in kept]
            done = pid is not None and _merged(part, consume, pid, stream)
            del children[0]
            if not done:
                for array, before in zip(kept, saved):
                    array[...] = before
                consume(part, produce(part))
    finally:
        for _, pid, stream in children:
            if pid is not None:
                stream.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        _pin(cpus)


def _fork(produce: Callable[[range], Iterator[np.ndarray]], part: range, cpus: list[int]) -> tuple:
    """A child that sends ``produce(part)`` through a pipe: its pid and the pipe's read end, or two Nones."""
    try:
        read, write = os.pipe()
    except OSError:  # no descriptor to spare
        return None, None
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read)
        os.close(write)
        return None, None
    if pid == 0:  # the child: produce ``part`` on ``cpus``, send the arrays and end the process
        code = 1
        try:
            os.close(read)
            _pin(cpus)
            records = list(produce(part))
            with os.fdopen(write, "wb") as out:
                for record in records:
                    _send(out, record)
            code = 0
        finally:
            os._exit(code)
    os.close(write)  # before the next fork, so the stream ends when this child does
    return pid, os.fdopen(read, "rb")


def _merged(part: range, consume: Callable[[range, Iterator[np.ndarray]], None], pid: int, stream) -> bool:
    """Whether ``consume`` took the child's whole stream and the child exited 0; reaps the child unless ``consume`` raises."""
    try:
        with stream:  # closed before the wait, so a child with more to send gets a broken pipe and ends
            consume(part, _records(stream))
        whole = True
    except EOFError:
        whole = False
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 and whole


def _pin(cpus: list[int]) -> None:
    """Run this process on ``cpus`` only; where the list is empty, leave its mask as it is."""
    if cpus:
        with contextlib.suppress(OSError):  # a CPU of the list that is not on the system
            os.sched_setaffinity(0, cpus)


def _send(out, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    out.write(_HEAD.pack(array.nbytes, array.dtype.str.encode()))
    out.write(array.data)


def _records(stream) -> Iterator[np.ndarray]:
    """The arrays of a child's stream, in order; ``EOFError`` where the stream ends before one asked for."""
    while True:
        head = stream.read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise EOFError("the stream ended before an array")
        size, dtype = _HEAD.unpack(head)
        data = stream.read(size)
        if len(data) < size:
            raise EOFError("the stream ended inside an array")
        yield np.frombuffer(data, dtype=dtype.rstrip(b"\0").decode())
