"""Float-contract bits of ``rh_global`` for named networks, printed as JSON.

Usage: ``python tests/rh_bits.py [--local | --split | --global-split] NAME...`` with ``src``
and ``tests`` on the path. OpenBLAS reads ``OPENBLAS_NUM_THREADS`` and
``OPENBLAS_CORETYPE`` once, when numpy loads it, so a caller that compares
kernels or thread counts runs this script once per setting. Every sweep
runs in this one process, except the split one of ``--split``. For each
network it prints:

* ``value``: ``rh_global(net).value`` as a float hex string;
* ``dense``: ``oracles.dense_rh(net)``, the whole-matrix expression;
* ``streamed`` and ``whole``: sha256 digests of ``R @ w`` taken by the
  library's blocked product of every row from packed rows and by one
  whole-matrix product, for the network's closure R and
  w = 1/sqrt(ancestor counts);
* with ``--local`` only: ``local``, a digest of ``rh_local_all(net).values``,
  and for the run of nodes ``RUN``: ``sampled``, the sweep's values there;
  ``single``, ``rh_local`` at each; and ``rebuilt``, the base score minus
  ``rh_global`` of the network rebuilt without each;
* with ``--split`` only, and in place of the rest: ``local``; ``split``,
  the same digest for a sweep split between two processes at any size;
  and ``forks``, how many children that split forked.
* with ``--global-split`` only, and in place of the rest: ``value``;
  ``cuts``, the block-aligned cuts of ``rh_global``'s product, from the
  first block's end to the last block's start; ``differ``, those at which
  the product split in two there differs from one process's in any bit;
  ``split``, the value of a whole ``rh_global`` call split at its own cut;
  and ``forks``, how many children all of these forked. The name
  ``screening`` stands for ``oracles.screening_network()`` here.

A ``wide-N`` name prints only ``streamed``, for N random packed 0/1 rows
of N bits, which never exist as one float matrix. A ``dot-N`` name prints
only ``dot``, the library's final dot of two seeded random vectors of N
entries, as a float hex string.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import numpy as np

from oracles import dense_rh, make_network, screening_network, without_node
from schednet import GeneratorConfig, generate_dag, prune_isolated, rh_global, rh_local, rh_local_all
from schednet import heterogeneity, parallel
from schednet.heterogeneity import _block, _dot, _layout, _product
from schednet.network import ActivityNetwork
from schednet.reachability import closure


def shuffled_dag(n, p, seed):
    """Random DAG on n nodes with edge probability p whose ids are shuffled against its edges."""
    rng = np.random.default_rng(seed)
    ids = [f"v{k:05d}" for k in rng.permutation(n)]
    pairs = np.argwhere(np.triu(rng.random((n, n)) < p, 1))
    return make_network(ids, [(ids[i], ids[j]) for i, j in pairs.tolist()])


def generated(**config):
    return prune_isolated(generate_dag(GeneratorConfig(**config)))


def relabelled(network, seed):
    """``network`` with its ids shuffled, so index order no longer follows its layers."""
    ids = [f"s{k:04d}" for k in np.random.default_rng(seed).permutation(network.n)]
    return make_network(ids, [(ids[s], ids[t]) for s, t in network.edges])


NETWORKS = {
    # the acceptance-c7 topology, n=1208
    "c7": lambda: generated(layer_count=40, layer_width=34, edge_probability=0.0169, skip_depth=2, seed=7),
    # the same grid, dense: n=1357, 745,371 reachable pairs
    "dense": lambda: generated(layer_count=40, layer_width=34, edge_probability=0.06, skip_depth=2, seed=7),
    # n=1002; its whole-matrix product changes bits between 1 and 2 BLAS threads
    "random-dense": lambda: shuffled_dag(1002, 0.01, 1002),
    # n=540, 3.8% of pairs reachable: the local sweep refreshes about a third of its rows per node
    "sparse": lambda: relabelled(
        generated(layer_count=20, layer_width=30, edge_probability=0.02, skip_depth=2, seed=5), seed=5
    ),
    # n=256, the largest network whose local sweep takes one product block (cut 0); its 255 x 255 products
    # are split between BLAS threads
    "one-block-256": lambda: shuffled_dag(256, 0.02, 256),
    # n=433 streams in blocks of 144 rows, so its last block would hold one row
    "one-row-433": lambda: shuffled_dag(433, 0.01, 2),
}
for _seed in range(24):
    NETWORKS[f"small-{_seed}"] = lambda s=_seed: generated(
        layer_count=12, layer_width=8, edge_probability=0.2, skip_depth=3, seed=s
    )
for _n in range(1000, 1008):  # every residue mod 8, in blocks of 64 rows
    NETWORKS[f"residue-{_n}"] = lambda n=_n: shuffled_dag(n, 0.01, n)
# (n-1) % 4 = 0, 1, 2 with four product blocks below the last; the sweep refreshes about 40% of the rows per node
for _n in (521, 522, 523):
    NETWORKS[f"partial-{_n}"] = lambda n=_n: shuffled_dag(n, 0.008, n)
# (n-1) % 4 = 1, 2, 3 with at most three product blocks below the last; n=434 ends its sweep in a block of 145 rows
for _n in (434, 435, 436):
    NETWORKS[f"full-{_n}"] = lambda n=_n: shuffled_dag(n, 0.01, n)
RUN = range(40, 70)  # consecutive nodes, so each follows the one before it in the sweep


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def weights(a):
    w = np.zeros(len(a))
    np.divide(1.0, np.sqrt(a.astype(np.float64)), out=w, where=a > 0)
    return w


def streamed(rows, w):
    """Digest of ``R @ w`` by the library's blocked product of every row, from packed rows R."""
    n = len(w)
    y = np.empty(n)
    _product(y, rows, np.arange(n), n, w, np.arange(_layout(n)[1]), _block(n))
    return _digest(y)


def bits(network, local=False):
    n = network.n
    table = closure(network)
    w = weights(table.ancestor_counts)
    whole = np.unpackbits(table._rows, axis=1, count=n, bitorder="little").astype(np.float64)
    out = {
        "value": rh_global(network).value.hex(),
        "dense": dense_rh(network).hex(),
        "streamed": streamed(table._rows, w),
        "whole": _digest(whole @ w),
    }
    if local:
        values = rh_local_all(network).values
        base = rh_global(network).value
        out["local"] = _digest(values)
        out["sampled"] = _digest(values[RUN])
        out["single"] = _digest([rh_local(network, v) for v in RUN])
        out["rebuilt"] = _digest([base - rh_global(without_node(network, v)).value for v in RUN])
    return out


def split(network):
    """Digests of the one-process and of the split sweep of fresh copies of ``network``, and the split's forks."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    local = rh_local_all(ActivityNetwork(network.nodes, network.edges)).values
    heterogeneity._SPLIT_NODES, os.fork = 0, counted
    try:
        values = rh_local_all(ActivityNetwork(network.nodes, network.edges)).values
    finally:
        heterogeneity._SPLIT_NODES, os.fork = math.inf, fork
    return {"local": _digest(local), "split": _digest(values), "forks": len(forks)}


def global_split(network):
    """``rh_global``'s value and product in one process, and split between two at every block-aligned cut."""
    n = network.n
    step, last = _layout(n)
    cuts = range(step, last + 1, step)
    # every product stays alive, so no later one is made in memory that already holds the right values
    products, forks, fork, fill = [], [], os.fork, heterogeneity.fill

    def kept(out, bounds, write):
        fill(out, bounds, write)
        products.append(out)

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    heterogeneity.fill, os.fork = kept, counted
    try:
        value = rh_global(network).value
        for cut in cuts:  # the product's block costs cut after ``cut // step`` blocks
            heterogeneity.cuts = lambda cost, above: [0, cut // step, len(cost)]
            rh_global(network)
        heterogeneity.cuts = parallel.cuts
        heterogeneity._SPLIT_ROWS = 0
        split = rh_global(network).value
    finally:
        heterogeneity._SPLIT_ROWS, heterogeneity.cuts, heterogeneity.fill, os.fork = math.inf, parallel.cuts, fill, fork
    one = products[0].tobytes()
    differ = [cut for cut, y in zip(cuts, products[1:]) if y.tobytes() != one]
    return {"value": value.hex(), "cuts": list(cuts), "differ": differ, "split": split.hex(), "forks": len(forks)}


def wide(n):
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 256, size=(n, (n + 7) // 8), dtype=np.uint8)
    w = weights(rng.integers(1, n, size=n))
    return {"streamed": streamed(rows, w)}


def dot(n):
    rng = np.random.default_rng(n)
    return {"dot": _dot(rng.random(n), rng.random(n)).hex()}


if __name__ == "__main__":
    # every sweep and product but the split ones of ``split`` and ``global_split`` runs in this process
    heterogeneity._SPLIT_NODES = heterogeneity._SPLIT_ROWS = math.inf
    flags = {"--local", "--split", "--global-split"} & set(sys.argv)
    if flags & {"--split", "--global-split"}:
        os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs, whatever this machine has
    out = {}
    for name in sys.argv[1:]:
        if name.startswith("wide-"):
            out[name] = wide(int(name[len("wide-"):]))
        elif name.startswith("dot-"):
            out[name] = dot(int(name[len("dot-"):]))
        elif "--global-split" in flags and name not in flags:
            out[name] = global_split(screening_network() if name == "screening" else NETWORKS[name]())
        elif "--split" in flags and name not in flags:
            out[name] = split(NETWORKS[name]())
        elif name not in flags:
            out[name] = bits(NETWORKS[name](), "--local" in flags)
    json.dump(out, sys.stdout)
