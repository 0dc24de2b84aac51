"""Checks at the screen-10k scale that take longer than a tier-1 test should.

The file name does not match ``test_*.py``, so a plain ``pytest`` run
does not collect it. Run it by name::

    PYTHONPATH=src python -m pytest -q tests/scale_oracles.py
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np

from schednet import generate_dag, prune_isolated, reachability_table, rh_global, rh_local
from schednet.heterogeneity import _ReducedReach
from oracles import SCREEN_10K, decimal_rh, without_node


def test_local_rh_at_10k_within_1e14_of_the_decimal_oracle():
    # each exact value is the base network's 40-digit RH less the rebuilt smaller network's, about 1.6 s a node
    # on a 2-vCPU VM; the four differences measured 0.6e-16 to 3.8e-16, on values of 3.3e-5 to 3.7e-4
    net = prune_isolated(generate_dag(SCREEN_10K))
    assert net.n == 9125
    base = decimal_rh(net)

    def exact(v):
        return base - decimal_rh(without_node(net, v))

    # a full refresh, each from a new reduced matrix: the deepest cone and the widest reach
    table = reachability_table(net)
    for v in (int(np.argmax(table.ancestor_counts)), int(np.argmax(table.descendant_counts))):
        assert abs(Decimal(rh_local(net, v)) - exact(v)) < Decimal("1e-14"), v
    # a node and the next one, whose step refreshes only the rows that can change
    k = int(np.random.default_rng(5).integers(net.n - 1))
    reduced, value = _ReducedReach(net), rh_global(net).value
    for v in (k, k + 1):
        assert abs(Decimal(value - reduced.value_without(v)) - exact(v)) < Decimal("1e-14"), v
