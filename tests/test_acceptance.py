"""Acceptance gate: one test per criterion, each at its stated tolerance.

The conftest terminal summary prints one PASS/FAIL line per criterion.
Published values for the four proprietary project networks cannot be
reproduced (the schedules are private), so criterion 1 checks that those
numbers are carried as documentation fixtures only; every other criterion
exercises this implementation against independent oracles, closed forms,
pinned synthetic data, or itself (determinism).
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from schednet import (
    FrequencyMatrix,
    GeneratorConfig,
    MetricVector,
    NoiseSpec,
    PropagationConfig,
    benchmark_metrics,
    betweenness,
    build_network,
    estrada_rho,
    frequency_matrix,
    generate_dag,
    metric_suite,
    mutual_information,
    reachability_table,
    rh_global,
    rh_local_all,
    simulate_delays,
    start_delay,
    write_activities,
    write_dependencies,
)
from schednet import reference
from schednet.cli import main
from schednet.network import Dependency
from schednet.performance import DelayVector
from oracles import (
    dfs_reachable_sets,
    enumerate_betweenness,
    random_network,
    rh_from_pair_sum,
)


def test_c1_published_values_are_documentation_fixtures_only():
    """Tables for the four proprietary projects are carried as fixtures.

    The underlying schedules are not available, so the only check possible
    is internal consistency of the documented numbers.
    """
    assert set(reference.NETWORK_STATS) == set(reference.PROJECTS)
    for stats in reference.NETWORK_STATS.values():
        assert 0 < stats["largest_wcc"] <= stats["nodes"]
        assert stats["wccs"] >= 1
    assert set(reference.GLOBAL_RH) == set(reference.PROJECTS)
    # reported ordering: WF most heterogeneous, then PN, DC, HW
    rh = reference.GLOBAL_RH
    assert rh["WF"] > rh["PN"] > rh["DC"] > rh["HW"] > 0
    assert set(reference.MI_BENCHMARK) == set(
        ("in_degree", "out_degree", "betweenness", "closeness",
         "reverse_closeness", "descendants", "ancestors", "local_rh")
    )
    for project in reference.PROJECTS:
        ranks = sorted(
            entry[project][1] for entry in reference.MI_BENCHMARK.values()
        )
        assert ranks == list(range(1, 9))
        for entry in reference.MI_BENCHMARK.values():
            assert entry[project][0] > 0


def test_c2_closed_form_scores_within_1e_12_under_1ms(path3, two_disjoint_edges):
    # warm-up so the timing measures the computation, not first-use setup
    rh_global(path3)
    estrada_rho(path3)
    start = time.perf_counter()
    path_rh = rh_global(path3).value
    path_rho = estrada_rho(path3).value
    disjoint_rh = rh_global(two_disjoint_edges).value
    elapsed = time.perf_counter() - start
    assert path_rh == pytest.approx(1.0, abs=1e-12)
    assert path_rho == pytest.approx(0.0, abs=1e-12)
    assert disjoint_rh == 0.0
    assert elapsed < 1e-3, f"closed-form evaluations took {elapsed * 1e3:.3f} ms"


def test_c3_oracle_equivalence_on_200_random_dags_under_30s():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    for _ in range(200):
        net = random_network(rng, n_min=2, n_max=12)
        n = net.n
        # (a) descendant/ancestor counts against per-source DFS
        table = reachability_table(net)
        desc_sets = dfs_reachable_sets(net.successor_lists)
        anc_sets = dfs_reachable_sets(net.predecessor_lists)
        assert list(table.descendant_counts) == [len(s) for s in desc_sets]
        assert list(table.ancestor_counts) == [len(s) for s in anc_sets]

        # (b) global score against the direct pair-by-pair evaluation
        expected = rh_from_pair_sum(net.successor_lists, n)
        assert rh_global(net).value == pytest.approx(expected, abs=1e-12)

        # (c) batch local scores equal the naive remove-and-recompute loop exactly
        batch = rh_local_all(net).values
        base = rh_global(net).value
        for v in range(n):
            keep = [rec for i, rec in enumerate(net.nodes) if i != v]
            deps = [
                Dependency(net.nodes[s].id, net.nodes[t].id)
                for s, t in net.edges
                if s != v and t != v
            ]
            naive = base - rh_global(build_network(keep, deps)).value
            assert naive == batch[v]

    # (d) betweenness against exhaustive geodesic enumeration, n <= 8
    for _ in range(200):
        net = random_network(rng, n_min=2, n_max=8)
        expected = enumerate_betweenness(net.successor_lists, net.n)
        assert betweenness(net).values == pytest.approx(expected, abs=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f} s"


def test_c4_mutual_information_estimator():
    assert mutual_information(
        FrequencyMatrix.from_counts([[2, 0], [0, 2]])
    ) == pytest.approx(math.log(2), abs=1e-12)

    rng = np.random.default_rng(4)
    for _ in range(25):
        rows = rng.integers(1, 8, size=int(rng.integers(2, 5)))
        cols = rng.integers(1, 8, size=int(rng.integers(2, 5)))
        product_form = FrequencyMatrix.from_counts(np.outer(rows, cols))
        assert mutual_information(product_form) == pytest.approx(0.0, abs=1e-12)

    assert mutual_information(
        FrequencyMatrix.from_counts([[2, 1], [1, 2]])
    ) == pytest.approx(0.0566331, abs=1e-6)

    for _ in range(100):
        n = int(rng.integers(10, 80))
        x = rng.normal(size=n)
        y = rng.integers(-15, 15, size=n)
        metric = MetricVector("x", x)
        delays = DelayVector(np.asarray(y, dtype=np.int64), np.ones(n, dtype=bool))
        m = frequency_matrix(metric, delays, 6)
        # symmetry
        flipped = FrequencyMatrix.from_counts(m.counts.T)
        assert mutual_information(m) == pytest.approx(
            mutual_information(flipped), abs=1e-12
        )
        # invariance under positive affine rescaling of the metric
        rescaled = MetricVector("x", 7.25 * x + 3.0)
        m2 = frequency_matrix(rescaled, delays, 6)
        assert mutual_information(m2) == pytest.approx(mutual_information(m), abs=1e-12)


def test_c5_default_bin_count_is_floor_sqrt_of_valid_nodes():
    rng = np.random.default_rng(5)
    metric = MetricVector("x", rng.normal(size=100))
    delays = DelayVector(
        rng.integers(-10, 10, size=100).astype(np.int64), np.ones(100, dtype=bool)
    )
    m = frequency_matrix(metric, delays)
    assert m.counts.shape == (10, 10)


# pinned synthetic project for the qualitative trend criterion
TREND_CONFIG = GeneratorConfig(
    layer_count=40,
    layer_width=(30, 30, 2, 2) * 10,
    edge_probability=0.025,
    skip_depth=3,
    seed=2,
)
TREND_NOISE = NoiseSpec.two_point(0.1, 14)
TREND_PROPAGATION = PropagationConfig(slack_days=1, clamp_negative=True)
TREND_SIM_SEED = 1002


def test_c6_local_rh_tracks_start_delay_on_pinned_synthetic_under_60s():
    start = time.perf_counter()
    network = generate_dag(TREND_CONFIG)
    assert network.n >= 500
    assert TREND_CONFIG.skip_depth >= 3
    simulated = simulate_delays(network, TREND_PROPAGATION, TREND_NOISE, TREND_SIM_SEED)
    delays = start_delay(simulated)
    local = rh_local_all(simulated)
    suite = metric_suite(simulated)

    rho = scipy_stats.spearmanr(
        local.values[delays.valid], delays.days[delays.valid]
    ).statistic
    assert rho >= 0.2, f"Spearman correlation {rho:.3f} below 0.2"

    report = benchmark_metrics(simulated, delays, suite=suite)
    rank = report.rank_of("local_rh")
    assert rank <= 3, f"local_rh ranked {rank} of 8"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"trend test took {elapsed:.1f} s"


# pinned synthetic network at the scale of the largest documented project
SCALE_CONFIG = GeneratorConfig(
    layer_count=40,
    layer_width=34,
    edge_probability=0.0169,
    skip_depth=2,
    seed=7,
)


def test_c7_scale_batch_local_rh_and_metric_suite_under_10s(tmp_path):
    network = generate_dag(SCALE_CONFIG)
    assert network.n >= 1200
    assert 1300 <= len(network.edges) <= 1700

    start = time.perf_counter()
    suite = metric_suite(network)
    elapsed = time.perf_counter() - start
    assert len(suite) == 8
    assert elapsed < 10.0, f"batch local RH + metric suite took {elapsed:.1f} s"

    # full analyze pipeline on the same network, end to end
    simulated = simulate_delays(
        network, PropagationConfig(slack_days=0), NoiseSpec.two_point(0.15, 10), seed=3
    )
    a_path = tmp_path / "activities.csv"
    d_path = tmp_path / "dependencies.csv"
    write_activities(a_path, simulated.nodes)
    ids = simulated.node_ids
    write_dependencies(
        d_path, [Dependency(ids[s], ids[t]) for s, t in simulated.edges]
    )
    start = time.perf_counter()
    code = main(["analyze", str(a_path), str(d_path), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 30.0, f"analyze took {elapsed:.1f} s"


def test_c8_analyze_reruns_are_byte_identical(tmp_path):
    network = generate_dag(
        GeneratorConfig(layer_count=12, layer_width=6, edge_probability=0.2,
                        skip_depth=3, seed=9)
    )
    simulated = simulate_delays(
        network, PropagationConfig(), NoiseSpec.two_point(0.2, 8), seed=9
    )
    a_path = tmp_path / "activities.csv"
    d_path = tmp_path / "dependencies.csv"
    write_activities(a_path, simulated.nodes)
    ids = simulated.node_ids
    write_dependencies(
        d_path, [Dependency(ids[s], ids[t]) for s, t in simulated.edges]
    )

    digests = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["analyze", str(a_path), str(d_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
        actual = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()
            if p.name != "manifest.json"
        }
        assert listed == actual
        digests.append((listed, hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()))
    assert digests[0] == digests[1]
