"""Synthetic schedule generator and delay propagation tests."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from schednet import (
    DegenerateConfig,
    Dependency,
    GeneratorConfig,
    NoiseSpec,
    PropagationConfig,
    end_delay,
    generate_dag,
    prune_isolated,
    simulate_delays,
    start_delay,
    topological_order,
    write_activities,
    write_dependencies,
)
from schednet.network import ActivityNetwork
from schednet.synthgen import MAX_DRAWS, draw_count


QUIET = PropagationConfig(slack_days=0, clamp_negative=True)


class TestNoiseSpec:
    def test_parse_round_trip(self):
        assert NoiseSpec.parse("none") == NoiseSpec.none()
        assert NoiseSpec.parse("uniform:-3,5") == NoiseSpec.uniform(-3, 5)
        assert NoiseSpec.parse("two_point:0.25,10") == NoiseSpec.two_point(0.25, 10)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            NoiseSpec.parse("gaussian:0,1")

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec.uniform(5, 1)
        with pytest.raises(ValueError):
            NoiseSpec.two_point(1.5, 3)


class TestGenerateDag:
    def test_single_layer_is_degenerate(self):
        with pytest.raises(DegenerateConfig):
            generate_dag(GeneratorConfig(layer_count=1, layer_width=5, edge_probability=1.0))

    def test_forced_three_node_path(self):
        net = generate_dag(
            GeneratorConfig(layer_count=3, layer_width=1, edge_probability=1.0, seed=5)
        )
        assert net.n == 3
        assert net.edges == ((0, 1), (1, 2))

    def test_same_seed_same_network(self):
        config = GeneratorConfig(
            layer_count=6, layer_width=4, edge_probability=0.4, skip_depth=2, seed=99
        )
        assert generate_dag(config) == generate_dag(config)

    def test_different_seeds_differ(self):
        base = dict(layer_count=6, layer_width=4, edge_probability=0.4, skip_depth=2)
        a = generate_dag(GeneratorConfig(seed=1, **base))
        b = generate_dag(GeneratorConfig(seed=2, **base))
        assert a != b

    def test_edges_respect_skip_depth_and_pruning(self):
        config = GeneratorConfig(
            layer_count=8, layer_width=3, edge_probability=0.5, skip_depth=2, seed=3
        )
        net = generate_dag(config)
        assert prune_isolated(net) == net
        # node ids encode generation order; layer width 3 bounds the index gap
        for s, t in net.edges:
            gap = int(net.nodes[t].id[1:]) // 3 - int(net.nodes[s].id[1:]) // 3
            assert 1 <= gap <= 2

    def test_planned_dates_follow_forward_pass(self):
        config = GeneratorConfig(
            layer_count=5, layer_width=3, edge_probability=0.5, seed=11
        )
        net = generate_dag(config)
        for i in range(net.n):
            preds = net.predecessors(i)
            if preds:
                assert net.nodes[i].planned_start == max(
                    net.nodes[j].planned_end for j in preds
                )

    def test_per_layer_widths(self):
        config = GeneratorConfig(
            layer_count=3, layer_width=(1, 4, 1), edge_probability=1.0, seed=0
        )
        net = generate_dag(config)
        assert net.n == 6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(layer_count=0, layer_width=3, edge_probability=0.5)
        with pytest.raises(ValueError):
            GeneratorConfig(layer_count=3, layer_width=3, edge_probability=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(layer_count=3, layer_width=3, edge_probability=0.5, skip_depth=0)
        with pytest.raises(ValueError):
            GeneratorConfig(
                layer_count=3, layer_width=3, edge_probability=0.5, base_duration_days=(0, 4)
            )


class CountingRng:
    """A seeded numpy Generator that counts the random numbers drawn from it."""

    def __init__(self, seed, generator=np.random.default_rng):
        self.rng, self.draws = generator(seed), 0

    def random(self, size):
        self.draws += int(np.prod(size))
        return self.rng.random(size)

    def integers(self, low, high, size):
        self.draws += size
        return self.rng.integers(low, high, size=size)


@pytest.mark.parametrize(
    "config",
    [
        dict(layer_count=5, layer_width=(3, 6, 2, 5, 4), skip_depth=2),
        dict(layer_count=4, layer_width=5, skip_depth=9),
        dict(layer_count=12, layer_width=8, skip_depth=3),
        dict(layer_count=2, layer_width=(7, 1), skip_depth=1),
    ],
)
def test_draw_count_is_what_the_generator_draws(config, monkeypatch):
    rngs = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rngs.append(CountingRng(seed)) or rngs[-1])
    generate_dag(GeneratorConfig(edge_probability=0.5, **config))
    assert rngs[0].draws == draw_count(config["layer_count"], config["layer_width"], config["skip_depth"])


def test_config_over_the_draw_limit_is_refused_before_any_width_is_listed():
    assert MAX_DRAWS == 100_000_000
    GeneratorConfig(layer_count=2, layer_width=9999, edge_probability=0.5)  # 99,999,999 draws
    for config in (dict(layer_count=2, layer_width=10_000), dict(layer_count=10**11, layer_width=4)):
        with pytest.raises(ValueError, match="layer_count, layer_width and skip_depth ask for .* random draws"):
            GeneratorConfig(edge_probability=0.5, **config)


# sha256 of (activities.csv, dependencies.csv) as written for each shape, recorded
# before the generator built its predecessor lists from the drawn index pairs
PINNED_SHAPES = {
    "per-layer widths": (
        dict(layer_count=5, layer_width=(3, 6, 2, 5, 4), edge_probability=0.4, skip_depth=2, seed=21),
        "3482b419852ca81e0e7e548a9eef94387990026084ea523767a5e96e39e51a3f",
        "80944b8fc25c188dcf2ec87f3309771df766520bfed99db53078ae92b5ec5c1b",
    ),
    "skip past the last layer": (
        dict(layer_count=4, layer_width=5, edge_probability=0.3, skip_depth=9, seed=5),
        "147eaddc23b41d8744dddbec591a6241758936e3b7724b8f835387704c4b29cf",
        "344143e1b6ca0fb1d71c05c6acd3d02085be763702b1b632ebd299537d2c28cb",
    ),
    "every edge": (
        dict(layer_count=4, layer_width=(2, 3, 1, 2), edge_probability=1.0, skip_depth=2, seed=3),
        "0eb83dd61b960a366df33bd3285436814add3736ef48f7462647ff3727b4cc24",
        "a0b2f754b34cf273e5671014cc35abe57c3e5693141d83ab925f8896afc8ae73",
    ),
}


@pytest.mark.parametrize("shape", PINNED_SHAPES)
def test_generated_csvs_keep_their_pinned_bytes(shape, tmp_path):
    config, activities, dependencies = PINNED_SHAPES[shape]
    net = generate_dag(GeneratorConfig(**config))
    ids = net.node_ids
    write_activities(tmp_path / "a.csv", net.nodes)
    write_dependencies(tmp_path / "d.csv", [Dependency(ids[s], ids[t]) for s, t in net.edges])
    assert hashlib.sha256((tmp_path / "a.csv").read_bytes()).hexdigest() == activities
    assert hashlib.sha256((tmp_path / "d.csv").read_bytes()).hexdigest() == dependencies


class TestSimulateDelays:
    def test_quiescent_system_has_zero_delays(self, path3):
        sim = simulate_delays(path3, QUIET, NoiseSpec.none(), seed=1)
        assert list(start_delay(sim).days) == [0, 0, 0]
        assert list(end_delay(sim).days) == [0, 0, 0]
        for rec in sim.nodes:
            assert rec.actual_start == rec.planned_start
            assert rec.actual_end == rec.planned_end

    def test_seeded_shock_reaches_every_descendant(self, path3):
        sim = simulate_delays(path3, QUIET, NoiseSpec.none(), seed=1, shocks={"a": 5})
        assert list(end_delay(sim).days) == [5, 5, 5]
        assert list(start_delay(sim).days) == [0, 5, 5]

    def test_shock_spares_non_descendants(self, diamond):
        sim = simulate_delays(diamond, QUIET, NoiseSpec.none(), seed=1, shocks={"b": 5})
        delays = start_delay(sim)
        # a (ancestor) and c (sibling) untouched; d inherits
        assert list(delays.days) == [0, 0, 0, 5]

    def test_slack_absorbs_shock(self, path3):
        propagation = PropagationConfig(slack_days=5, clamp_negative=True)
        sim = simulate_delays(path3, propagation, NoiseSpec.none(), seed=1, shocks={"a": 5})
        assert list(start_delay(sim).days) == [0, 0, 0]
        assert list(end_delay(sim).days) == [5, 0, 0]

    def test_determinism(self):
        config = GeneratorConfig(
            layer_count=8, layer_width=5, edge_probability=0.3, skip_depth=3, seed=21
        )
        net = generate_dag(config)
        noise = NoiseSpec.uniform(-2, 6)
        a = simulate_delays(net, QUIET, noise, seed=77)
        b = simulate_delays(net, QUIET, noise, seed=77)
        assert a == b

    def test_start_delay_monotone_along_edges(self):
        config = GeneratorConfig(
            layer_count=10, layer_width=4, edge_probability=0.35, skip_depth=3, seed=31
        )
        net = generate_dag(config)
        propagation = PropagationConfig(slack_days=1, clamp_negative=True)
        sim = simulate_delays(net, propagation, NoiseSpec.two_point(0.3, 7), seed=5)
        starts = start_delay(sim).days
        ends = end_delay(sim).days
        for s, t in sim.edges:
            assert starts[t] >= ends[s] - propagation.slack_days

    def test_delay_depends_only_on_ancestors(self):
        config = GeneratorConfig(
            layer_count=9, layer_width=4, edge_probability=0.3, skip_depth=3, seed=41
        )
        net = generate_dag(config)
        noise = NoiseSpec.uniform(0, 9)
        full = simulate_delays(net, QUIET, noise, seed=13)
        full_starts = start_delay(full).days

        # rebuild the sub-network induced on each node's ancestor closure;
        # per-activity noise streams make the delays coincide
        from schednet import reachability_table

        anc_sets = {}
        table = reachability_table(net)
        for i, j in table.reachable_pairs:
            anc_sets.setdefault(j, set()).add(i)
        rng = np.random.default_rng(0)
        for target in rng.choice(net.n, size=min(6, net.n), replace=False):
            target = int(target)
            keep = sorted(anc_sets.get(target, set()) | {target})
            remap = {old: new for new, old in enumerate(keep)}
            sub = ActivityNetwork(
                [net.nodes[i] for i in keep],
                [(remap[s], remap[t]) for s, t in net.edges if s in remap and t in remap],
            )
            sub_sim = simulate_delays(sub, QUIET, noise, seed=13)
            sub_starts = start_delay(sub_sim).days
            assert sub_starts[remap[target]] == full_starts[target]

    def test_records_stay_consistent_under_negative_noise(self):
        config = GeneratorConfig(
            layer_count=6, layer_width=3, edge_probability=0.5, seed=51,
            base_duration_days=(1, 3),
        )
        net = generate_dag(config)
        propagation = PropagationConfig(slack_days=0, clamp_negative=False)
        sim = simulate_delays(net, propagation, NoiseSpec.uniform(-10, 2), seed=7)
        for rec in sim.nodes:
            assert rec.actual_end >= rec.actual_start

    def test_unknown_shock_id_rejected(self, path3):
        with pytest.raises(KeyError):
            simulate_delays(path3, QUIET, NoiseSpec.none(), seed=1, shocks={"zz": 3})

    def test_topology_preserved(self, diamond):
        sim = simulate_delays(diamond, QUIET, NoiseSpec.uniform(0, 3), seed=3)
        assert sim.edges == diamond.edges
        assert sim.node_ids == diamond.node_ids
        assert topological_order(sim) == topological_order(diamond)
