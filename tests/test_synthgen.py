"""Synthetic schedule generator and delay propagation tests."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from schednet.schedule_io import activities_csv, dependencies_csv
from schednet.synthgen import DAYS_BEFORE, MAX_DRAWS, _integers, _noise_draws, _seed_state, _Streams, draw_count


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


def test_ids_past_99999_are_indexed_in_ascending_id_order():
    # 101,000 generated activities: A100000 sorts between A10000 and A10001
    net = generate_dag(GeneratorConfig(layer_count=1000, layer_width=101, edge_probability=0.01, seed=2))
    ids = net.node_ids
    assert list(ids) == sorted(ids) and ids[-1] == "A99999" and "A100000" in net.index_of
    deps = [Dependency(ids[s], ids[t]) for s, t in net.edges]
    assert hashlib.sha256(activities_csv(net.nodes).encode()).hexdigest() == (
        "0deb629905db0673ea76225bab0fabf60570a64c5f62503c4cd77e1345c6c05e"
    )
    assert hashlib.sha256(dependencies_csv(deps).encode()).hexdigest() == (
        "0e4be87b8af54611f2f5a83ab5d11a469d97eb58b3b0724e0e34ac292110b80b"
    )


SIMULATED_SHAPES = {
    **{shape: config for shape, (config, _, _) in PINNED_SHAPES.items()},
    "small batch": dict(layer_count=12, layer_width=8, edge_probability=0.2, skip_depth=3, seed=3),
}
# the widest range that keeps every date of these shapes in the calendar; numpy's rejection loop is checked
# on wider ranges by test_bounded_draws_equal_numpy_integers
WIDE = NoiseSpec.uniform(-DAYS_BEFORE, 2**17)
SIMULATED_NOISES = {str(noise): noise for noise in (
    NoiseSpec.none(), NoiseSpec.uniform(-3, 5), NoiseSpec.uniform(4, 4), WIDE, NoiseSpec.two_point(0.15, 10)
)}
# sha256 over the activities.csv of every seed, slack and clamp below, in that nesting, for each shape and
# noise; recorded while every activity still drew from a numpy Generator of its own
SIMULATED = {
    ("per-layer widths", "none"): "3e2d8a0c2acc7af6b51abaef77a6818809b561623fd9ab8c41643518ae2f0210",
    ("per-layer widths", "uniform:-3,5"): "d7c7bac21a8b5bfc2f9b394e8cb158729addbe8271f10587a507f58b2be28e77",
    ("per-layer widths", "uniform:4,4"): "da6d75826fc60e073ba97e1b631a2c20515a5e022cfd1a0a8659b260928c417c",
    ("per-layer widths", str(WIDE)): "41c8e57412c8a55f09cd03908bc168f5898117735ad707408936b8ddf23f97e9",
    ("per-layer widths", "two_point:0.15,10"): "6a782a2281afc4f6318aedf24b59dae7c7c0d479391d3641e2aad5becf6a145b",
    ("skip past the last layer", "none"): "1468a18881a04d91d4626695cf2306eece14fcea3b1a2bac068b5a576e5be1cb",
    ("skip past the last layer", "uniform:-3,5"): "fb17ed4a78a3de77d456d07477822451939df4f025341bfec1441f8f877e4e87",
    ("skip past the last layer", "uniform:4,4"): "e3de9583696ab01c082b58a2f7fd54f9fcaf035538d770a61546ab19bca5d760",
    ("skip past the last layer", str(WIDE)): "13f3f2329e0faa56fc85342890736c43218b1abbf08ba6aa85f176a422c40bfa",
    ("skip past the last layer", "two_point:0.15,10"): (
        "c9ce4195be75df04070a892175e085a735549224e884c4f5d55af873c79d19f3"
    ),
    ("every edge", "none"): "587b4faace3df3b6e1f3addd33a881af5574d41f343f7794ef41e3bbe704eec0",
    ("every edge", "uniform:-3,5"): "559cd0529b7bbcfa3a001b4f7ee2ccefbd96f7cb4019e8b2f01bab430d47b9a7",
    ("every edge", "uniform:4,4"): "285c8f15122f5d5983f6ed3e774ee91c493c34e3e75a1fb373ba6b791c7e3240",
    ("every edge", str(WIDE)): "c08541b1f2dc40c284036a85d2c21d6892348bda5f8e4945cdc3645d331ed9ae",
    ("every edge", "two_point:0.15,10"): "d7490d1d7e29a9b72b78b8231edf3475867b1dff908985a07d461211743f40ec",
    ("small batch", "none"): "34af140fe26e591d1131cde43cb49e0845bbbbc70261fed67ba2ed1438a9d2a8",
    ("small batch", "uniform:-3,5"): "55fec50bcdde11880383eef1e3ed1241952e8419d2795c78a89a30e9d2edeab1",
    ("small batch", "uniform:4,4"): "fb2a0bfb19af61adbfba7293db83aece113f3adca710d2953f5845741c5f1954",
    ("small batch", str(WIDE)): "8b5ebdd786f0026086c9736c9f8e64f3fdb2ba1b00f1c283336fe3634ea5bfe6",
    ("small batch", "two_point:0.15,10"): "2f8c47a35d66836d22a8525ce2483236bf7d2a11679617828849275b7efe1dbd",
}


@pytest.mark.parametrize("shape, noise", SIMULATED)
def test_simulated_csvs_keep_their_pinned_bytes(shape, noise):
    net = generate_dag(GeneratorConfig(**SIMULATED_SHAPES[shape]))
    digest = hashlib.sha256()
    for seed in (0, 7, 2**32 + 5, 2**64 + 3):  # one to three words of seed entropy
        for slack in (0, 1):
            for clamp in (True, False):
                sim = simulate_delays(net, PropagationConfig(slack, clamp), SIMULATED_NOISES[noise], seed)
                digest.update(activities_csv(sim.nodes).encode())
    assert digest.hexdigest() == SIMULATED[shape, noise]


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

    def test_unknown_shock_id_with_a_bad_value_still_raises_key_error(self, path3):
        with pytest.raises(KeyError):
            simulate_delays(path3, QUIET, NoiseSpec.none(), seed=1, shocks={"zz": 2.5})

    @pytest.mark.parametrize("days", [2.7, -2.7, 3.0, "3", True, None])
    def test_shock_must_be_whole_days(self, path3, days):
        with pytest.raises(ValueError, match="shock for activity 'a' must be a whole number of days"):
            simulate_delays(path3, QUIET, NoiseSpec.uniform(0, 3), seed=1, shocks={"a": days})

    @pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.uniform(0, 3), NoiseSpec.two_point(0.5, 2)])
    @pytest.mark.parametrize("seed", [1.0, 2.5, "1", True])
    def test_seed_must_be_an_integer(self, path3, noise, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_delays(path3, QUIET, noise, seed=seed)

    def test_numpy_integers_count_as_integers(self, path3):
        noise = NoiseSpec.uniform(-2, 4)
        expected = simulate_delays(path3, QUIET, noise, seed=9, shocks={"b": 3})
        assert simulate_delays(path3, QUIET, noise, seed=np.int64(9), shocks={"b": np.int32(3)}) == expected

    def test_no_generator_is_built_per_activity(self, diamond, monkeypatch):
        for name in ("default_rng", "SeedSequence", "PCG64", "Generator"):
            monkeypatch.setattr(np.random, name, None)
        for noise in (NoiseSpec.uniform(-2, 4), NoiseSpec.two_point(0.5, 3)):
            simulate_delays(diamond, QUIET, noise, seed=2)


def id_hash(node_id):
    return int.from_bytes(hashlib.sha256(node_id.encode("utf-8")).digest()[:8], "big")


class TestBulkDraws:
    """The bulk PCG64 draws against numpy's own SeedSequence, PCG64 and Generator."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8), min_size=1, max_size=6))
    def test_seed_state_equals_seed_sequence(self, rows):
        # rows of 1-8 words side by side: padded pools, the extra mixing loop, and one-word id hashes
        entropy = np.zeros((len(rows), 8), dtype=np.uint32)
        for k, row in enumerate(rows):
            entropy[k, : len(row)] = row
        state = np.column_stack(_seed_state(entropy, np.array([len(row) for row in rows])))
        for k, row in enumerate(rows):
            assert state[k].tolist() == np.random.SeedSequence(row).generate_state(4, np.uint64).tolist()

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(
        seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**130)),
        ids=st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8, unique=True),
        noise=st.sampled_from([
            NoiseSpec.uniform(-3, 5), NoiseSpec.uniform(4, 4), NoiseSpec.uniform(-DAYS_BEFORE, DAYS_BEFORE),
            NoiseSpec.two_point(0.15, 10), NoiseSpec.two_point(1.0, -4), NoiseSpec.two_point(0.0, 2),
        ]),
    )
    def test_draws_equal_noise_spec_draw(self, seed, ids, noise):
        first, second = _noise_draws(noise, seed, ids)
        for node_id, start, end in zip(ids, first, second):
            rng = np.random.default_rng([seed, id_hash(node_id)])
            assert (noise.draw(rng), noise.draw(rng)) == (start, end)

    @pytest.mark.parametrize("span", [0, 1, 9, 3 * 2**20, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 2])
    def test_bounded_draws_equal_numpy_integers(self, span):
        # spans past 2**31 reject up to half the draws, so rows re-draw, some more than once
        ids = [f"A{i:05d}" for i in range(64)]
        streams = _Streams(7, ids)
        draws = [_integers(streams, -5, span).tolist() for _ in range(3)]
        for k, node_id in enumerate(ids):
            rng = np.random.default_rng([7, id_hash(node_id)])
            assert [int(rng.integers(-5, -4 + span)) for _ in range(3)] == [d[k] for d in draws]
