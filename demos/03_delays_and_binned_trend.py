"""
Start delays and the binned position-vs-performance trend
=========================================================

Start Delay (actual minus planned start, in days) captures exactly the
fluctuations an activity inherits from upstream, so it is the natural
performance indicator to hold against topological position. This demo
simulates delay propagation on a synthetic project, then groups
activities into equal-width bins of local RH and summarizes the delay
inside each bin: count, mean, median and the 50%/68% central intervals.
"""

import numpy as np

from schednet import (
    GeneratorConfig,
    NoiseSpec,
    PropagationConfig,
    bin_by_metric,
    generate_dag,
    metric_suite,
    simulate_delays,
    start_delay,
    suggest_bin_count,
)

# a funnel-heavy project where a sparse set of shocks spreads downstream
network = generate_dag(
    GeneratorConfig(layer_count=40, layer_width=(30, 30, 2, 2) * 10,
                    edge_probability=0.025, skip_depth=3, seed=2)
)
simulated = simulate_delays(
    network,
    PropagationConfig(slack_days=1, clamp_negative=True),
    NoiseSpec.two_point(0.1, 14),  # 10% of activities suffer a 14-day internal slip
    seed=1002,
)

delays = start_delay(simulated)
values = delays.valid_values()
print(f"{network.n} activities; start delay: min {values.min()}, "
      f"median {np.median(values):.0f}, max {values.max()} days")
print(f"started as planned: {(values == 0).mean():.0%}")

# --- bin the delays along the local RH axis -----------------------------------
axis = next(v for v in metric_suite(simulated) if v.name == "local_rh")
n_bins = suggest_bin_count(axis, delays)
stats = bin_by_metric(axis, delays, n_bins)
print(f"\nstart delay vs local RH ({n_bins} equal-width bins):")
print(f"{'bin range':>24s} {'n':>4s} {'mean':>6s} {'median':>6s} {'q25..q75':>12s}")
for b in range(stats.n_bins):
    if stats.count[b] == 0:
        continue
    lo, hi = stats.bin_edges[b], stats.bin_edges[b + 1]
    print(f"[{lo:+9.4f}, {hi:+9.4f}) {stats.count[b]:4d} "
          f"{stats.mean[b]:6.1f} {stats.median[b]:6.1f} "
          f"{stats.q25[b]:5.1f}..{stats.q75[b]:<5.1f}")

print("\nhigher local RH bins carry longer delays: position predicts performance.")
