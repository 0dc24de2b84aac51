"""
Which node metric knows the most about performance?
===================================================

Mutual information makes no linearity assumption, so it is a fair way to
compare candidate node metrics against a target indicator. Both variables
are cut into floor(sqrt(n)) equal-width bins, the joint frequency matrix
is tallied, and MI is read off the plug-in formula.

Eight candidates enter: in/out degree, betweenness, closeness, reverse
closeness, descendant and ancestor counts, and local RH.
"""

import math

from schednet import (
    GeneratorConfig,
    NoiseSpec,
    PropagationConfig,
    benchmark_metrics,
    generate_dag,
    simulate_delays,
    start_delay,
)

network = generate_dag(
    GeneratorConfig(layer_count=40, layer_width=(30, 30, 2, 2) * 10,
                    edge_probability=0.025, skip_depth=3, seed=2)
)
simulated = simulate_delays(
    network,
    PropagationConfig(slack_days=1, clamp_negative=True),
    NoiseSpec.two_point(0.1, 14),
    seed=1002,
)
delays = start_delay(simulated)

report = benchmark_metrics(simulated, delays)

print(f"{network.n} activities, {report.n_bins} bins per axis\n")
print(f"{'metric':20s} {'MI (nats)':>10s} {'MI (bits)':>10s} {'rank':>5s}")
for entry in sorted(report.entries, key=lambda e: e.rank):
    print(f"{entry.metric:20s} {entry.mi:10.3f} {entry.mi / math.log(2):10.3f} {entry.rank:5d}")

print("\nDegrees look only one hop out and land at the bottom; reach-based")
print("metrics, local RH among them, carry far more information about delay.")
