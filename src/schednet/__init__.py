"""Activity-network analytics for project schedules.

Build a directed acyclic activity network from a schedule, measure its
reachability heterogeneity globally and per node, compare eight per-node
metrics against activity delays with binned statistics and mutual
information, and generate reproducible synthetic schedules for
experimentation.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    CycleDetected,
    DegenerateConfig,
    DegenerateMetricWarning,
    DegenerateNormalization,
    DuplicateActivityId,
    EmptyNetwork,
    InsufficientData,
    NoValidDelays,
    ScheduleParseError,
    SchednetError,
    SelfLoop,
    UnknownActivityId,
    UnknownNode,
)
from .heterogeneity import (
    HeterogeneityScore,
    LocalRHVector,
    estrada_rho,
    rh_global,
    rh_local,
    rh_local_all,
)
from .infoanalysis import (
    BenchmarkEntry,
    BenchmarkReport,
    FrequencyMatrix,
    benchmark_metrics,
    default_bin_count,
    frequency_matrix,
    mutual_information,
)
from .metrics import (
    METRIC_NAMES,
    MetricVector,
    betweenness,
    closeness,
    degree_metrics,
    metric_suite,
    metric_vector,
)
from .network import (
    ActivityNetwork,
    ActivityRecord,
    ComponentSummary,
    Dependency,
    build_network,
    prune_isolated,
    topological_order,
    weakly_connected_components,
)
from .performance import (
    BinnedStats,
    DelayVector,
    bin_by_metric,
    end_delay,
    start_delay,
    suggest_bin_count,
)
from .reachability import (
    ReachabilityTable,
    TailDistribution,
    reachability_table,
    tail_distribution,
    tail_distribution_csv,
)
from .schedule_io import (
    load_network,
    network_from_json,
    network_to_json,
    read_activities,
    read_dependencies,
    write_activities,
    write_dependencies,
)
from .synthgen import (
    GeneratorConfig,
    NoiseSpec,
    PropagationConfig,
    generate_dag,
    simulate_delays,
)

__all__ = [
    "__version__",
    # network
    "ActivityRecord",
    "Dependency",
    "ActivityNetwork",
    "ComponentSummary",
    "build_network",
    "prune_isolated",
    "topological_order",
    "weakly_connected_components",
    # reachability
    "ReachabilityTable",
    "TailDistribution",
    "reachability_table",
    "tail_distribution",
    "tail_distribution_csv",
    # heterogeneity
    "HeterogeneityScore",
    "LocalRHVector",
    "estrada_rho",
    "rh_global",
    "rh_local",
    "rh_local_all",
    # metrics
    "METRIC_NAMES",
    "MetricVector",
    "degree_metrics",
    "betweenness",
    "closeness",
    "metric_suite",
    "metric_vector",
    # performance
    "DelayVector",
    "BinnedStats",
    "start_delay",
    "end_delay",
    "bin_by_metric",
    "suggest_bin_count",
    # info analysis
    "FrequencyMatrix",
    "BenchmarkEntry",
    "BenchmarkReport",
    "frequency_matrix",
    "default_bin_count",
    "mutual_information",
    "benchmark_metrics",
    # synthetic schedules
    "GeneratorConfig",
    "PropagationConfig",
    "NoiseSpec",
    "generate_dag",
    "simulate_delays",
    # io
    "read_activities",
    "read_dependencies",
    "write_activities",
    "write_dependencies",
    "load_network",
    "network_to_json",
    "network_from_json",
    # errors
    "SchednetError",
    "ScheduleParseError",
    "DuplicateActivityId",
    "UnknownActivityId",
    "SelfLoop",
    "CycleDetected",
    "EmptyNetwork",
    "UnknownNode",
    "NoValidDelays",
    "InsufficientData",
    "DegenerateConfig",
    "DegenerateNormalization",
    "DegenerateMetricWarning",
]
