"""Exact analysis of K-user parallel interference networks.

The package answers, with rational arithmetic throughout:

* does a sub-channel satisfy the TIN optimality condition?
* what is its sum-GDoF / sum-capacity (three cross-checked solvers)?
* which rate points does the (combined) network support, and do they
  decompose across sub-channels?
* are a partition's participating bit levels recoverable (GF(2) rank)?
* does per-sub-channel TIN coding attain the combined optimum (separability)?
"""

from .cycles import (
    CyclicPartition,
    cycle_count,
    enumerate_cycles,
    enumerate_partitions,
    partition_bound,
    partition_count,
)
from .detmodel import (
    BestTinScheme,
    InvertibilityCertificate,
    InvertibilityVerdict,
    SeparabilityVerdict,
    best_tin_scheme,
    bipartite_acyclic,
    build_gf2_system,
    check_3user_condition,
    dominant_partition_check,
    find_dominant_optimal,
    invertibility_verdict,
    invertible_gf2,
    is_cyclic_topology,
    participating_levels,
    separability_verdict,
    subchannel_invertibility,
    sufficient_invertibility,
    tin_feasible,
)
from .model import (
    ClampWarning,
    CrossCheckError,
    GuardError,
    InputError,
    Network,
    StrengthMatrix,
    TinVerdict,
    TinViolation,
    as_rational,
    check_tin,
    load_network,
    network_to_dict,
    parse_network,
    quantize,
    save_network,
)
from .optimize import (
    LinearProgram,
    LpSolution,
    NetworkSum,
    SumGdofResult,
    all_optimal_partitions,
    best_partition_assignment,
    brute_force_best_weight,
    network_sum,
    nonnegativity_redundancy_check,
    optimal_partition,
    solve_cycle_lp,
    solve_lp,
    sum_gdof,
)
from .region import (
    CombinedSumBounds,
    DecompositionResult,
    MembershipResult,
    RegionConstraint,
    combined_sum_bounds,
    region_contains,
    separate_tin_decomposable,
    tin_region,
)

__version__ = "0.1.0"
