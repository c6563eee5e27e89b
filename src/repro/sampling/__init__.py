"""Monte-Carlo machinery: sample sizes, world-probability estimation, reliability.

Two sampling engines live here: the scalar helpers of
:mod:`repro.sampling.monte_carlo` (one dict-backed world at a time) and the
vectorized world-matrix engine of :mod:`repro.sampling.world_matrix` that
verifies the candidates of the global and weakly-global decompositions.
:mod:`repro.sampling.adaptive` holds the one verification loop over the
matrix engine: ``sampling="fixed"`` is its one-chunk schedule,
``sampling="adaptive"`` its geometric chunks with anytime-valid confidence
bounds that stop each candidate as soon as its θ decision is settled, and
both draw every chunk in memory-bounded row blocks.
"""

from repro.sampling.adaptive import (
    SAMPLING_MODES,
    AdaptiveOutcome,
    AdaptiveSettings,
    adaptive_global_verify,
    adaptive_weak_scores,
    chunk_schedule,
    decision_radius,
    empirical_bernstein_radius,
    hoeffding_radius,
    resolve_adaptive_settings,
    stage_delta,
)
from repro.sampling.monte_carlo import (
    MonteCarloEstimate,
    estimate_world_probability,
    hoeffding_error_bound,
    hoeffding_sample_size,
)
from repro.sampling.reliability import (
    binary_search_reliability,
    estimate_reliability,
    exact_reliability,
    reliability_decision,
)
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    WorldShardPool,
    as_numpy_generator,
    global_triangle_counts,
    nucleus_world_mask,
    sample_world_matrix,
    structure_presence,
    weak_membership_counts,
    world_from_row,
)

__all__ = [
    "SAMPLING_MODES",
    "AdaptiveOutcome",
    "AdaptiveSettings",
    "adaptive_global_verify",
    "adaptive_weak_scores",
    "chunk_schedule",
    "decision_radius",
    "empirical_bernstein_radius",
    "hoeffding_radius",
    "resolve_adaptive_settings",
    "stage_delta",
    "MonteCarloEstimate",
    "estimate_world_probability",
    "hoeffding_error_bound",
    "hoeffding_sample_size",
    "binary_search_reliability",
    "estimate_reliability",
    "exact_reliability",
    "reliability_decision",
    "CandidateWorldIndex",
    "WorldShardPool",
    "as_numpy_generator",
    "global_triangle_counts",
    "nucleus_world_mask",
    "sample_world_matrix",
    "structure_presence",
    "weak_membership_counts",
    "world_from_row",
]
