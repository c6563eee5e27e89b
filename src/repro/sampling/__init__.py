"""Monte-Carlo machinery: sample sizes, world-probability estimation, reliability.

Two sampling engines live here: the scalar helpers of
:mod:`repro.sampling.monte_carlo` (one dict-backed world at a time) and the
vectorized world-matrix engine of :mod:`repro.sampling.world_matrix` that
verifies the candidates of the global and weakly-global decompositions.
:mod:`repro.sampling.adaptive` holds the one verification loop over the
matrix engine (:func:`global_verify`, :func:`weak_scores`): every candidate
draws exactly ``n_samples`` worlds in memory-bounded row blocks, counted
serially in the calling process, and the point estimates decide θ.
"""

from repro.sampling.adaptive import global_verify, weak_scores
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
    as_numpy_generator,
    global_triangle_counts,
    nucleus_world_mask,
    sample_world_matrix,
    structure_presence,
    weak_membership_counts,
    world_from_row,
)

__all__ = [
    "global_verify",
    "weak_scores",
    "MonteCarloEstimate",
    "estimate_world_probability",
    "hoeffding_error_bound",
    "hoeffding_sample_size",
    "binary_search_reliability",
    "estimate_reliability",
    "exact_reliability",
    "reliability_decision",
    "CandidateWorldIndex",
    "as_numpy_generator",
    "global_triangle_counts",
    "nucleus_world_mask",
    "sample_world_matrix",
    "structure_presence",
    "weak_membership_counts",
    "world_from_row",
]
