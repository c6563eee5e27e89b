"""Monte-Carlo machinery: sample sizes, world verification, reliability.

One sampling engine lives here, the vectorized world matrix of
:mod:`repro.sampling.world_matrix`: possible worlds are boolean rows over a
graph's edge columns, drawn or enumerated in blocks, and every predicate is
decided for a whole block at once.  :mod:`repro.sampling.verification`
holds the one verification loop of the global and weakly-global
decompositions over it (:func:`global_verify`, :func:`weak_scores`): every
candidate draws exactly ``n_samples`` worlds in memory-bounded row blocks,
counted serially in the calling process, and the point estimates decide θ.
:mod:`repro.sampling.monte_carlo` sizes the samples (Lemma 4), and
:mod:`repro.sampling.reliability` estimates and evaluates network
reliability on the same world blocks.
"""

from repro.sampling.verification import global_verify, weak_scores
from repro.sampling.monte_carlo import (
    MonteCarloEstimate,
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
