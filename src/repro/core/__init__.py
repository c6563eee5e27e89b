"""The paper's primary contribution: probabilistic nucleus decomposition.

Public entry points:

* :func:`local_nucleus_decomposition` — ℓ-NuDecomp (Algorithm 1), exact DP or
  statistically approximated support scores.
* :func:`global_nucleus_decomposition` — g-NuDecomp (Algorithm 2),
  pruning + Monte-Carlo verification.
* :func:`weak_nucleus_decomposition` — w-NuDecomp (Algorithm 3),
  per-candidate Monte-Carlo scoring.
* The support estimators of :mod:`repro.core.approximations` and the §5.3
  :class:`HybridEstimator`.
* The array-native peel engine of :mod:`repro.core.peel`
  (:func:`peel_kappa_scores` + the :class:`KappaRepair` hooks), which every
  decomposition runs on: level-synchronous rounds with batched exact-DP
  repairs for the exact oracle, a lazy heap for the approximations.
"""

from repro.core.approximations import (
    BinomialEstimator,
    DynamicProgrammingEstimator,
    NormalEstimator,
    PoissonEstimator,
    SupportEstimator,
    TranslatedPoissonEstimator,
    le_cam_error_bound,
)
from repro.core.global_nucleus import (
    candidate_closure,
    global_nucleus_decomposition,
    union_of_nuclei,
)
from repro.core.batch import (
    CSRTriangleIndex,
    batched_initial_kappas,
    build_triangle_extension_index,
)
from repro.core.hybrid import HybridEstimator, HybridParameters
from repro.core.peel import (
    EstimatorKappaRepair,
    KappaRepair,
    peel_kappa_scores,
)
from repro.core.local import local_nucleus_decomposition
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.core.support_dp import (
    NO_VALID_K,
    max_k_at_threshold,
    poisson_binomial_pmf,
    support_tail_probabilities,
)
from repro.core.weak_nucleus import weak_nucleus_decomposition

__all__ = [
    "CSRTriangleIndex",
    "batched_initial_kappas",
    "build_triangle_extension_index",
    "BinomialEstimator",
    "DynamicProgrammingEstimator",
    "NormalEstimator",
    "PoissonEstimator",
    "SupportEstimator",
    "TranslatedPoissonEstimator",
    "le_cam_error_bound",
    "HybridEstimator",
    "HybridParameters",
    "KappaRepair",
    "EstimatorKappaRepair",
    "peel_kappa_scores",
    "candidate_closure",
    "global_nucleus_decomposition",
    "union_of_nuclei",
    "local_nucleus_decomposition",
    "LocalNucleusDecomposition",
    "ProbabilisticNucleus",
    "NO_VALID_K",
    "max_k_at_threshold",
    "poisson_binomial_pmf",
    "support_tail_probabilities",
    "weak_nucleus_decomposition",
]
