"""Local probabilistic nucleus decomposition (ℓ-NuDecomp, Algorithm 1).

The local model asks, for every triangle ``△`` of a candidate subgraph, that
``Pr(X_{H,△,ℓ} ≥ k) ≥ θ`` — the triangle is contained in at least ``k``
4-cliques with probability at least ``θ``, triangles judged independently of
one another.  The paper proves this decomposition is computable in polynomial
time and gives a peeling algorithm driven by per-triangle κ-scores.

The implementation below follows Algorithm 1:

1. index all triangles and 4-cliques once
   (:func:`repro.core.batch.build_triangle_extension_index`);
2. initialise each triangle's κ-score as the largest ``k`` whose threshold
   condition holds, using a pluggable support estimator — exact dynamic
   programming (``DP`` in the paper) or the §5.3 statistical approximations
   (``AP``);
3. repeatedly "peel" an unprocessed triangle with minimum κ; its nucleus
   score ν is the current peel level; every 4-clique through it dies and the
   κ-scores of the affected triangles are recomputed from their surviving
   cliques;
4. return the scores wrapped in a :class:`LocalNucleusDecomposition`, from
   which the maximal ℓ-(k, θ)-nuclei can be extracted for any ``k``; the
   result keeps the engine index of the graph it compiled, which the index
   snapshot and the global and weak verifiers reuse.

One engine implements it: :mod:`repro.core.batch` builds flat triangle ⇄
4-clique incidence arrays and the vectorized initial κ-scores, and
:mod:`repro.core.peel` runs the peel over those arrays in level-synchronous
rounds (each round's exact-DP repairs one batched κ-init call), translating
back to canonical label space only once, for the final score dictionary
(:func:`~repro.deterministic.cliques.label_triangles`).  No triangle or
4-clique objects are materialised on the way.

Triangles whose own existence probability is below θ receive the sentinel
score ``-1`` and are peeled first; they cannot belong to any nucleus.
"""

from __future__ import annotations

import numpy as np

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.core.batch import (
    CSRTriangleIndex,
    batched_initial_kappas,
    build_triangle_extension_index,
)
from repro.core.hybrid import HybridEstimator
from repro.core.peel import EstimatorKappaRepair, peel_kappa_scores
from repro.core.result import LocalNucleusDecomposition
from repro.deterministic.cliques import label_triangles
from repro.exceptions import InvalidParameterError, check_retired_knobs, check_theta
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph

__all__ = ["local_nucleus_decomposition"]


def resolve_local_options(
    theta: float, estimator: SupportEstimator | None
) -> SupportEstimator:
    """Validate ``theta`` and ``estimator`` and resolve the default support estimator.

    Shared by :func:`local_nucleus_decomposition`, the global and weak
    drivers and the index builder
    (:func:`repro.index.builders.build_local_index`) so parameter validation
    and the default oracle cannot drift apart.  ``estimator`` must be
    ``None`` (the exact DP) or a
    :class:`~repro.core.approximations.SupportEstimator` instance; anything
    else — a name, a class — raises
    :class:`~repro.exceptions.InvalidParameterError` naming ``estimator``.
    """
    check_theta(theta)
    if estimator is None:
        return DynamicProgrammingEstimator()
    if not isinstance(estimator, SupportEstimator):
        raise InvalidParameterError(
            f"estimator must be a SupportEstimator instance, got {estimator!r}"
        )
    return estimator


def _csr_engine_arrays(
    csr: CSRProbabilisticGraph,
    theta: float,
    estimator: SupportEstimator,
) -> tuple[CSRTriangleIndex, np.ndarray]:
    """Run the array-native CSR pipeline: index → batched κ-init → peel.

    Returns the flat triangle index and the per-triangle ν scores (``int64``,
    parallel to ``index.triangles``).  No label-space structures are built;
    :func:`repro.index.builders.build_local_index` snapshots these arrays
    into a :class:`~repro.index.NucleusIndex` directly.
    """
    index = build_triangle_extension_index(csr)
    kappas = batched_initial_kappas(index, theta, estimator)
    repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, theta)
    return index, peel_kappa_scores(index, kappas, repair)


def local_nucleus_decomposition(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    theta: float,
    estimator: SupportEstimator | None = None,
    **retired,
) -> LocalNucleusDecomposition:
    """Compute the local probabilistic nucleus decomposition of ``graph``.

    Parameters
    ----------
    graph:
        The probabilistic graph to decompose.  A
        :class:`~repro.graph.csr.CSRProbabilisticGraph` is also accepted and
        skips the compile step.
    theta:
        Probability threshold ``θ ∈ [0, 1]`` of Definition 5.
    estimator:
        Support oracle used to evaluate κ-scores.  Defaults to exact dynamic
        programming (the paper's ``DP`` algorithm); pass a
        :class:`~repro.core.hybrid.HybridEstimator` to obtain the paper's
        ``AP`` algorithm, or any single approximation from
        :mod:`repro.core.approximations`.
    retired:
        The retired engine switches ``backend`` and ``kernel``, kept for
        ``__api_version__ = "1"`` by keyword only; see
        :func:`~repro.exceptions.check_retired_knobs`.

    Returns
    -------
    LocalNucleusDecomposition
        Per-triangle nucleus scores plus nuclei extraction helpers.

    Notes
    -----
    The peel clamps assigned scores to the current peel level, which keeps
    the ν values monotone along the peel order — the same argument used for
    deterministic generalized-core peeling (Batagelj–Zaveršnik) that the
    paper invokes.  Because the repaired κ of a triangle depends only on its
    surviving clique set (and removing cliques never raises the exact tail),
    the final scores do not depend on which minimum-κ triangle is peeled
    first.
    """
    check_retired_knobs("local_nucleus_decomposition", retired, ("backend", "kernel"))
    estimator = resolve_local_options(theta, estimator)

    compiled = not isinstance(graph, CSRProbabilisticGraph)
    if compiled:
        csr = graph.to_csr()
    else:
        csr, graph = graph, graph.to_probabilistic()
    index, engine_scores = _csr_engine_arrays(csr, theta, estimator)

    selections = (
        dict(estimator.selection_counts)
        if isinstance(estimator, HybridEstimator)
        else None
    )
    result = LocalNucleusDecomposition(
        graph=graph,
        theta=theta,
        scores=dict(
            zip(label_triangles(index.triangles, csr.vertex_labels), engine_scores.tolist())
        ),
        estimator_name=estimator.name,
        estimator_selections=selections,
        # A CSR input need not number its vertices in the canonical label
        # order of the graph's own compile, which the engine index follows.
        engine_index=(csr, index) if compiled else None,
    )
    if compiled:
        # The dict holds these values row for row: hand the array over, read-only
        # and uncopied, instead of reading the dict back onto the rows.
        engine_scores.flags.writeable = False
        missing = np.empty(0, dtype=np.int64)
        missing.flags.writeable = False
        result._row_scores = (engine_scores, missing)
    return result
