"""Weakly-global probabilistic nucleus decomposition (w-NuDecomp, Algorithm 3).

The weakly-global model relaxes the global one: a possible world counts for a
triangle when it merely *contains* a deterministic k-nucleus that includes
the triangle (rather than being one in its entirety).  Computing the
decomposition exactly is NP-hard (Theorem 4.2, reduction from k-clique), so
Algorithm 3 approximates it:

1. every w-(k, θ)-nucleus is an ℓ-(k, θ)-nucleus, so each local nucleus is
   used as a candidate: the member rows of its group in the local result's
   level sweep on the engine arrays, listed in the dict grouping's
   component order
   (:meth:`~repro.core.result.LocalNucleusDecomposition._candidate_rows`,
   which replays that order without the label-space 4-clique index), since
   the candidates draw their worlds from one shared generator in turn;
2. ``n`` possible worlds of the candidate are sampled;
3. each world is decomposed with the *deterministic* nucleus algorithm; a
   triangle's global score counts the worlds in which it belongs to some
   deterministic k-nucleus.  Steps 2–3 run in the one fixed-``n`` loop of
   :mod:`repro.sampling.verification`
   (:func:`~repro.sampling.verification.weak_scores`), which draws exactly ``n``
   worlds in memory-bounded row blocks;
4. the triangles whose estimated probability reaches θ are grouped into
   4-clique-connected components, which are reported as the weakly-global
   nuclei.  The grouping runs on the arrays of the candidate's
   :class:`~repro.sampling.world_matrix.CandidateWorldIndex`, the one step 2
   samples: restricted out of the local result's world index of the whole
   graph by the candidate's rows, neither compiled nor built as a subgraph.
   A 4-clique is allowed when its four member triangles qualify, and the
   allowed 4-cliques join their triangles in a union-find forest
   (:mod:`repro.core.components`).  Only the reported nuclei are built as
   subgraphs.

With telemetry on, taking the candidates runs in a ``weak.candidates``
span, and ``repro_candidates_total{model="weak", stage}`` counts the
candidates scored (``generated``) and those that yield a w-nucleus
(``accepted``).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np

from repro.core.approximations import SupportEstimator
from repro.core.components import _root_groups, _union_batches
from repro.core.global_nucleus import _count_stages, _monte_carlo_prologue
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.deterministic.nucleus import triangles_to_edge_subgraph
from repro.exceptions import check_retired_knobs
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.obs.spans import span
from repro.sampling.verification import _weak_scores
from repro.sampling.world_matrix import CandidateWorldIndex

__all__ = ["weak_nucleus_decomposition"]

#: A candidate of :func:`_weak_nuclei`: engine rows in production, a nucleus
#: in the oracles.
_Candidate = TypeVar("_Candidate")


def weak_nucleus_decomposition(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    k: int,
    theta: float,
    epsilon: float = 0.1,
    delta: float = 0.1,
    n_samples: int | None = None,
    estimator: SupportEstimator | None = None,
    local_result: LocalNucleusDecomposition | None = None,
    rng: "random.Random | np.random.Generator | None" = None,
    seed: int | None = None,
    **retired,
) -> list[ProbabilisticNucleus]:
    """Find (approximate) w-(k, θ)-nuclei of ``graph`` via Algorithm 3.

    Parameters mirror
    :func:`repro.core.global_nucleus.global_nucleus_decomposition`, the
    nine retired knobs in ``retired`` included
    (:func:`~repro.exceptions.check_retired_knobs`); the returned nuclei
    carry ``mode="weakly-global"``.  The candidate-producing local
    decomposition runs on the peel of :mod:`repro.core.peel` (see
    :func:`repro.core.local.local_nucleus_decomposition`).  The candidates
    are the local result's engine groups at level ``k`` in the dict
    grouping's component order
    (:meth:`~repro.core.result.LocalNucleusDecomposition._candidate_rows`),
    so every answer equals the one of the dict candidates scored in turn on
    the same generator.  Each candidate's world index is restricted out of
    the result's world index by its rows, and each is scored serially on
    exactly ``n_samples`` worlds by the one verification loop of
    :mod:`repro.sampling.verification`, in memory-bounded world blocks.

    On a K5 whose edges all have p = 0.9, the whole clique is the one
    w-(1, 0.3)-nucleus:

    >>> from repro.graph.generators import clique_graph
    >>> graph = clique_graph(5, probability=0.9)
    >>> nuclei = weak_nucleus_decomposition(graph, 1, 0.3, seed=1)
    >>> [(nucleus.num_vertices, len(nucleus.triangles)) for nucleus in nuclei]
    [(5, 10)]
    """
    check_retired_knobs("weak_nucleus_decomposition", retired)
    graph, local, k, n_samples, generator = _monte_carlo_prologue(
        graph, k, theta, epsilon, delta, n_samples, estimator, local_result, rng, seed
    )
    with span("weak.candidates", k=k) as candidates_span:
        candidates = local._candidate_rows(k)
        candidates_span.annotate(
            candidates=len(candidates), triangles=sum(rows.size for rows in candidates)
        )

    def qualifying(rows: np.ndarray) -> tuple[CandidateWorldIndex, np.ndarray]:
        index = local._rows_index(rows)
        _, chosen = _weak_scores(index, k, theta, n_samples, rng=generator)
        return index, chosen

    return _weak_nuclei(graph, candidates, k, theta, qualifying)


def _weak_nuclei(
    graph: ProbabilisticGraph,
    candidates: Sequence[_Candidate],
    k: int,
    theta: float,
    qualifying: Callable[[_Candidate], tuple[CandidateWorldIndex, np.ndarray]],
) -> list[ProbabilisticNucleus]:
    """Group each candidate's qualifying triangles into w-nuclei (Algorithm 3).

    ``qualifying(candidate)`` returns the
    :class:`~repro.sampling.world_matrix.CandidateWorldIndex` of a
    local-nucleus candidate (production passes its engine rows and restricts
    its index out of the local result's world index; the oracles pass
    nuclei) and the boolean mask of its triangle rows whose estimated weak
    score reaches θ.  A 4-clique is allowed when all four of its triangles
    qualify, a qualifying triangle is covered when some allowed clique
    contains it, and the allowed cliques join their triangles in one
    union-find forest; each component of covered triangles is one nucleus.
    A candidate's nuclei come out ordered by their smallest triangle row.
    With telemetry on, ``repro_candidates_total{model="weak", stage}``
    counts the candidates scored (``generated``) and those that yield at
    least one nucleus (``accepted``).
    """
    solutions: list[ProbabilisticNucleus] = []
    accepted = 0
    for candidate in candidates:
        index, chosen = qualifying(candidate)
        allowed = index.clique_triangles[chosen[index.clique_triangles].all(axis=1)]
        if not allowed.size:
            continue
        accepted += 1
        parent = _union_batches(
            np.arange(index.num_triangles), np.repeat(allowed[:, 0], 3), allowed[:, 1:].ravel()
        )
        labels = index.triangle_labels()
        for rows in _root_groups(parent, np.unique(allowed)):
            component = [labels[row] for row in rows.tolist()]
            solutions.append(
                ProbabilisticNucleus(
                    k=k,
                    theta=theta,
                    mode="weakly-global",
                    subgraph=triangles_to_edge_subgraph(graph, component),
                    triangles=frozenset(component),
                )
            )
    _count_stages("weak", generated=len(candidates), accepted=accepted)
    return solutions
