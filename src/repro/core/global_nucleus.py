"""Global probabilistic nucleus decomposition (g-NuDecomp, Algorithm 2).

The global model is the strictest of the three: a candidate subgraph ``H`` is
a g-(k, θ)-nucleus when, for every triangle ``△`` of ``H``, the probability
that a sampled possible world of ``H`` both contains ``△`` and *is itself a
deterministic k-nucleus* reaches θ.  Computing this exactly is #P-hard
(Theorem 4.1), so the paper's Algorithm 2 combines two ideas:

* **search-space pruning** — every g-(k, θ)-nucleus is contained in an
  ℓ-(k, θ)-nucleus, so candidates are grown only inside the union ``C`` of
  local nuclei;
* **Monte-Carlo verification** — the per-triangle probabilities are estimated
  from ``n`` sampled worlds with Hoeffding-controlled error (ε = δ = 0.1,
  n = 200 in the paper's experiments).  Every candidate goes through the one
  sequential loop of :mod:`repro.sampling.adaptive`: ``sampling="fixed"``
  is its one-chunk schedule of ``n`` worlds, ``sampling="adaptive"`` its
  geometric schedule with confidence-driven early stopping, and both draw
  the worlds in memory-bounded row blocks.

The candidate for a triangle is the closure of its 4-cliques inside ``C``
under the rule "every triangle of the candidate must be covered by at least
``k`` 4-cliques of the candidate"; closures that cannot be completed within
``C`` are still sampled and simply fail verification, matching the paper's
"approximate solution" remark.

The candidate loop runs in the id space of ``C``: ``C`` is compiled once into
a :class:`~repro.sampling.world_matrix.CandidateWorldIndex`, each closure is
a 4-clique-id frontier over its triangle ⇄ 4-clique arrays, and each
candidate is verified on :meth:`~repro.sampling.world_matrix.CandidateWorldIndex.restrict`
of those arrays to its edges — array for array the index of the candidate
subgraph, so every candidate draws the same worlds as a compile of that
subgraph would.  A :class:`~repro.graph.probabilistic_graph.ProbabilisticGraph`
is built only for accepted candidates.  :func:`candidate_closure` is the
label-space reference of the closure.
"""

from __future__ import annotations

import random
import warnings
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.approximations import SupportEstimator
from repro.core.local import check_backend, local_nucleus_decomposition, resolve_local_options
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.deterministic.cliques import (
    FourClique,
    Triangle,
    concatenated_rows,
    enumerate_triangles,
    triangles_of_clique,
)
from repro.exceptions import InvalidParameterError, _require_positive_int, check_level
from repro.graph.csr import CSRProbabilisticGraph
from repro.kernels import resolve_kernel
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.sampling.adaptive import (
    DEFAULT_CHUNK_GROWTH,
    DEFAULT_CHUNK_INITIAL,
    DEFAULT_CONFIDENCE,
    AdaptiveSettings,
    adaptive_global_verify,
    resolve_adaptive_settings,
)
from repro.sampling.monte_carlo import hoeffding_sample_size
from repro.sampling.world_matrix import CandidateWorldIndex, as_numpy_generator

__all__ = [
    "global_nucleus_decomposition",
    "candidate_closure",
    "check_retired_knob",
    "union_of_nuclei",
]


def validate_sampling_options(
    sampling: str = "fixed",
    confidence: float = DEFAULT_CONFIDENCE,
    n_worlds_max: int | None = None,
    chunk_initial: int = DEFAULT_CHUNK_INITIAL,
    chunk_growth: float = DEFAULT_CHUNK_GROWTH,
    n_samples: int | None = None,
    kernel: str = "numpy",
) -> AdaptiveSettings:
    """Validate the engine knobs of Algorithms 2 and 3; the one validator.

    Used by both drivers and by
    :class:`~repro.experiments.pipeline.RunConfig`.  The sampling knobs,
    ``n_samples`` included, are checked by
    :func:`~repro.sampling.adaptive.resolve_adaptive_settings`.
    Returns the validated :class:`~repro.sampling.adaptive.AdaptiveSettings`
    of the one verification loop: the one-chunk schedule ``(n_samples,)``
    for ``sampling="fixed"``, the geometric schedule for
    ``sampling="adaptive"``.  Out-of-range or non-finite knobs raise
    :class:`~repro.exceptions.InvalidParameterError` here, before any
    sampling starts.
    """
    settings = resolve_adaptive_settings(
        sampling,
        confidence=confidence,
        n_worlds_max=n_worlds_max,
        chunk_initial=chunk_initial,
        chunk_growth=chunk_growth,
        n_samples=n_samples,
    )
    resolve_kernel(kernel, warn=False)
    return settings


#: The retired positive-integer knobs of ``__api_version__ = "1"``, and why
#: each one no longer does anything.
_RETIRED_KNOBS = {
    "partitions": "every candidate is verified in memory-bounded world blocks",
    "n_jobs": "every candidate is verified serially",
}


def check_retired_knob(name: str, value: int) -> None:
    """Accept a retired knob of ``__api_version__ = "1"``: ``partitions`` or ``n_jobs``.

    Every candidate is verified in memory-bounded world blocks, in the
    calling process, by the one loop of :mod:`repro.sampling.adaptive`, so
    there is nothing left to partition or to shard.  ``1`` passes silently;
    any other positive integer warns with a :class:`DeprecationWarning` and
    runs the one loop; a non-positive or non-integer value raises
    :class:`~repro.exceptions.InvalidParameterError` naming the knob.
    """
    if _require_positive_int(name, value) == 1:
        return
    warnings.warn(
        f"{name}= is deprecated: {_RETIRED_KNOBS[name]}; omit {name}=",
        DeprecationWarning,
        stacklevel=3,
    )


def local_pruning(
    graph: ProbabilisticGraph,
    theta: float,
    estimator: SupportEstimator | None,
    kernel: str,
    local_result: LocalNucleusDecomposition | None,
) -> LocalNucleusDecomposition:
    """The local decomposition Algorithms 2 and 3 prune their candidates with.

    ``local_result`` is reused only when it is a
    :class:`~repro.core.result.LocalNucleusDecomposition` computed at this θ
    on ``graph`` or a graph equal to it; otherwise it raises
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    if local_result is None:
        return local_nucleus_decomposition(graph, theta, estimator=estimator, kernel=kernel)
    if not isinstance(local_result, LocalNucleusDecomposition):
        raise InvalidParameterError(
            "local_result must be a LocalNucleusDecomposition, "
            f"got {type(local_result).__name__}"
        )
    if local_result.theta != theta:
        raise InvalidParameterError(
            f"local_result was computed at theta={local_result.theta!r}, "
            f"not at theta={theta!r}"
        )
    if local_result.graph is not graph and local_result.graph != graph:
        raise InvalidParameterError("local_result was computed for a different graph")
    return local_result


def union_of_nuclei(nuclei: Sequence[ProbabilisticNucleus]) -> ProbabilisticGraph:
    """Return the edge-union of a collection of nuclei as one probabilistic graph."""
    union = ProbabilisticGraph()
    for nucleus in nuclei:
        for u, v, p in nucleus.subgraph.edges():
            if not union.has_edge(u, v):
                union.add_edge(u, v, p)
    return union


def candidate_closure(
    candidate_graph: ProbabilisticGraph,
    seed_triangle: Triangle,
    k: int,
    by_triangle: dict[Triangle, list[FourClique]],
) -> set[FourClique]:
    """Grow the candidate 4-clique set for ``seed_triangle`` (Algorithm 2, lines 5–7).

    Starting from every 4-clique of ``candidate_graph`` that contains the
    seed triangle, repeatedly add, for any triangle of the current candidate
    covered by fewer than ``k`` candidate 4-cliques, all 4-cliques of
    ``candidate_graph`` containing that triangle.  The closure stops when all
    triangles are sufficiently covered or when no further clique can be
    added (in which case the candidate will fail Monte-Carlo verification).

    Returns the final set of 4-cliques (possibly empty when the seed triangle
    lies in no 4-clique of the candidate graph).
    """
    check_level(k)
    chosen: set[FourClique] = set(by_triangle.get(seed_triangle, ()))
    if not chosen:
        return chosen

    while True:
        coverage: dict[Triangle, int] = {}
        for clique in chosen:
            for triangle in triangles_of_clique(clique):
                coverage[triangle] = coverage.get(triangle, 0) + 1
        deficient = [t for t, c in coverage.items() if c < k]
        added = False
        for triangle in deficient:
            for clique in by_triangle.get(triangle, ()):
                if clique not in chosen:
                    chosen.add(clique)
                    added = True
        if not added:
            break
    return chosen


def _closure_ids(index: CandidateWorldIndex, seed_row: int, k: int) -> np.ndarray:
    """:func:`candidate_closure` in the id space of ``index``.

    The frontier starts at the 4-cliques containing triangle ``seed_row``.
    Each round counts, over the chosen 4-cliques' member triangles
    (``clique_triangles``), how many chosen 4-cliques cover each triangle,
    and adds every 4-clique (``tri_clique_indptr`` / ``tri_clique_indices``)
    of the triangles covered fewer than ``k`` times — the same synchronous
    rounds as the label-space closure, so the same 4-clique set.  Returns
    the sorted 4-clique ids (empty when the seed lies in no 4-clique).
    """
    indptr, indices = index.tri_clique_indptr, index.tri_clique_indices
    chosen = indices[indptr[seed_row] : indptr[seed_row + 1]]  # sorted, distinct
    while chosen.size:
        members, coverage = np.unique(index.clique_triangles[chosen], return_counts=True)
        frontier, _ = concatenated_rows(indptr, indices, members[coverage < k])
        grown = np.union1d(chosen, frontier)
        if grown.size == chosen.size:
            break
        chosen = grown
    return chosen


def global_nucleus_decomposition(
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
    backend: str = "csr",
    n_jobs: int = 1,
    sampling: str = "fixed",
    confidence: float = DEFAULT_CONFIDENCE,
    n_worlds_max: int | None = None,
    chunk_initial: int = DEFAULT_CHUNK_INITIAL,
    chunk_growth: float = DEFAULT_CHUNK_GROWTH,
    kernel: str = "numpy",
    partitions: int = 1,
) -> list[ProbabilisticNucleus]:
    """Find (approximate) g-(k, θ)-nuclei of ``graph`` via Algorithm 2.

    The local pruning runs on the array-native peel engine
    (:func:`~repro.core.local.local_nucleus_decomposition`) and every
    candidate is verified with the vectorized world-matrix sampler
    (:mod:`repro.sampling.world_matrix`).

    Parameters
    ----------
    graph:
        The probabilistic graph; a
        :class:`~repro.graph.csr.CSRProbabilisticGraph` is accepted too.
    k:
        Required 4-clique support of every triangle.
    theta:
        Probability threshold of Definition 5.
    epsilon, delta, n_samples:
        Monte-Carlo accuracy controls; ``n_samples`` defaults to the
        Hoeffding bound ``⌈ln(2/δ)/(2ε²)⌉``.
    estimator:
        Support oracle forwarded to the local decomposition used for pruning:
        ``None`` (the exact DP) or a
        :class:`~repro.core.approximations.SupportEstimator` instance; see
        :func:`~repro.core.local.resolve_local_options`.
    local_result:
        A pre-computed local decomposition of ``graph`` at the same θ, reused
        to avoid recomputing the pruning step; see :func:`local_pruning`.
    rng, seed:
        Source of randomness for the world sampling: a numpy
        :class:`~numpy.random.Generator` or a :class:`random.Random`
        (converted deterministically).  Runs are reproducible for a fixed
        ``seed`` or a seeded ``rng``.
    backend:
        Retired engine switch, kept for ``__api_version__ = "1"``; see
        :func:`~repro.core.local.check_backend`.
    n_jobs:
        Retired knob, kept for ``__api_version__ = "1"``: every candidate is
        verified serially; see :func:`check_retired_knob`.
    sampling, confidence, n_worlds_max, chunk_initial, chunk_growth:
        ``sampling="fixed"`` (default) draws exactly ``n_samples`` worlds
        per candidate, bit-identical to previous releases.
        ``sampling="adaptive"`` draws worlds in geometric chunks and stops
        each candidate as soon as anytime-valid confidence bounds settle its
        θ decision at level ``confidence``, capped at ``n_worlds_max``
        (default ``2 × n_samples``).  Both run the one loop of
        :mod:`repro.sampling.adaptive`, which draws every candidate's worlds
        in memory-bounded row blocks.
    kernel:
        ``"numpy"`` (default) or ``"numba"`` — the compiled peel of the
        local pruning step (:mod:`repro.kernels`); falls back to numpy (with
        a one-time warning) when numba is not installed.  World
        verification always runs the batched numpy predicates of
        :mod:`repro.sampling.world_matrix`.
    partitions:
        Retired knob, kept for ``__api_version__ = "1"``; see
        :func:`check_retired_knob`.

    Returns
    -------
    list[ProbabilisticNucleus]
        The verified candidates, deduplicated by edge set, with
        ``mode="global"``.
    """
    check_backend(backend)
    check_retired_knob("partitions", partitions)
    check_retired_knob("n_jobs", n_jobs)
    if isinstance(graph, CSRProbabilisticGraph):
        graph = graph.to_probabilistic()
    check_level(k)
    estimator = resolve_local_options(theta, estimator)
    if n_samples is None:
        n_samples = hoeffding_sample_size(epsilon, delta)
    settings = validate_sampling_options(
        sampling=sampling,
        confidence=confidence,
        n_worlds_max=n_worlds_max,
        chunk_initial=chunk_initial,
        chunk_growth=chunk_growth,
        n_samples=n_samples,
        kernel=kernel,
    )
    engine_rng = as_numpy_generator(rng, seed)
    kernel = resolve_kernel(kernel)

    local_nuclei = local_pruning(graph, theta, estimator, kernel, local_result).nuclei(k)
    if not local_nuclei:
        return []

    def verify(candidate: CandidateWorldIndex) -> bool:
        return adaptive_global_verify(candidate, k, theta, settings, rng=engine_rng)[0]

    return _verified_nuclei(graph, local_nuclei, k, theta, verify)


def _verified_nuclei(
    graph: ProbabilisticGraph,
    local_nuclei: Sequence[ProbabilisticNucleus],
    k: int,
    theta: float,
    verify: Callable[[CandidateWorldIndex], bool],
) -> list[ProbabilisticNucleus]:
    """Algorithm 2's candidate loop: grow, deduplicate, verify, keep maximal.

    The union ``C`` of ``local_nuclei`` is compiled once.  One candidate is
    grown per triangle of ``C`` (:func:`_closure_ids`), visiting the seeds
    in :func:`~repro.deterministic.cliques.enumerate_triangles` order — the
    order of the label-space loop, which draws each candidate's worlds from
    the shared generator, so the order fixes every sampled answer.
    Candidates with the same 4-clique set are verified once, on the
    restriction of ``C``'s index to their edges (``verify(index)`` returns
    whether it passes); accepted ones are deduplicated by edge set, built as
    subgraphs of ``graph``, and filtered by :func:`_keep_maximal`.
    """
    candidate_graph = union_of_nuclei(local_nuclei)
    index = CandidateWorldIndex.from_graph(candidate_graph)
    row_of = {triangle: row for row, triangle in enumerate(index.triangle_labels())}

    solutions: list[ProbabilisticNucleus] = []
    seen_candidates: set[bytes] = set()
    seen_solutions: set[bytes] = set()
    for seed_triangle in enumerate_triangles(candidate_graph):
        cliques = _closure_ids(index, row_of[seed_triangle], k)
        candidate_key = cliques.tobytes()
        if not cliques.size or candidate_key in seen_candidates:
            continue
        seen_candidates.add(candidate_key)

        edge_mask = np.zeros(index.num_edges, dtype=bool)
        edge_mask[index.clique_edges[cliques]] = True
        candidate = index.restrict(edge_mask)
        edge_key = edge_mask.tobytes()
        if not verify(candidate) or edge_key in seen_solutions:
            continue
        seen_solutions.add(edge_key)
        labels = candidate.labels
        subgraph = graph.edge_subgraph(
            (labels[u], labels[v])
            for u, v in zip(candidate.edge_u.tolist(), candidate.edge_v.tolist())
        )
        solutions.append(
            ProbabilisticNucleus(
                k=k,
                theta=theta,
                mode="global",
                subgraph=subgraph,
                triangles=frozenset(candidate.triangle_labels()),
            )
        )
    return _keep_maximal(solutions)


def _keep_maximal(solutions: list[ProbabilisticNucleus]) -> list[ProbabilisticNucleus]:
    """Drop verified candidates whose triangle set is strictly contained in another.

    Definition 5 asks for *maximal* subgraphs; because Algorithm 2 grows one
    candidate per seed triangle, the same dense region is often reported
    several times at different extents.  Keeping only the set-maximal
    candidates matches the definition and removes the redundancy.
    """
    maximal: list[ProbabilisticNucleus] = []
    for candidate in solutions:
        if any(
            candidate.triangles < other.triangles
            for other in solutions
            if other is not candidate
        ):
            continue
        maximal.append(candidate)
    return maximal
