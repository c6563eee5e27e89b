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
"""

from __future__ import annotations

import random
import warnings
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.approximations import SupportEstimator
from repro.core.local import check_backend, local_nucleus_decomposition
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.deterministic.cliques import (
    FourClique,
    Triangle,
    triangle_clique_index,
    triangles_of_clique,
)
from repro.exceptions import InvalidParameterError, check_level
from repro.graph.csr import CSRProbabilisticGraph
from repro.kernels import resolve_kernel
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, canonical_edge
from repro.sampling.adaptive import (
    DEFAULT_CHUNK_GROWTH,
    DEFAULT_CHUNK_INITIAL,
    DEFAULT_CONFIDENCE,
    AdaptiveSettings,
    adaptive_global_verify,
    resolve_adaptive_settings,
)
from repro.sampling.monte_carlo import hoeffding_sample_size
from repro.sampling.sharding import _require_positive_int
from repro.sampling.world_matrix import CandidateWorldIndex, WorldShardPool, as_numpy_generator

__all__ = [
    "global_nucleus_decomposition",
    "candidate_closure",
    "check_partitions",
    "union_of_nuclei",
]


def validate_sampling_options(
    n_jobs: int = 1,
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
    :class:`~repro.experiments.pipeline.RunConfig`.  ``n_samples`` and
    ``n_jobs`` must be positive integers; ``n_samples`` is checked by name
    first, before the adaptive cap is derived from it.  Returns the
    validated :class:`~repro.sampling.adaptive.AdaptiveSettings` of the one
    verification loop: the one-chunk schedule ``(n_samples,)`` for
    ``sampling="fixed"``, the geometric schedule for ``sampling="adaptive"``.
    Out-of-range or non-finite knobs raise
    :class:`~repro.exceptions.InvalidParameterError` here, before any
    sampling starts.
    """
    if n_samples is not None:
        _require_positive_int("n_samples", n_samples)
    _require_positive_int("n_jobs", n_jobs)
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


def check_partitions(partitions: int) -> None:
    """Accept the retired ``partitions=`` knob of ``__api_version__ = "1"``.

    Every candidate is verified in memory-bounded world blocks by the one
    loop of :mod:`repro.sampling.adaptive`, so there is nothing left to
    partition.  ``1`` passes silently; any other positive integer warns
    with a :class:`DeprecationWarning` and runs the one loop; a
    non-positive or non-integer value raises
    :class:`~repro.exceptions.InvalidParameterError` naming ``partitions``.
    """
    if _require_positive_int("partitions", partitions) == 1:
        return
    warnings.warn(
        "partitions= is deprecated: every candidate is verified in "
        "memory-bounded world blocks; omit partitions=",
        DeprecationWarning,
        stacklevel=3,
    )


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


def _cliques_to_subgraph(
    graph: ProbabilisticGraph, cliques: set[FourClique]
) -> ProbabilisticGraph:
    edges: set[Edge] = set()
    for clique in cliques:
        a, b, c, d = clique
        for x, y in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
            edges.add(canonical_edge(x, y))
    return graph.edge_subgraph(edges)


def _verify_candidate(
    subgraph: ProbabilisticGraph,
    k: int,
    theta: float,
    settings: AdaptiveSettings,
    rng: np.random.Generator,
    pool: WorldShardPool | None,
) -> tuple[bool, list[Triangle]]:
    """Monte-Carlo verification of one candidate by the one sequential loop.

    Compiles the candidate into a
    :class:`~repro.sampling.world_matrix.CandidateWorldIndex` and decides
    its θ threshold with
    :func:`repro.sampling.adaptive.adaptive_global_verify` under the run's
    ``settings`` (one chunk of ``n_samples`` worlds in fixed mode).
    """
    index = CandidateWorldIndex.from_graph(subgraph)
    triangles = index.triangle_labels()
    if not triangles:
        return False, triangles

    passes, _ = adaptive_global_verify(index, k, theta, settings, rng=rng, pool=pool)
    return passes, triangles


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
        Support oracle forwarded to the local decomposition used for pruning.
    local_result:
        A pre-computed local decomposition of ``graph`` at the same θ, reused
        to avoid recomputing the pruning step.
    rng, seed:
        Source of randomness for the world sampling: a numpy
        :class:`~numpy.random.Generator` or a :class:`random.Random`
        (converted deterministically).  Runs are reproducible for a fixed
        ``seed`` or a seeded ``rng``.
    backend:
        Retired engine switch, kept for ``__api_version__ = "1"``; see
        :func:`~repro.core.local.check_backend`.
    n_jobs:
        Number of ``multiprocessing`` workers sharding each world block.
        Results are identical for every ``n_jobs`` value at a fixed seed
        because a block is sampled before it is split.
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
        :func:`check_partitions`.

    Returns
    -------
    list[ProbabilisticNucleus]
        The verified candidates, deduplicated by edge set, with
        ``mode="global"``.
    """
    check_backend(backend)
    check_partitions(partitions)
    if isinstance(graph, CSRProbabilisticGraph):
        graph = graph.to_probabilistic()
    check_level(k)
    if not 0.0 <= theta <= 1.0:
        raise InvalidParameterError(f"theta must be in [0, 1], got {theta}")
    if n_samples is None:
        n_samples = hoeffding_sample_size(epsilon, delta)
    settings = validate_sampling_options(
        n_jobs,
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

    if local_result is None:
        local_result = local_nucleus_decomposition(
            graph, theta, estimator=estimator, kernel=kernel
        )
    local_nuclei = local_result.nuclei(k)
    if not local_nuclei:
        return []

    pool = WorldShardPool(n_jobs) if n_jobs > 1 else None

    def verify(subgraph: ProbabilisticGraph) -> tuple[bool, list[Triangle]]:
        return _verify_candidate(subgraph, k, theta, settings, engine_rng, pool)

    try:
        return _verified_nuclei(graph, local_nuclei, k, theta, verify)
    finally:
        if pool is not None:
            pool.close()


def _verified_nuclei(
    graph: ProbabilisticGraph,
    local_nuclei: Sequence[ProbabilisticNucleus],
    k: int,
    theta: float,
    verify: Callable[[ProbabilisticGraph], tuple[bool, list[Triangle]]],
) -> list[ProbabilisticNucleus]:
    """Algorithm 2's candidate loop: grow, deduplicate, verify, keep maximal.

    One candidate is grown per triangle of the union of ``local_nuclei``
    (:func:`candidate_closure`); candidates with the same 4-clique set are
    verified once, ``verify(subgraph)`` returns ``(passes, triangles)``, and
    accepted subgraphs are deduplicated by edge set before
    :func:`_keep_maximal`.
    """
    candidate_graph = union_of_nuclei(local_nuclei)
    by_triangle, _ = triangle_clique_index(candidate_graph)

    solutions: list[ProbabilisticNucleus] = []
    seen_candidates: set[frozenset[FourClique]] = set()
    seen_solutions: set[frozenset[Edge]] = set()
    for seed_triangle in by_triangle:
        cliques = candidate_closure(candidate_graph, seed_triangle, k, by_triangle)
        if not cliques:
            continue
        candidate_key = frozenset(cliques)
        if candidate_key in seen_candidates:
            continue
        seen_candidates.add(candidate_key)

        subgraph = _cliques_to_subgraph(graph, cliques)
        all_pass, triangles = verify(subgraph)
        if not all_pass:
            continue

        edge_key = frozenset(canonical_edge(u, v) for u, v, _ in subgraph.edges())
        if edge_key in seen_solutions:
            continue
        seen_solutions.add(edge_key)
        solutions.append(
            ProbabilisticNucleus(
                k=k,
                theta=theta,
                mode="global",
                subgraph=subgraph,
                triangles=frozenset(triangles),
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
