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
  fixed-``n`` loop of :mod:`repro.sampling.verification`
  (:func:`~repro.sampling.verification.global_decisions`), which draws exactly
  ``n`` worlds per candidate in memory-bounded world blocks: a run of
  candidates with one edge set is verified once on its stacked worlds, and
  small distinct candidates share a block.

The candidate for a triangle is the closure of its 4-cliques inside ``C``
under the rule "every triangle of the candidate must be covered by at least
``k`` 4-cliques of the candidate"; closures that cannot be completed within
``C`` are still sampled and simply fail verification, matching the paper's
"approximate solution" remark.

The candidate loop runs in the id space of ``C``, and nothing in it is
compiled: ``C``'s :class:`~repro.sampling.world_matrix.CandidateWorldIndex`
is restricted out of the local result's world index of the whole graph
(:meth:`~repro.core.result.LocalNucleusDecomposition.candidate_index`, which
shares the peel's triangle ⇄ 4-clique arrays), and each closure is a
4-clique-id frontier over ``C``'s arrays, every seed's grown in one batched
pass (:func:`_seed_closures`).  All closures are grown first; then the
candidates are verified on world blocks cut out of ``C``'s index
(:class:`~repro.sampling.world_matrix.WorldBlock`), once per run of
consecutive candidates with one edge set, each candidate drawing the
worlds of
:meth:`~repro.sampling.world_matrix.CandidateWorldIndex.restrict` of ``C``
to its edges — array for array the index of its subgraph, so the same
worlds as a compile of that subgraph would draw.  Only accepted candidates
are restricted and built as a
:class:`~repro.graph.probabilistic_graph.ProbabilisticGraph`.
:func:`candidate_closure` is the label-space reference of the closure.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.approximations import SupportEstimator
from repro.core.local import local_nucleus_decomposition, resolve_local_options
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.deterministic.cliques import (
    FourClique,
    Triangle,
    concatenated_rows,
    enumerate_triangles,
    triangles_of_clique,
)
from repro.exceptions import (
    InvalidParameterError,
    _require_positive_int,
    check_level,
    check_retired_knobs,
)
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.spans import span
from repro.sampling.verification import global_decisions
from repro.sampling.monte_carlo import hoeffding_sample_size
from repro.sampling.world_matrix import CandidateWorldIndex, as_numpy_generator

__all__ = [
    "global_nucleus_decomposition",
    "candidate_closure",
    "union_of_nuclei",
]


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


#: Initial postings (4-cliques through the seed triangle) per batch of the
#: closure pass (:func:`_seed_closures`): seeds are batched by the running
#: total of their postings, one batch per such share.  Growing every seed of
#: a graph in one batch keeps the large closures of every seed in the
#: batch's sorted keys, round after round.  Measured in-process (perfbench
#: seed 1, best of 5, 2-core container, numpy 2.4), against the per-seed
#: loop it replaced: the 1,047 seeds of the sparse flickr analogue at k = 1
#: take 4.2 ms at 1,024 (2.7 ms in one batch) against 29.5 ms, the 161 of
#: the dense analogue at k = 2 3.7 ms against 13.3 ms, and the 1,021 of
#: flickr at k = 2, whose closures span most of ``C``, 180 ms against 356
#: ms, where one batch takes 234 ms.
CLOSURE_BATCH_POSTINGS = 1024


def _seed_closures(
    index: CandidateWorldIndex, seeds: np.ndarray, k: int
) -> tuple[list[np.ndarray], int]:
    """:func:`candidate_closure` of every seed row of ``index``, in its id space.

    Returns the sorted 4-clique ids of each seed's closure, in ``seeds``
    order (empty when the seed lies in no 4-clique), and the number of
    rounds the batches ran.  Consecutive seeds are grown together in
    batches of about :data:`CLOSURE_BATCH_POSTINGS` initial postings
    (:func:`_grown`); each seed runs the same synchronous rounds as the
    label-space closure, so it gets the same 4-clique set.
    """
    if not seeds.size:
        return [], 0
    postings = np.diff(index.tri_clique_indptr)[seeds]
    batch = (np.cumsum(postings) - postings) // CLOSURE_BATCH_POSTINGS
    closures: list[np.ndarray] = []
    rounds = 0
    for rows in np.split(seeds, np.flatnonzero(np.diff(batch)) + 1):
        grown, batch_rounds = _grown(index, rows, k)
        closures.extend(grown)
        rounds += batch_rounds
    return closures, rounds


def _grown(
    index: CandidateWorldIndex, seeds: np.ndarray, k: int
) -> tuple[list[np.ndarray], int]:
    """The closures of a batch of ``seeds``, grown together, and the rounds run.

    For its ``i``-th seed the batch keeps the chosen 4-cliques ``c`` as
    sorted keys ``i·q + c`` and their member triangles ``r`` as sorted keys
    ``i·t + r`` (``index`` has ``q`` 4-cliques and ``t`` triangles).  Each
    round of the label-space closure adds all 4-cliques of every member
    triangle covered by fewer than ``k`` chosen 4-cliques.  A triangle that
    was a member before the round is covered ``k`` times already or had all
    its 4-cliques added then, so only the triangles first reached by the
    4-cliques that the previous round added can grow the closure, and only
    those 4-cliques cover them.  So a round visits only the 4-cliques added
    last, and a seed whose round added none has converged and leaves the
    frontier; every seed runs the label-space closure's rounds.
    """
    q, t = index.num_cliques, index.num_triangles
    indptr, indices = index.tri_clique_indptr, index.tri_clique_indices
    cliques, sizes = concatenated_rows(indptr, indices, seeds)
    added = np.repeat(np.arange(seeds.size, dtype=np.int64) * q, sizes) + cliques
    chosen, members = added, np.empty(0, dtype=np.int64)
    rounds = 0
    while added.size:
        rounds += 1
        owner, clique = np.divmod(added, q)
        reached = ((owner * t)[:, None] + index.clique_triangles[clique]).ravel()
        reached, coverage = np.unique(reached[~_is_in(members, reached)], return_counts=True)
        members = _merged(members, reached)
        owner, deficient = np.divmod(reached[coverage < k], t)
        frontier, sizes = concatenated_rows(indptr, indices, deficient)
        frontier += np.repeat(owner * q, sizes)
        added = np.unique(frontier[~_is_in(chosen, frontier)])
        chosen = _merged(chosen, added)
    owner, clique = np.divmod(chosen, q)
    return np.split(clique, np.searchsorted(owner, np.arange(1, seeds.size))), rounds


def _is_in(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each of ``values`` is one of the sorted ``keys``."""
    if not keys.size:
        return np.zeros(values.size, dtype=bool)
    return keys[np.minimum(np.searchsorted(keys, values), keys.size - 1)] == values


def _merged(keys: np.ndarray, more: np.ndarray) -> np.ndarray:
    """The union of two disjoint sorted key arrays, sorted (a stable sort
    of two sorted runs is a merge)."""
    return np.sort(np.concatenate([keys, more]), kind="stable")


def _monte_carlo_prologue(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    k: int,
    theta: float,
    epsilon: float,
    delta: float,
    n_samples: int | None,
    estimator: SupportEstimator | None,
    local_result: LocalNucleusDecomposition | None,
    rng: "random.Random | np.random.Generator | None",
    seed: int | None,
) -> tuple:
    """The opening Algorithms 2 and 3 share: check the knobs, prune locally.

    In order: a CSR ``graph`` becomes its label graph, then ``k``, θ and the
    ``estimator``, ε and δ, ``n_samples`` (by default Lemma 4's Hoeffding
    budget), the ``rng`` / ``seed`` pair, and last the local decomposition
    that prunes the candidates, since every g- and w-nucleus lies in an
    ℓ-nucleus.  ``local_result`` is reused only when it is a
    :class:`~repro.core.result.LocalNucleusDecomposition` computed at this θ
    on ``graph`` or a graph equal to it.  Returns ``(graph, local, k,
    n_samples, generator)``, ``k`` and ``n_samples`` as ints.
    """
    if isinstance(graph, CSRProbabilisticGraph):
        graph = graph.to_probabilistic()
    k = check_level(k)
    estimator = resolve_local_options(theta, estimator)
    budget = hoeffding_sample_size(epsilon, delta)  # ε and δ are checked on every call
    n_samples = _require_positive_int("n_samples", budget if n_samples is None else n_samples)
    generator = as_numpy_generator(rng, seed)
    if local_result is None:
        local_result = local_nucleus_decomposition(graph, theta, estimator=estimator)
    elif not isinstance(local_result, LocalNucleusDecomposition):
        raise InvalidParameterError(
            "local_result must be a LocalNucleusDecomposition, "
            f"got {type(local_result).__name__}"
        )
    elif local_result.theta != theta:
        raise InvalidParameterError(
            f"local_result was computed at theta={local_result.theta!r}, "
            f"not at theta={theta!r}"
        )
    elif local_result.graph is not graph and local_result.graph != graph:
        raise InvalidParameterError("local_result was computed for a different graph")
    return graph, local_result, k, n_samples, generator


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
    **retired,
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
        Monte-Carlo accuracy controls: every candidate is verified on exactly
        ``n_samples`` worlds, by default the Hoeffding bound
        ``⌈ln(2/δ)/(2ε²)⌉``, drawn in memory-bounded world blocks by
        :func:`~repro.sampling.verification.global_decisions`.  ε and δ are
        checked on every call.
    estimator:
        Support oracle forwarded to the local decomposition used for pruning:
        ``None`` (the exact DP) or a
        :class:`~repro.core.approximations.SupportEstimator` instance; see
        :func:`~repro.core.local.resolve_local_options`.
    local_result:
        A pre-computed local decomposition of ``graph`` at the same θ, reused
        to avoid recomputing the pruning step; any other value raises
        :class:`~repro.exceptions.InvalidParameterError`.
    rng, seed:
        Source of randomness for the world sampling: a numpy
        :class:`~numpy.random.Generator` or a :class:`random.Random`
        (converted deterministically).  Runs are reproducible for a fixed
        ``seed`` or a seeded ``rng``.
    retired:
        The nine retired knobs of ``__api_version__ = "1"``, by keyword only:
        one engine runs the local pruning and every candidate is verified
        serially on ``n_samples`` worlds; see
        :func:`~repro.exceptions.check_retired_knobs`.

    Returns
    -------
    list[ProbabilisticNucleus]
        The verified candidates, deduplicated by edge set, with
        ``mode="global"``.
    """
    check_retired_knobs("global_nucleus_decomposition", retired)
    graph, local, k, n_samples, generator = _monte_carlo_prologue(
        graph, k, theta, epsilon, delta, n_samples, estimator, local_result, rng, seed
    )
    local_nuclei = local._dict_nuclei(k)
    if not local_nuclei:
        return []

    def decide(index: CandidateWorldIndex, closures: list[np.ndarray]) -> np.ndarray:
        return global_decisions(index, closures, k, theta, n_samples, rng=generator)

    return _verified_nuclei(graph, local, local_nuclei, k, theta, decide)


def _verified_nuclei(
    graph: ProbabilisticGraph,
    local: LocalNucleusDecomposition,
    local_nuclei: Sequence[ProbabilisticNucleus],
    k: int,
    theta: float,
    decide: Callable[[CandidateWorldIndex, list[np.ndarray]], np.ndarray],
) -> list[ProbabilisticNucleus]:
    """Algorithm 2's candidate loop: grow, deduplicate, verify, keep maximal.

    The index of the union ``C`` of ``local_nuclei`` is restricted once out
    of ``local``'s world index, and the loop runs in three passes:

    1. **Grow.**  One candidate is grown per triangle of ``C``, all in one
       batched pass (:func:`_seed_closures`), with the seeds in
       :func:`~repro.deterministic.cliques.enumerate_triangles` order over
       the dict union (:func:`union_of_nuclei`) — the order of the
       label-space loop.  Candidates with the same 4-clique set are kept
       once.  Nothing here samples.  With telemetry on, the pass and the
       deduplication run in a ``global.closures`` span, which records the
       ``seeds``, the distinct ``candidates`` and the ``rounds`` the
       pass's batches ran.
    2. **Verify.**  ``decide(index, closures)`` returns whether each
       distinct candidate passes (the driver passes
       :func:`~repro.sampling.verification.global_decisions`, which draws each
       candidate's worlds from the shared generator in this order, so the
       order fixes every sampled answer).
    3. **Build.**  Accepted candidates are deduplicated by edge set,
       restricted out of ``C`` (:meth:`CandidateWorldIndex.restrict`),
       built as subgraphs of ``graph`` and filtered by :func:`_keep_maximal`.

    With telemetry on, ``repro_candidates_total{model="global", stage}``
    counts the non-empty closures (``generated``), the candidates that
    passed (``accepted``), the accepted edge sets already reported
    (``duplicate``) and the solutions :func:`_keep_maximal` drops
    (``not_maximal``).
    """
    candidate_graph = union_of_nuclei(local_nuclei)
    index = local.candidate_index(t for nucleus in local_nuclei for t in nucleus.triangles)
    row_of = {triangle: row for row, triangle in enumerate(index.triangle_labels())}

    seeds = np.array([row_of[t] for t in enumerate_triangles(candidate_graph)], dtype=np.int64)

    with span("global.closures", seeds=int(seeds.size)) as closure_span:
        grown, rounds = _seed_closures(index, seeds, k)
        closures: list[np.ndarray] = []
        seen_candidates: set[bytes] = set()
        generated = 0
        for cliques in grown:
            if not cliques.size:
                continue
            generated += 1
            candidate_key = cliques.tobytes()
            if candidate_key not in seen_candidates:
                seen_candidates.add(candidate_key)
                closures.append(cliques)
        closure_span.annotate(candidates=len(closures), rounds=rounds)

    passed = decide(index, closures)
    accepted = [cliques for cliques, passes in zip(closures, passed) if passes]
    solutions: list[ProbabilisticNucleus] = []
    seen_solutions: set[bytes] = set()
    for cliques in accepted:
        edge_mask = np.zeros(index.num_edges, dtype=bool)
        edge_mask[index.clique_edges[cliques]] = True
        edge_key = edge_mask.tobytes()
        if edge_key in seen_solutions:
            continue
        seen_solutions.add(edge_key)
        candidate = index.restrict(edge_mask)
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
    maximal = _keep_maximal(solutions)
    _count_stages(
        "global",
        generated=generated,
        accepted=len(accepted),
        duplicate=len(accepted) - len(solutions),
        not_maximal=len(solutions) - len(maximal),
    )
    return maximal


def _count_stages(model: str, **stages: int) -> None:
    """Add each stage's count to ``repro_candidates_total{model, stage}``
    (no-op while telemetry is off)."""
    if obs_config._ENABLED:
        for stage, count in stages.items():
            obs_registry.counter(
                "repro_candidates_total",
                "Candidates of Algorithms 2 and 3 per stage of their candidate loops.",
                model=model,
                stage=stage,
            ).inc(count)


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
