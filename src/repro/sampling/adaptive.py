"""Monte-Carlo verification: the one fixed-``n`` loop of Algorithms 2 and 3.

Every candidate of the global and weakly-global decompositions is verified
by the loop of this module.  The per-candidate decision — "is every
triangle's estimated probability at least θ?" — is estimated from exactly
``n_samples`` possible worlds (the paper's Hoeffding budget
``⌈ln(2/δ)/(2ε²)⌉``, 150 at ε = δ = 0.1):

1. **Decision.** :func:`global_decisions` (the candidates of Algorithm 2)
   and :func:`global_verify` (one candidate) accept a candidate when every
   triangle's point estimate ``counts / n_samples`` reaches θ;
   :func:`weak_scores` returns each triangle's estimate and its θ decision.
2. **Blocks.** The worlds are drawn and counted in consecutive row blocks of
   at most :func:`block_rows` worlds (:func:`blocked_counts`), sized from
   the candidate's edges and 4-cliques under the byte budget
   :data:`WORLD_BLOCK_BYTES`, and the block counts are summed.  The counts
   are sums over worlds, and numpy's generator draws ``(a, m)`` then
   ``(b, m)`` exactly as one ``(a + b, m)`` draw, so blocks change neither
   the stream nor the answer; they bound peak memory for every candidate.
   Small candidates of Algorithm 2 also share a block, under
   :data:`SHARED_BLOCK_BYTES`: a
   :class:`~repro.sampling.world_matrix.WorldBlock` holds them side by side,
   each drawing, in order, the worlds its own index would draw, and the
   global predicate decides them all in one batch.  :func:`global_verify`
   is the same loop on a block of one.
3. **Exact evaluation.** On small graphs :func:`exact_probabilities`
   enumerates every world in the same row blocks, for the hardness
   reductions (:mod:`repro.hardness`) and the sampling ablation.

Determinism: blocks are drawn and counted in order from one numpy
generator, so results are bit-identical for a fixed seed.

Every sampled candidate adds one to the ``repro_sampling_candidates_total``
counter of its model (see ``docs/OBSERVABILITY.md``); each block's
verification batch reuses the ``sampling.verify`` span of the world-matrix
engine.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import _require_positive_int
from repro.graph.possible_worlds import MAX_ENUMERABLE_EDGES, _check_enumerable
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    WorldBlock,
    _global_block_counts,
    as_numpy_generator,
    weak_membership_counts,
)

__all__ = [
    "SHARED_BLOCK_BYTES",
    "WORLD_BLOCK_BYTES",
    "block_rows",
    "blocked_counts",
    "exact_probabilities",
    "global_decisions",
    "global_verify",
    "weak_scores",
]

#: Byte budget of one world block.  A block of ``r`` worlds is counted as
#: ``r · (8 · num_edges + 64 · num_cliques)`` bytes: the float64 uniform
#: draw per edge, and a bound on the per-4-clique cells that the predicates
#: gather per world (presence, coverage, support and connectivity).
WORLD_BLOCK_BYTES = 16 * 2**20

#: Byte budget of a world block that several candidates of Algorithm 2
#: share, counted like :data:`WORLD_BLOCK_BYTES` on each candidate's
#: ``n_samples`` worlds of its edges and its closure's 4-cliques; a
#: candidate above it is verified alone.  Sharing saves numpy's per-call
#: cost on small candidates, but support and connectivity then run on every
#: world where some candidate of the block is alive.  Against no sharing
#: (16 interleaved rounds on the benchmark graphs at seed 1, on a 2-core
#: container with numpy 2.4), 0.5 MiB made the sparse flickr analogue's
#: 1,047 candidates (0.03–0.17 MiB each) 1.74x faster and left the dense
#: graph's 126 (0.23–0.63 MiB) at 1.00x; 1 MiB gained 1.93x on the first
#: and lost 0.85x on the second.
SHARED_BLOCK_BYTES = 2**19


def _count_candidates(model: str, count: int = 1) -> None:
    """Count ``count`` sampled candidates of ``model`` (no-op while telemetry is off)."""
    if obs_config._ENABLED:
        obs_registry.counter(
            "repro_sampling_candidates_total",
            "Candidates verified on n_samples worlds by the Monte-Carlo loop.",
            model=model,
        ).inc(count)


def block_rows(index: CandidateWorldIndex) -> int:
    """Worlds per block of ``index`` under :data:`WORLD_BLOCK_BYTES` (at least one)."""
    row_bytes = 8 * index.num_edges + 64 * index.num_cliques
    return max(1, WORLD_BLOCK_BYTES // max(1, row_bytes))


def blocked_counts(
    count: Callable[..., np.ndarray],
    index: CandidateWorldIndex,
    n_worlds: int,
    k: int,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> np.ndarray:
    """Draw ``n_worlds`` worlds in consecutive row blocks and sum their counts.

    ``count`` is :func:`~repro.sampling.world_matrix.global_triangle_counts`
    or :func:`~repro.sampling.world_matrix.weak_membership_counts` (and the
    block counts of the global loop).  Each block holds at most
    :func:`block_rows` worlds; the result and the generator's final state
    equal one ``index.sample(n_worlds)`` draw counted in one call.
    """
    generator = as_numpy_generator(rng, seed)
    rows = block_rows(index)
    counts = np.zeros(index.num_triangles, dtype=np.int64)
    for start in range(0, n_worlds, rows):
        worlds = index.sample(min(rows, n_worlds - start), rng=generator)
        counts += count(index, worlds, k)
    return counts


def exact_probabilities(
    membership: Callable[..., np.ndarray],
    index: CandidateWorldIndex,
    k: int,
    max_edges: int = MAX_ENUMERABLE_EDGES,
) -> np.ndarray:
    """Exact ``Pr(X_{H,△,g} ≥ k)`` or ``Pr(X_{H,△,w} ≥ k)`` of every triangle row.

    ``membership`` is :func:`~repro.sampling.world_matrix.global_membership`
    or :func:`~repro.sampling.world_matrix.weak_membership`.  World ``c`` of
    the ``2^m`` holds edge column ``j`` iff bit ``j`` of ``c`` is set; the
    worlds are enumerated in :func:`block_rows` blocks, and each world's
    probability (Equation 1) is added to the triangles it holds.  More than
    ``max_edges`` edges raise the error of
    :func:`~repro.graph.possible_worlds.enumerate_worlds`, before any world.
    """
    _check_enumerable(index.num_edges, max_edges)
    p = index.edge_probabilities
    bits = np.arange(p.size)
    n_worlds = 2**p.size
    rows = block_rows(index)
    probabilities = np.zeros(index.num_triangles)
    for start in range(0, n_worlds, rows):
        codes = np.arange(start, min(start + rows, n_worlds))
        worlds = (codes[:, None] >> bits) & 1 == 1
        weights = np.where(worlds, p, 1.0 - p).prod(axis=1)
        probabilities += weights @ membership(index, worlds, k)
    return np.minimum(probabilities, 1.0)


def global_verify(
    index: CandidateWorldIndex,
    k: int,
    theta: float,
    n_samples: int,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> bool:
    """Decide the global-model verification of one candidate on ``n_samples`` worlds.

    The candidate passes when every triangle's estimated probability of
    (world is a k-nucleus ∧ world contains the triangle) reaches θ.  A
    candidate without triangles fails without drawing a world.  The block
    loop of :func:`global_decisions`, on ``index`` as a block of one.

    >>> from repro.graph.generators import clique_graph
    >>> index = CandidateWorldIndex.from_graph(clique_graph(4, probability=1.0))
    >>> global_verify(index, k=1, theta=1.0, n_samples=20, seed=0)
    True
    """
    n_samples = _require_positive_int("n_samples", n_samples)
    if index.num_triangles == 0:
        return False
    generator = as_numpy_generator(rng, seed)
    return bool(_decide([WorldBlock.of(index)], k, theta, n_samples, generator)[0])


def global_decisions(
    index: CandidateWorldIndex,
    closures: Sequence[np.ndarray],
    k: int,
    theta: float,
    n_samples: int,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> np.ndarray:
    """Decide the global-model verification of every candidate closure of ``index``.

    Candidate ``i`` is the subgraph of the edges of the 4-cliques
    ``closures[i]`` (ids of ``index``, non-empty), that is
    ``index.restrict`` of its edge mask.  Candidates are verified in order
    in world blocks (:func:`_world_blocks`): small ones share a block, a
    large one is verified alone in row blocks.  Each candidate draws the
    ``n_samples`` worlds its restriction would draw from ``rng``, so the
    decisions and the generator's final state equal successive
    :func:`global_verify` calls on the restrictions.  Returns one boolean
    per candidate.
    """
    n_samples = _require_positive_int("n_samples", n_samples)
    generator = as_numpy_generator(rng, seed)
    return _decide(_world_blocks(index, closures, n_samples), k, theta, n_samples, generator)


def _decide(
    blocks: Iterable[WorldBlock],
    k: int,
    theta: float,
    n_samples: int,
    generator: np.random.Generator,
) -> np.ndarray:
    """The decision of every candidate of ``blocks``, in order: every
    triangle's point estimate ``counts / n_samples`` reaches θ, that is the
    smallest count of the candidate's triangles divided by ``n_samples``.
    Every candidate holds a triangle (a 4-clique's, or ``global_verify``'s
    check)."""
    decisions = [np.zeros(0, dtype=bool)]
    for block in blocks:
        counts = blocked_counts(_global_block_counts, block, n_samples, k, rng=generator)
        weakest = np.minimum.reduceat(counts, block.triangle_offsets[:-1])
        decisions.append(weakest / n_samples >= theta)
        _count_candidates("global", block.num_segments)
    return np.concatenate(decisions)


def _world_blocks(
    index: CandidateWorldIndex, closures: Sequence[np.ndarray], n_samples: int
) -> Iterator[WorldBlock]:
    """Cut the candidates of ``closures`` into world blocks, in order.

    Consecutive candidates share a block while their worlds fit
    :data:`SHARED_BLOCK_BYTES`, counted on each candidate's edges and its
    closure's 4-cliques; a candidate above it gets a block of its own.
    """
    edge_sets = [np.unique(index.clique_edges[cliques]) for cliques in closures]
    start, shared = 0, 0
    for end, (edges, cliques) in enumerate(zip(edge_sets, closures)):
        size = n_samples * (8 * edges.size + 64 * cliques.size)
        if end > start and shared + size > SHARED_BLOCK_BYTES:
            yield from _fitted(index, edge_sets[start:end], n_samples)
            start, shared = end, 0
        shared += size
    if edge_sets:
        yield from _fitted(index, edge_sets[start:], n_samples)


def _fitted(
    index: CandidateWorldIndex, edge_sets: list[np.ndarray], n_samples: int
) -> Iterator[WorldBlock]:
    """The block of ``edge_sets``, halved until the worlds of a shared block fit
    :data:`WORLD_BLOCK_BYTES` in one row block: a restriction may hold more
    4-cliques than its closure.  A lone candidate is row-split instead."""
    block = WorldBlock.cut(index, edge_sets)
    if len(edge_sets) == 1 or block_rows(block) >= n_samples:
        yield block
        return
    half = len(edge_sets) // 2
    yield from _fitted(index, edge_sets[:half], n_samples)
    yield from _fitted(index, edge_sets[half:], n_samples)


def weak_scores(
    index: CandidateWorldIndex,
    k: int,
    theta: float,
    n_samples: int,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate every triangle's weak score on ``n_samples`` worlds and decide it.

    Returns ``(estimates, qualifying)``: the per-triangle estimate
    ``counts / n_samples`` (row order of ``index``) and the boolean θ
    decision ``estimates >= theta``.  A candidate without triangles returns
    two empty arrays without drawing a world.
    """
    n_samples = _require_positive_int("n_samples", n_samples)
    if index.num_triangles == 0:
        return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=bool)
    counts = blocked_counts(weak_membership_counts, index, n_samples, k, rng=rng, seed=seed)
    _count_candidates("weak")
    estimates = counts / n_samples
    return estimates, estimates >= theta
