"""Monte-Carlo verification: the one fixed-``n`` loop of Algorithms 2 and 3.

Every candidate of the global and weakly-global decompositions is verified
by the loop of this module.  The per-candidate decision — "is every
triangle's estimated probability at least θ?" — is estimated from exactly
``n_samples`` possible worlds (the paper's Hoeffding budget
``⌈ln(2/δ)/(2ε²)⌉``, 150 at ε = δ = 0.1) drawn through
:meth:`~repro.sampling.world_matrix.CandidateWorldIndex.sample` and counted by
:func:`~repro.sampling.world_matrix.global_triangle_counts` /
:func:`~repro.sampling.world_matrix.weak_membership_counts`:

1. **Decision.** :func:`global_verify` accepts a candidate when every
   triangle's point estimate ``counts / n_samples`` reaches θ;
   :func:`weak_scores` returns each triangle's estimate and its θ decision.
2. **Blocks.** The worlds are drawn and counted in consecutive row blocks of
   at most :func:`block_rows` worlds (:func:`blocked_counts`), sized from
   the candidate's edges and 4-cliques under the byte budget
   :data:`WORLD_BLOCK_BYTES`, and the block counts are summed.  The counts
   are sums over worlds, and numpy's generator draws ``(a, m)`` then
   ``(b, m)`` exactly as one ``(a + b, m)`` draw, so blocks change neither
   the stream nor the answer; they bound peak memory for every candidate.
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
from collections.abc import Callable

import numpy as np

from repro.exceptions import _require_positive_int
from repro.graph.possible_worlds import MAX_ENUMERABLE_EDGES, _check_enumerable
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    as_numpy_generator,
    global_triangle_counts,
    weak_membership_counts,
)

__all__ = [
    "WORLD_BLOCK_BYTES",
    "block_rows",
    "blocked_counts",
    "exact_probabilities",
    "global_verify",
    "weak_scores",
]

#: Byte budget of one world block.  A block of ``r`` worlds peaks at about
#: ``r · (8 · num_edges + 64 · num_cliques)`` bytes: the float64 uniform
#: draw per edge, and per present 4-clique the int64 (world, clique) and
#: edge-column indices of the edge-coverage scatter.
WORLD_BLOCK_BYTES = 16 * 2**20


def _count_candidate(model: str) -> None:
    """Count one sampled candidate of ``model`` (no-op while telemetry is off)."""
    if obs_config._ENABLED:
        obs_registry.counter(
            "repro_sampling_candidates_total",
            "Candidates verified on n_samples worlds by the Monte-Carlo loop.",
            model=model,
        ).inc()


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
    or :func:`~repro.sampling.world_matrix.weak_membership_counts`.  Each
    block holds at most :func:`block_rows` worlds; the result and the
    generator's final state equal one ``index.sample(n_worlds)`` draw counted
    in one call.
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
    candidate without triangles fails without drawing a world.

    >>> from repro.graph.generators import clique_graph
    >>> index = CandidateWorldIndex.from_graph(clique_graph(4, probability=1.0))
    >>> global_verify(index, k=1, theta=1.0, n_samples=20, seed=0)
    True
    """
    n_samples = _require_positive_int("n_samples", n_samples)
    if index.num_triangles == 0:
        return False
    counts = blocked_counts(global_triangle_counts, index, n_samples, k, rng=rng, seed=seed)
    _count_candidate("global")
    return bool(np.all(counts / n_samples >= theta))


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
    _count_candidate("weak")
    estimates = counts / n_samples
    return estimates, estimates >= theta
