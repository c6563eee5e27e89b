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
   the candidate's edges, 4-cliques and padded 4-clique lists under the
   byte budget :data:`WORLD_BLOCK_BYTES`, and the block counts are summed.
   The counts are sums over worlds, and numpy's generator draws ``(a, m)``
   then ``(b, m)`` exactly as one ``(a + b, m)`` draw, so blocks change
   neither the stream nor the answer; they bound peak memory for every
   candidate.  Algorithm 2's candidates are verified in
   :class:`~repro.sampling.world_matrix.WorldBlock` s
   (:func:`global_decisions`):

   * a **run** of ``r`` consecutive candidates with one edge set is cut
     once and verified as one candidate on ``r · n_samples`` stacked worlds,
     drawn in order in row blocks and counted per ``n_samples``-row slice,
     so each candidate still sees exactly the worlds of its restriction;
   * distinct small candidates **share** a block, under
     :data:`SHARED_BLOCK_BYTES`, side by side, each drawing, in order, the
     worlds its own index would draw, and the global predicate decides
     them all in one batch;
   * a lone large candidate is the run of one, row-split under
     :data:`WORLD_BLOCK_BYTES`.  :func:`global_verify` is the same loop on
     a block of one.
3. **Exact evaluation.** On small graphs :func:`exact_probabilities`
   enumerates every world in the same row blocks, for the hardness
   reductions (:mod:`repro.hardness`) and the sampling ablation.

Determinism: blocks are drawn and counted in order from one numpy
generator, so results are bit-identical for a fixed seed.

Every sampled candidate adds one to the ``repro_sampling_candidates_total``
counter of its model (see ``docs/OBSERVABILITY.md``); each block's
verification batch reuses the ``sampling.verify`` span of the world-matrix
engine, whose ``candidates`` attribute counts the candidates the batch
counts for: the block's segments, times the ``n_samples``-row slices of a
run that its rows reach.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.deterministic.cliques import distinct_per_owner
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
#: ``r · (8 · num_edges + 24 · num_cliques + 4 · padded)`` bytes: the float64
#: uniform draw per edge; per 4-clique, the gather of its edges' presence
#: and the labels of the connectivity rounds; and the ``padded`` cells of
#: the triangle → 4-clique and edge → 4-clique lists, padded to their
#: longest list, which the predicates gather per world at up to 4 bytes a
#: cell.  With lists of one length, ``padded`` is ``10 · num_cliques``.
WORLD_BLOCK_BYTES = 16 * 2**20

#: Byte budget of a world block that several candidates of Algorithm 2
#: share, each counted as ``n_samples · (8 · edges + 64 · 4-cliques)``
#: bytes of its edges and its closure's 4-cliques; a candidate above it is
#: verified alone.  Sharing saves numpy's per-call
#: cost on small candidates, but support and connectivity then run on every
#: world where some candidate of the block is alive.  Runs of one edge set
#: are stacked instead (:func:`_world_blocks`), so only distinct candidates
#: share.  With the column-table cut, against 1 MiB (perfbench, seed 1,
#: 8 s runs on a 2-core container with numpy 2.4, 10 alternating pairs),
#: 2 MiB made verify-global (the sparse flickr analogue's 1,047 distinct
#: candidates) faster in 10 of 10 pairs, op_p50 283 → 254 ms (medians),
#: for 0.5 MB more peak RSS; verify-dense, whose 126 candidates form three
#: runs and share no block, read 70.0 and 71.4 ms, inside the 1 MiB runs'
#: quartiles (67.5–71.5 ms).
SHARED_BLOCK_BYTES = 2**21

#: ``(closure, edge)`` keys per sort of :func:`_closure_edges`: closures are
#: batched by the running total of their keys, six per 4-clique, one batch
#: per such share (64 KiB of int64 keys).  Measured in-process (perfbench
#: seed 1, flickr analogue, medians of 15 interleaved runs, 2-core
#: container, numpy 2.4), against one ``np.unique`` per closure: the 1,047
#: closures of global k = 1 take 2.6 ms against 12.7 ms, holding at most
#: 0.60 MB against 0.34 MB, and the 921 of k = 2 (253k 4-cliques) 37 ms
#: against 72 ms, 1.0 MB against 0.68 MB.  Batches of 2**16 keys and more
#: were slower at k = 2 and held up to 8.5 MB at once.
_CLOSURE_EDGE_KEYS = 2**13


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
    padded = index._triangle_cliques.size + index._edge_cliques.size
    row_bytes = 8 * index.num_edges + 24 * index.num_cliques + 4 * padded
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
    generator's final state equal one ``index.sample(n_worlds)`` draw
    counted in one call.  (The global loop counts its world blocks per
    candidate and per stacked slice, :func:`_stacked_counts`.)
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
    ``max_edges`` edges raise :class:`~repro.exceptions.InvalidParameterError`
    before any world.
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
    return bool(_decide([(WorldBlock.of(index), 1)], k, theta, n_samples, generator)[0])


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
    ``closures[i]`` (ids of ``index``), that is ``index.restrict`` of its
    edge mask.  An empty closure holds no triangle and fails without
    drawing a world, as in :func:`global_verify`.  The other candidates are
    verified in order in world blocks (:func:`_world_blocks`): a run of
    consecutive candidates with one edge set is cut once and verified on
    its stacked worlds, small distinct ones share a block, and a large one
    is verified alone in row blocks.  Each candidate draws the
    ``n_samples`` worlds its restriction would draw from ``rng``, so the
    decisions and the generator's final state equal successive
    :func:`global_verify` calls on the restrictions.  Returns one boolean
    per candidate.
    """
    n_samples = _require_positive_int("n_samples", n_samples)
    generator = as_numpy_generator(rng, seed)
    sampled = np.array([cliques.size > 0 for cliques in closures], dtype=bool)
    decisions = np.zeros(sampled.size, dtype=bool)
    blocks = _world_blocks(index, [c for c in closures if c.size], n_samples)
    decisions[sampled] = _decide(blocks, k, theta, n_samples, generator)
    return decisions


def _decide(
    blocks: Iterable[tuple[WorldBlock, int]],
    k: int,
    theta: float,
    n_samples: int,
    generator: np.random.Generator,
) -> np.ndarray:
    """The decision of every candidate of ``blocks``, in order.

    ``blocks`` yields ``(block, repeats)``: the block's segments side by
    side, each verified ``repeats`` times in a row (:func:`_stacked_counts`).
    A candidate passes when every triangle's point estimate ``counts /
    n_samples`` reaches θ, that is the smallest count of its triangles
    divided by ``n_samples``.  Every candidate holds a triangle (a
    4-clique's, or ``global_verify``'s check).
    """
    decisions = [np.zeros(0, dtype=bool)]
    for block, repeats in blocks:
        counts = _stacked_counts(block, repeats, n_samples, k, generator)
        weakest = np.minimum.reduceat(counts, block.triangle_offsets[:-1], axis=1)
        decisions.append((weakest / n_samples >= theta).ravel())
        _count_candidates("global", block.num_segments * repeats)
    return np.concatenate(decisions)


def _stacked_counts(
    block: WorldBlock, repeats: int, n_samples: int, k: int, generator: np.random.Generator
) -> np.ndarray:
    """The counts of ``repeats`` successive verifications of ``block``.

    Draws ``repeats · n_samples`` worlds of the block in order, in row
    blocks of at most :func:`block_rows` worlds, and counts them per
    ``n_samples``-row slice: row ``i`` of the ``(repeats, num_triangles)``
    result holds the counts of slice ``i``.  Since numpy draws ``(a, m)``
    then ``(b, m)`` exactly as one ``(a + b, m)`` draw, slice ``i`` holds
    the worlds that the ``i``-th of ``repeats`` successive draws of
    ``n_samples`` worlds would hold.  A block of several candidates must fit
    one row block (:func:`_fitted`), as its candidates draw one after the
    other within a row block.
    """
    total = repeats * n_samples
    rows = block_rows(block)
    counts = np.zeros((repeats, block.num_triangles), dtype=np.int64)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        worlds = block.sample(stop - start, rng=generator)
        first = start // n_samples
        starts = np.arange(first * n_samples, stop, n_samples)
        starts[0] = start
        counts[first : first + starts.size] += _global_block_counts(
            block, worlds, k, starts - start
        )
    return counts


def _world_blocks(
    index: CandidateWorldIndex, closures: Sequence[np.ndarray], n_samples: int
) -> Iterator[tuple[WorldBlock, int]]:
    """Cut the candidates of ``closures`` into world blocks, in order.

    Yields ``(block, repeats)`` (see :func:`_decide`).  A run of ``r > 1``
    consecutive candidates with the same edge set is cut once and stacked:
    ``(block of its edges, r)``.  The other candidates share a block while
    their worlds fit :data:`SHARED_BLOCK_BYTES`, counted on each candidate's
    edges and its closure's 4-cliques; a candidate above it gets a block of
    its own.
    """
    candidates = zip(_closure_edges(index, closures), closures)
    window: list[np.ndarray] = []
    shared = 0
    for _, run in itertools.groupby(candidates, key=lambda candidate: candidate[0].tobytes()):
        (edges, cliques), *repeated = run
        size = n_samples * (8 * edges.size + 64 * cliques.size)
        if window and (repeated or shared + size > SHARED_BLOCK_BYTES):
            yield from _fitted(index, window, n_samples)
            window, shared = [], 0
        if repeated:
            yield WorldBlock.cut(index, [edges]), 1 + len(repeated)
        else:
            window.append(edges)
            shared += size
    if window:
        yield from _fitted(index, window, n_samples)


def _closure_edges(
    index: CandidateWorldIndex, closures: Sequence[np.ndarray]
) -> Iterator[np.ndarray]:
    """The edge columns of each closure's 4-cliques, ascending, in order.

    ``np.unique(index.clique_edges[cliques])`` of every closure, from one
    :func:`~repro.deterministic.cliques.distinct_per_owner` sort of
    ``(closure, edge)`` keys per batch of consecutive closures
    (:data:`_CLOSURE_EDGE_KEYS`), in place of a hashing ``np.unique`` per
    closure.
    """
    if not closures:
        return
    key_counts = 6 * np.array([cliques.size for cliques in closures], dtype=np.int64)
    batch = (np.cumsum(key_counts) - key_counts) // _CLOSURE_EDGE_KEYS
    bounds = [0, *(np.flatnonzero(np.diff(batch)) + 1).tolist(), len(closures)]
    for start, stop in zip(bounds, bounds[1:]):
        columns, ends = distinct_per_owner(
            np.repeat(np.arange(stop - start, dtype=np.int64), key_counts[start:stop]),
            index.clique_edges[np.concatenate(closures[start:stop])].ravel(),
            index.num_edges,
            stop - start,
        )
        ends = ends.tolist()
        for lo, hi in zip(ends, ends[1:]):
            yield columns[lo:hi]


def _fitted(
    index: CandidateWorldIndex, edge_sets: list[np.ndarray], n_samples: int
) -> Iterator[tuple[WorldBlock, int]]:
    """The block of ``edge_sets``, halved until the worlds of a shared block fit
    :data:`WORLD_BLOCK_BYTES` in one row block: a restriction may hold more
    4-cliques than its closure.  A lone candidate is row-split instead."""
    block = WorldBlock.cut(index, edge_sets)
    if len(edge_sets) == 1 or block_rows(block) >= n_samples:
        yield block, 1
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
    return _weak_scores(index, k, theta, n_samples, rng=rng, seed=seed)


def _weak_scores(
    index: CandidateWorldIndex,
    k: int,
    theta: float,
    n_samples: int,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`weak_scores` of a checked ``n_samples``: the weak driver's step,
    whose prologue checks ``n_samples`` once per decomposition."""
    if index.num_triangles == 0:
        return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=bool)
    counts = blocked_counts(weak_membership_counts, index, n_samples, k, rng=rng, seed=seed)
    _count_candidates("weak")
    estimates = counts / n_samples
    return estimates, estimates >= theta
