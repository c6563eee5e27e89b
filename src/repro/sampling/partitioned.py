"""Partitioned Monte-Carlo verification: never materialize the worlds matrix.

The monolithic engine samples the full ``(n_worlds, num_edges)`` boolean
matrix before verifying anything — on a ``scale=large`` graph with hundreds
of thousands of edges and a few thousand worlds that single allocation
exceeds per-process memory long before the verification itself would.  This
module runs the same estimators over *edge partitions* (the contiguous
column ranges of :mod:`repro.graph.partition`), keeping only:

* one ``(n_worlds, partition_width)`` sample block at a time, and
* the ``(n_worlds, num_triangles)`` / ``(n_worlds, num_cliques)`` structure
  presence matrices, which are candidate-sized, not graph-sized.

Per-partition sampling is replayable: partition ``p`` draws from
``np.random.SeedSequence(entropy=root_seed, spawn_key=(p,))``, so its block
is a pure function of ``(root_seed, p)`` — independent of worker count, and
re-drawable for the second (edge-coverage) pass of the global estimator
without storing the first pass.  The estimates are **stream-parity exact**:
assembling the same blocks into one matrix and running the monolithic
counters on it yields bit-identical counts (``tests/test_partition.py`` pins
this), though the stream differs from what ``index.sample`` would draw for
the same seed.

Only the sampling is partition-specific: the per-block presence and
edge-coverage masks.  Both estimators then hand the candidate-sized presence
matrices to the predicates of :mod:`repro.sampling.world_matrix` —
:func:`~repro.sampling.world_matrix.global_world_mask` and
:func:`~repro.sampling.world_matrix.weak_counts_from_presence` — the same code
the monolithic path runs.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.partition import partition_edge_ranges
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.sampling.sharding import _require_positive_int
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    as_numpy_generator,
    global_world_mask,
    uncovered_worlds,
    weak_counts_from_presence,
)

__all__ = ["partitioned_global_counts", "partitioned_weak_counts"]


def _root_seed(rng, seed) -> int:
    """One 63-bit root seed drawn from the caller's RNG (or ``seed``)."""
    return int(as_numpy_generator(rng, seed).integers(0, 2**63 - 1))


def _block_rng(root_seed: int, partition: int) -> np.random.Generator:
    """The replayable per-partition generator (worker-count invariant)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root_seed, spawn_key=(partition,))
    )


def _sample_block(
    index: CandidateWorldIndex, n_worlds: int, start: int, stop: int, root_seed: int, p: int
) -> np.ndarray:
    """Sample the world columns ``start:stop`` for all ``n_worlds`` worlds."""
    rng = _block_rng(root_seed, p)
    probabilities = np.asarray(index.edge_probabilities[start:stop], dtype=np.float64)
    return rng.random((n_worlds, stop - start)) < probabilities[None, :]


def _presence_shard(payload) -> tuple[np.ndarray, np.ndarray]:
    """Per-partition presence contribution (AND-mask over structures).

    Returns ``(tri_mask, clique_mask)`` — ``True`` wherever this partition's
    columns do not refute the structure, so the driver's elementwise AND over
    all partitions equals the monolithic ``structure_presence``.
    """
    index, n_worlds, start, stop, root_seed, p = payload
    block = _sample_block(index, n_worlds, start, stop, root_seed, p)
    tri_mask = np.ones((n_worlds, index.num_triangles), dtype=bool)
    for slot in range(3):
        columns = index.triangle_edges[:, slot]
        selected = (columns >= start) & (columns < stop)
        if selected.any():
            tri_mask[:, selected] &= block[:, columns[selected] - start]
    clique_mask = np.ones((n_worlds, index.num_cliques), dtype=bool)
    for slot in range(6):
        columns = index.clique_edges[:, slot]
        selected = (columns >= start) & (columns < stop)
        if selected.any():
            clique_mask[:, selected] &= block[:, columns[selected] - start]
    return tri_mask, clique_mask


def _coverage_shard(payload) -> np.ndarray:
    """Per-partition edge-coverage violations (global condition 1).

    Re-draws the identical sample block from ``(root_seed, p)`` and flags
    every world with a present edge in ``start:stop`` that no present
    4-clique covers.
    """
    index, n_worlds, start, stop, root_seed, p, clique_present = payload
    block = _sample_block(index, n_worlds, start, stop, root_seed, p)
    return uncovered_worlds(index, block, clique_present, start=start)


def _resolve_partition_run(index, n_worlds, k, rng, seed, partitions):
    """Shared validation + planning for both partitioned estimators."""
    if not isinstance(index, CandidateWorldIndex):
        raise InvalidParameterError(
            f"index must be a CandidateWorldIndex, got {type(index).__name__}"
        )
    _require_positive_int("n_worlds", n_worlds)
    _require_positive_int("partitions", partitions)
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    ranges = partition_edge_ranges(index.num_edges, partitions) if index.num_edges else ()
    root_seed = _root_seed(rng, seed)
    if obs_config._ENABLED:
        obs_registry.counter(
            "repro_sampling_worlds_total",
            "Possible worlds drawn by the world-matrix sampler.",
        ).inc(n_worlds)
        obs_registry.counter(
            "repro_sampling_partitions_total",
            "Edge partitions sampled by the partitioned verifier.",
        ).inc(len(ranges))
    return ranges, root_seed


def _map_payloads(pool, function, payloads):
    """Run shard payloads on the pool when one is given, inline otherwise."""
    if pool is not None and len(payloads) > 1:
        return pool.map(function, payloads)
    return [function(payload) for payload in payloads]


def _partitioned_presence(
    index, n_worlds, ranges, root_seed, pool
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate structure presence over partitions (AND of shard masks)."""
    tri_present = np.ones((n_worlds, index.num_triangles), dtype=bool)
    clique_present = np.ones((n_worlds, index.num_cliques), dtype=bool)
    payloads = [
        (index, n_worlds, start, stop, root_seed, p)
        for p, (start, stop) in enumerate(ranges)
    ]
    for tri_mask, clique_mask in _map_payloads(pool, _presence_shard, payloads):
        tri_present &= tri_mask
        clique_present &= clique_mask
    return tri_present, clique_present


def partitioned_global_counts(
    index: CandidateWorldIndex,
    n_worlds: int,
    k: int,
    rng=None,
    seed: int | None = None,
    partitions: int = 2,
    pool=None,
) -> np.ndarray:
    """Per-triangle k-nucleus-world counts without the full worlds matrix.

    The partitioned equivalent of ``index.sample(n_worlds)`` followed by
    :func:`repro.sampling.world_matrix.global_triangle_counts`: same
    estimator, same nucleus predicate, peak memory bounded by one partition
    block plus the candidate-sized presence matrices.  ``pool`` (a
    :class:`~repro.sampling.world_matrix.WorldShardPool`) fans the partition
    blocks across worker processes; results are identical with or without
    it.
    """
    ranges, root_seed = _resolve_partition_run(index, n_worlds, k, rng, seed, partitions)
    counts = np.zeros(index.num_triangles, dtype=np.int64)
    if index.num_triangles == 0 or index.num_cliques == 0 or not ranges:
        return counts
    tri_present, clique_present = _partitioned_presence(
        index, n_worlds, ranges, root_seed, pool
    )
    if not clique_present.any():
        return counts
    # Edge coverage: a second pass over the same replayable blocks.
    uncovered = np.zeros(n_worlds, dtype=bool)
    payloads = [
        (index, n_worlds, start, stop, root_seed, p, clique_present)
        for p, (start, stop) in enumerate(ranges)
    ]
    for bad in _map_payloads(pool, _coverage_shard, payloads):
        uncovered |= bad
    mask = global_world_mask(index, clique_present, uncovered, k)
    return tri_present[mask].sum(axis=0, dtype=np.int64)


def partitioned_weak_counts(
    index: CandidateWorldIndex,
    n_worlds: int,
    k: int,
    rng=None,
    seed: int | None = None,
    partitions: int = 2,
    pool=None,
) -> np.ndarray:
    """Per-triangle weak-membership counts without the full worlds matrix.

    The weak estimator only ever consumes structure presence, so after the
    partitioned presence pass it hands off to
    :func:`~repro.sampling.world_matrix.weak_counts_from_presence`, the same
    fixed point as the monolithic path.
    """
    ranges, root_seed = _resolve_partition_run(index, n_worlds, k, rng, seed, partitions)
    if index.num_triangles == 0 or not ranges:
        return np.zeros(index.num_triangles, dtype=np.int64)
    tri_present, clique_present = _partitioned_presence(
        index, n_worlds, ranges, root_seed, pool
    )
    return weak_counts_from_presence(index, tri_present, clique_present, k)
