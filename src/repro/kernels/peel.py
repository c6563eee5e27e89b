"""Compiled peel kernel (see :mod:`repro.core.peel` for the reference loop).

:func:`peel_unit_drop` is the bucket-queue loop for unit-drop (exact-DP)
repairs.  The exact Poisson-binomial repair stays in Python, so the loop is
split into a resumable state machine across a *batched callback boundary*:
the jitted ``advance`` runs the bucket queue until the front triangle is
dirty, gathers its surviving extension probabilities into a preallocated
buffer and returns a repair request; the Python driver evaluates
``repair.recompute`` and feeds the exact κ back through the jitted
``feed``, which re-keys the triangle exactly like the reference ``while
dirty`` loop.  Because the survivor probabilities cross the boundary as the
same Python floats in the same (posting) order, the DP summation — and
therefore the final scores — is **bit-identical** to ``kernel="numpy"``.
Every other repair (the §5.3 approximations) runs the numpy lazy heap.

The kernel bodies live in a closure factory (:func:`_build`) and are built
twice on demand: once uncompiled (interpreted parity runs) and once through
``numba.njit`` when available, with the one-off compile+warm-up time
recorded in ``repro_kernel_compile_seconds{group="peel"}``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.support_dp import NO_VALID_K
from repro.kernels import active_jit, record_compile

__all__ = ["peel_unit_drop"]


def _build(jit):
    """Build the peel kernel set, optionally compiled with ``jit``."""

    def move(m, old, new, order, position, bucket_start):
        # Re-key triangle m from bucket old+1 to bucket new+1 by swapping it
        # across bucket boundaries — verbatim the reference engine's move().
        if new < old:
            for b in range(old + 1, new + 1, -1):
                start = bucket_start[b]
                displaced = order[start]
                where = position[m]
                order[where] = displaced
                order[start] = m
                position[displaced] = where
                position[m] = start
                bucket_start[b] = start + 1
        else:
            for b in range(old + 2, new + 2):
                last = bucket_start[b] - 1
                displaced = order[last]
                where = position[m]
                order[where] = displaced
                order[last] = m
                position[displaced] = where
                position[m] = last
                bucket_start[b] = last

    def gather_survivors(t, indptr, pair_probabilities, pair_alive, survivors):
        # Surviving extension probabilities of t in posting order — the order
        # the reference surviving_of() emits, which the DP repair depends on.
        count = 0
        for p in range(indptr[t], indptr[t + 1]):
            if pair_alive[p]:
                survivors[count] = pair_probabilities[p]
                count += 1
        return count

    def advance(
        i,
        level,
        order,
        position,
        bucket_start,
        kappa,
        dirty,
        out,
        indptr,
        pair_probabilities,
        pair_alive,
        pair_cliques,
        clique_members,
        clique_positions,
        survivors,
        stats,
    ):
        n = order.shape[0]
        while i < n:
            t = order[i]
            if dirty[t]:
                # Repair request: the driver recomputes t's exact κ and calls
                # feed(); re-entering at the same i re-checks the (possibly
                # new) front, replicating the reference `while dirty` loop.
                dirty[t] = False
                stats[0] += 1
                count = gather_survivors(t, indptr, pair_probabilities, pair_alive, survivors)
                return i, level, t, count
            if kappa[t] > level:
                level = kappa[t]
            out[t] = level
            for j in range(indptr[t], indptr[t + 1]):
                if not pair_alive[j]:
                    continue
                c = pair_cliques[j]
                for s in range(4):
                    pair_alive[clique_positions[c, s]] = False
                for s in range(4):
                    m = clique_members[c, s]
                    if m == t or position[m] <= i:
                        continue
                    old = kappa[m]
                    if old <= level:
                        continue
                    stats[1] += 1
                    move(m, old, old - 1, order, position, bucket_start)
                    kappa[m] = old - 1
                    dirty[m] = True
            i += 1
        return i, level, -1, 0

    def feed(t, exact, level, order, position, bucket_start, kappa):
        if exact < level:
            exact = level
        if exact > kappa[t]:
            move(t, kappa[t], exact, order, position, bucket_start)
            kappa[t] = exact

    if jit is not None:
        move = jit(move)
        gather_survivors = jit(gather_survivors)
        advance = jit(advance)
        feed = jit(feed)
    return {"advance": advance, "feed": feed}


_INTERPRETED = _build(None)
_compiled: dict | None = None


def _warmup(kernels) -> None:
    """Trigger compilation of every entry point on degenerate 1-triangle input."""
    i8 = np.int64
    args = dict(
        order=np.zeros(1, i8),
        position=np.zeros(1, i8),
        bucket_start=np.array([0, 1, 1], dtype=i8),
        kappa=np.zeros(1, i8),
        indptr=np.zeros(2, i8),
        pair_probabilities=np.zeros(0, np.float64),
        pair_alive=np.zeros(0, np.bool_),
        pair_cliques=np.zeros(0, i8),
        clique_members=np.zeros((0, 4), i8),
        clique_positions=np.zeros((0, 4), i8),
        survivors=np.zeros(1, np.float64),
        stats=np.zeros(2, i8),
    )
    out = np.full(1, NO_VALID_K, dtype=i8)
    kernels["advance"](
        0,
        NO_VALID_K,
        args["order"],
        args["position"],
        args["bucket_start"],
        args["kappa"],
        np.zeros(1, np.bool_),
        out,
        args["indptr"],
        args["pair_probabilities"],
        args["pair_alive"],
        args["pair_cliques"],
        args["clique_members"],
        args["clique_positions"],
        args["survivors"],
        args["stats"],
    )
    kernels["feed"](
        0, 0, 0, args["order"], args["position"], args["bucket_start"], args["kappa"]
    )


def _kernels() -> dict:
    """The active peel kernel set: compiled when numba is usable, else plain."""
    global _compiled
    jit = active_jit()
    if jit is None:
        return _INTERPRETED
    if _compiled is None:
        start = perf_counter()
        kernels = _build(jit)
        _warmup(kernels)
        record_compile("peel", perf_counter() - start)
        _compiled = kernels
    return _compiled


def _engine_arrays(index, initial_kappas):
    """The flat int64/float64/bool arrays the kernels operate on."""
    i8 = np.int64
    kappa = np.array(initial_kappas, dtype=i8)
    indptr = np.ascontiguousarray(index.tri_clique_indptr, dtype=i8)
    pair_probabilities = np.ascontiguousarray(index.tri_extension_probabilities, np.float64)
    pair_alive = np.ones(pair_probabilities.size, dtype=np.bool_)
    pair_cliques = np.ascontiguousarray(index.tri_cliques, dtype=i8)
    clique_members = np.ascontiguousarray(index.clique_triangles, dtype=i8)
    clique_positions = np.ascontiguousarray(index.clique_pair_positions, dtype=i8)
    return (
        kappa,
        indptr,
        pair_probabilities,
        pair_alive,
        pair_cliques,
        clique_members,
        clique_positions,
    )


def _bucket_queue(kappa, indptr):
    """Vectorized build of the reference engine's initial bucket queue."""
    num_triangles = kappa.shape[0]
    max_support = int(np.max(np.diff(indptr)))
    num_buckets = int(max(int(kappa.max()), max_support) + 2)
    # Stable counting sort by kappa+1 == the reference fill loop.
    order = np.argsort(kappa, kind="stable").astype(np.int64)
    position = np.empty(num_triangles, dtype=np.int64)
    position[order] = np.arange(num_triangles, dtype=np.int64)
    counts = np.bincount(kappa + 1, minlength=num_buckets)
    bucket_start = np.zeros(num_buckets + 1, dtype=np.int64)
    np.cumsum(counts, out=bucket_start[1:])
    return order, position, bucket_start, max_support


def peel_unit_drop(index, initial_kappas, repair):
    """Bucket-queue peel with the exact repair batched across the jit boundary.

    Returns ``(scores, repairs, deferrals)`` — the scores are bit-identical
    to ``repro.core.peel._peel_kappa_scores`` for any unit-drop repair, and
    the counts feed the same ``repro_peel_*`` metrics.
    """
    num_triangles = index.num_triangles
    scores = np.full(num_triangles, NO_VALID_K, dtype=np.int64)
    if num_triangles == 0:
        return scores, 0, 0
    kernels = _kernels()
    (
        kappa,
        indptr,
        pair_probabilities,
        pair_alive,
        pair_cliques,
        clique_members,
        clique_positions,
    ) = _engine_arrays(index, initial_kappas)
    order, position, bucket_start, max_support = _bucket_queue(kappa, indptr)
    dirty = np.zeros(num_triangles, dtype=np.bool_)
    survivors = np.empty(max(max_support, 1), dtype=np.float64)
    stats = np.zeros(2, dtype=np.int64)
    advance, feed = kernels["advance"], kernels["feed"]
    recompute = repair.recompute

    i, level = 0, NO_VALID_K
    while True:
        i, level, t, count = advance(
            int(i),
            int(level),
            order,
            position,
            bucket_start,
            kappa,
            dirty,
            scores,
            indptr,
            pair_probabilities,
            pair_alive,
            pair_cliques,
            clique_members,
            clique_positions,
            survivors,
            stats,
        )
        if t < 0:
            break
        # .tolist() hands the repair the same Python floats, in the same
        # posting order, as the reference loop — bit-identical DP sums.
        exact = recompute(int(t), survivors[:count].tolist())
        feed(int(t), int(exact), int(level), order, position, bucket_start, kappa)
    return scores, int(stats[0]), int(stats[1])
