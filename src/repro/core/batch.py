"""Batched κ-score initialization over CSR graphs (vectorized §5.3 estimators).

Algorithm 1 spends most of its initialization time evaluating, per triangle,
the support tail ``Pr[ζ ≥ k]`` — with the exact Equation-7 dynamic program or
one of the §5.3 statistical approximations — one Python call at a time.  This
module replaces that with a *batched* path:

1. :func:`build_triangle_extension_index` enumerates the triangles and
   4-cliques of a :class:`~repro.graph.csr.CSRProbabilisticGraph` once
   (:func:`~repro.deterministic.cliques.clique_arrays_csr`) and produces, for
   every triangle, its existence probability ``Pr(△)``, its completing
   vertices and the extension probabilities ``Pr(E_i)`` — all as numpy arrays
   gathered with binary-search lookups.
2. :func:`batched_initial_kappas` groups the triangles by support size
   ``c_△`` (rows of equal length stack into a dense matrix) and evaluates the
   estimator's tail for the whole group in a handful of vectorized numpy
   operations, instead of one Python call per triangle.

The vectorized kernels mirror the scalar estimators' floating-point
arithmetic operation for operation within each recurrence.  One caveat keeps
the parity guarantee honest: this path aggregates each triangle's extension
probabilities in canonical completing-vertex order, while the dict reference
loop (the test oracle) consumes them in 4-clique *discovery* order (which,
coming from set iteration, is not even stable across interpreter runs for
non-integer labels).  Reordering a floating-point sum can move a tail by an
ulp, so a κ-score could in principle differ between the two — but only when
``Pr(△)·Pr[ζ ≥ k]`` lies within one ulp of ``θ`` exactly.  The parity tests
assert identical decomposition output on every seed fixture.
Custom :class:`~repro.core.approximations.SupportEstimator` subclasses
without a vectorized kernel fall back to their scalar ``max_k`` per
triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.approximations import (
    BinomialEstimator,
    DynamicProgrammingEstimator,
    NormalEstimator,
    PoissonEstimator,
    SupportEstimator,
    TranslatedPoissonEstimator,
)
from repro.core.hybrid import HybridEstimator
from repro.core.support_dp import NO_VALID_K
from repro.deterministic.cliques import (
    _members_of_sorted_mask,
    clique_arrays_csr,
    cliques_from_members,
)
from repro.exceptions import InvalidParameterError
from repro.graph.csr import CSRProbabilisticGraph

__all__ = [
    "CSRTriangleIndex",
    "build_triangle_extension_index",
    "delta_triangle_extension_index",
    "clique_vertex_rows",
    "batched_initial_kappas",
]

_ERFC = np.frompyfunc(math.erfc, 1, 1)


@dataclass
class CSRTriangleIndex:
    """Triangle ⇄ 4-clique incidence of a CSR graph, stored as flat arrays.

    Row ``i`` of the ``(t, 3)`` int64 array ``triangles`` is triangle
    ``(u, v, w)`` (ascending CSR vertex ids, rows in lexicographic order),
    with existence probability ``triangle_probabilities[i]``.  The triangle →
    4-clique incidence is a CSR-style postings structure: the half-open slice
    ``tri_clique_indptr[i]:tri_clique_indptr[i + 1]`` of the three parallel
    *pair arrays* holds, sorted by completing vertex,

    ``tri_completing``
        the completing vertex ``z`` of each 4-clique through the triangle,
    ``tri_extension_probabilities``
        the extension probability ``Pr(E_z) = p(u,z)·p(v,z)·p(w,z)``,
    ``tri_cliques``
        the row id of that 4-clique in the clique-level arrays.

    The reverse incidence is dense because every 4-clique has exactly four
    member triangles: ``clique_triangles[c]`` lists the four triangle rows of
    clique ``c`` and ``clique_pair_positions[c]`` the positions of those four
    (triangle, clique) pairs inside the pair arrays — so killing a clique is
    four O(1) writes, the operation the peel engine
    (:mod:`repro.core.peel`) builds its loops on.  The members are listed in
    the order ``(a,b,c), (a,b,d), (a,c,d), (b,c,d)`` of the 4-clique
    ``(a, b, c, d)``, and 4-clique rows are in lexicographic order, the same
    incidence the verifier's
    :class:`~repro.sampling.world_matrix.CandidateWorldIndex` holds.
    """

    triangles: np.ndarray
    triangle_probabilities: np.ndarray
    tri_clique_indptr: np.ndarray
    tri_completing: np.ndarray
    tri_extension_probabilities: np.ndarray
    tri_cliques: np.ndarray
    clique_triangles: np.ndarray = field(repr=False)
    clique_pair_positions: np.ndarray = field(repr=False)

    @property
    def num_triangles(self) -> int:
        """Number of indexed triangles."""
        return int(self.triangles.shape[0])

    @property
    def num_cliques(self) -> int:
        """Number of indexed 4-cliques."""
        return int(self.clique_triangles.shape[0])


class _EdgeProbabilityLookup:
    """Vectorized edge-probability gather over the flat CSR arrays.

    Every directed edge copy ``(i, j)`` is encoded as the scalar key
    ``i·n + j``; because CSR rows are sorted and row owners ascend, the flat
    key array is globally sorted, so a whole batch of edge probabilities is
    one ``searchsorted`` plus one fancy-index — no per-edge Python work.
    """

    def __init__(self, csr: CSRProbabilisticGraph) -> None:
        n = csr.num_vertices
        self._n = n
        self._keys = csr.directed_edge_owners() * n + csr.indices
        self._probs = csr.probabilities

    def gather(self, pairs) -> "list[np.ndarray]":
        """Probabilities for several parallel pair batches in one search.

        Elementwise identical to calling the lookup once per ``(source,
        target)`` pair — binary search is per-element — but pays the
        ``searchsorted`` dispatch overhead once, which dominates the many
        small lookups of the incremental delta path.
        """
        keys = np.concatenate([source * self._n + target for source, target in pairs])
        probs = self._probs[np.searchsorted(self._keys, keys)]
        out = []
        start = 0
        for source, _ in pairs:
            out.append(probs[start : start + source.size])
            start += source.size
        return out

    def has_edges(self, source: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Boolean mask telling which ``(source[i], target[i])`` pairs are edges."""
        return _members_of_sorted_mask(source * self._n + target, self._keys)


def _triangle_row_ids(triangles: np.ndarray, n: int) -> "tuple[object, bool]":
    """Build a lookup from an ``(u, v, w)`` id triple to its triangle row.

    When ``n³`` fits in int64 the lookup is a sorted composite-key array
    searched with vectorized binary search; for astronomically large graphs
    it degrades to a Python dict.  Returns ``(lookup, vectorized)``.
    """
    if n == 0 or n <= 2_000_000:  # n³ < 2⁶³
        return (triangles[:, 0] * n + triangles[:, 1]) * n + triangles[:, 2], True
    return {tuple(triple): i for i, triple in enumerate(triangles.tolist())}, False


def _gathered_probabilities(
    csr: CSRProbabilisticGraph, triangles: np.ndarray, cliques: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``Pr(△)`` of every triangle row and ``Pr(E_z)`` of every (triangle, 4-clique) pair.

    The pairs are listed member-major: the ``(a,b,c)`` member of every
    4-clique ``(a, b, c, d)``, then the ``(a,b,d)``, ``(a,c,d)`` and
    ``(b,c,d)`` members.  One composite-key gather, and products in the
    scalar ``p(u,v)·p(u,w)·p(v,w)`` and ``p(u,z)·p(v,z)·p(w,z)`` orders, so
    the values depend only on the rows, not on how they were found.
    """
    u, v, w = triangles.T
    a, b, c, d = cliques.T
    p_uv, p_uw, p_vw, p_ab, p_ac, p_ad, p_bc, p_bd, p_cd = _EdgeProbabilityLookup(csr).gather(
        ((u, v), (u, w), (v, w), (a, b), (a, c), (a, d), (b, c), (b, d), (c, d))
    )
    extensions = np.concatenate(
        [
            p_ad * p_bd * p_cd,  # triangle (a,b,c), completing vertex d
            p_ac * p_bc * p_cd,  # triangle (a,b,d), completing vertex c
            p_ab * p_bc * p_bd,  # triangle (a,c,d), completing vertex b
            p_ab * p_ac * p_ad,  # triangle (b,c,d), completing vertex a
        ]
    )
    return p_uv * p_uw * p_vw, extensions


def _assemble_triangle_index(
    csr: CSRProbabilisticGraph, triangles: np.ndarray, cliques: np.ndarray
) -> CSRTriangleIndex:
    """Assemble a :class:`CSRTriangleIndex` from canonical triangle and 4-clique ids.

    ``triangles`` (``(t, 3)``) and ``cliques`` (``(q, 4)``) hold ascending
    vertex ids, rows in lexicographic order.  All edge probabilities are
    gathered fresh from ``csr`` (:func:`_gathered_probabilities`), so two
    calls that agree on the triangle/clique id sets produce bit-identical
    arrays regardless of how those sets were discovered — the property the
    incremental delta path (:func:`delta_triangle_extension_index`) relies on
    for its parity with :func:`build_triangle_extension_index`.
    """
    tri_probs, extensions = _gathered_probabilities(csr, triangles, cliques)

    # --- scatter every 4-clique to its four member triangles -------------- #
    num_triangles, num_cliques = triangles.shape[0], cliques.shape[0]
    n = csr.num_vertices
    lookup, vectorized = _triangle_row_ids(triangles, n)
    a, b, c, d = cliques.T

    def rows_of(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        if vectorized:
            return np.searchsorted(lookup, (x * n + y) * n + z)
        return np.fromiter(
            (lookup[triple] for triple in zip(x.tolist(), y.tolist(), z.tolist())),
            dtype=np.int64,
            count=x.size,
        )

    # Member (a,b,c) is the clique's lexicographically smallest triangle (the
    # generating triangle of the full enumeration).
    if vectorized:
        # One binary search over the four member triples of every clique;
        # elementwise identical to four separate rows_of calls.
        member_keys = np.concatenate(
            [
                (a * n + b) * n + c,
                (a * n + b) * n + d,
                (a * n + c) * n + d,
                (b * n + c) * n + d,
            ]
        )
        clique_triangles = np.ascontiguousarray(
            np.searchsorted(lookup, member_keys).reshape(4, num_cliques).T
        )
    else:
        clique_triangles = np.stack(
            [rows_of(a, b, c), rows_of(a, b, d), rows_of(a, c, d), rows_of(b, c, d)],
            axis=1,
        )
    member_rows = clique_triangles.T.reshape(-1)
    completing_ids = np.concatenate([d, c, b, a])
    clique_ids = np.tile(np.arange(num_cliques, dtype=np.int64), 4)
    order = np.lexsort((completing_ids, member_rows))
    # pair_rank[j] is the position of pre-sort pair j in the sorted pair
    # arrays, which is exactly where the clique-level structure must point.
    pair_rank = np.empty(order.size, dtype=np.int64)
    pair_rank[order] = np.arange(order.size, dtype=np.int64)
    counts = np.bincount(member_rows, minlength=num_triangles)
    tri_clique_indptr = np.zeros(num_triangles + 1, dtype=np.int64)
    np.cumsum(counts, out=tri_clique_indptr[1:])
    return CSRTriangleIndex(
        triangles=triangles,
        triangle_probabilities=tri_probs,
        tri_clique_indptr=tri_clique_indptr,
        tri_completing=completing_ids[order],
        tri_extension_probabilities=extensions[order],
        tri_cliques=clique_ids[order],
        clique_triangles=clique_triangles,
        clique_pair_positions=pair_rank.reshape(4, num_cliques).T.copy(),
    )


def build_triangle_extension_index(csr: CSRProbabilisticGraph) -> CSRTriangleIndex:
    """Index every triangle of ``csr`` with its 4-clique extension probabilities.

    Fully batched pipeline:

    1. enumerate all triangles and 4-cliques as ``(t, 3)`` / ``(q, 4)`` id
       arrays with the one batched enumeration
       (:func:`~repro.deterministic.cliques.clique_arrays_csr`, which the
       verifier's :meth:`~repro.sampling.world_matrix.CandidateWorldIndex.from_graph`
       calls too);
    2. gather the edge probabilities of every triangle and 4-clique with the
       composite-key lookup;
    3. scatter each 4-clique to its four member triangles: the completing
       vertex and the extension probability ``Pr(E_z)`` are computed for all
       cliques at once from the six gathered edge probabilities, and one
       ``lexsort`` groups the (triangle, clique) pairs into the flat postings
       arrays, sorted per triangle by completing vertex.  The clique → pair
       back-pointers (``clique_pair_positions``) fall out of the same sort,
       giving the peel engine its O(1) clique-kill operation for free.

    Steps 2–3 are the shared assembly (:func:`_assemble_triangle_index`) also
    used by the incremental delta path.
    """
    return _assemble_triangle_index(csr, *clique_arrays_csr(csr))


def clique_vertex_rows(index: CSRTriangleIndex) -> np.ndarray:
    """Return the ``(C, 4)`` ascending vertex ids of every indexed 4-clique.

    Row ``c`` lists the four vertices of clique ``c`` in ascending order; rows
    appear in the index's clique order (lexicographic by vertex quadruple).
    """
    return cliques_from_members(index.triangles, index.clique_triangles)


def _regather_probabilities(
    old_index: CSRTriangleIndex, new_csr: CSRProbabilisticGraph
) -> CSRTriangleIndex:
    """Re-price an index whose triangle/4-clique structure is unchanged.

    For probability-only update batches the id sets — and therefore every
    structural array of the index — are exactly those of ``old_index``; only
    the value arrays depend on the edge probabilities.  This recomputes
    ``triangle_probabilities`` and ``tri_extension_probabilities`` with the
    same gathers and multiplication order as :func:`_assemble_triangle_index`
    and scatters the extension products through the stored clique → pair
    back-pointers (the inverse of the assembly's lexsort), so the result is
    bit-identical to a full reassembly at a fraction of the cost.  The
    structural arrays are *shared* with ``old_index``, which is safe because
    nothing downstream mutates them (the score repair only reads them).
    """
    tri_probs, extensions = _gathered_probabilities(
        new_csr, old_index.triangles, clique_vertex_rows(old_index)
    )
    # clique_pair_positions[c, m] is where pre-sort pair m·C + c landed in the
    # sorted pair arrays — scatter instead of re-sorting.
    extensions_sorted = np.empty_like(extensions)
    extensions_sorted[old_index.clique_pair_positions.T.reshape(-1)] = extensions
    return replace(
        old_index,
        triangle_probabilities=tri_probs,
        tri_extension_probabilities=extensions_sorted,
    )


def delta_triangle_extension_index(
    old_index: CSRTriangleIndex,
    new_csr: CSRProbabilisticGraph,
    inserted: np.ndarray,
    deleted: np.ndarray,
) -> CSRTriangleIndex:
    """Rebuild a :class:`CSRTriangleIndex` after a batch of edge updates.

    ``inserted`` and ``deleted`` are ``(k, 2)`` int64 arrays of undirected
    edges (``u < v``, vertex ids of the shared id space) that were added to /
    removed from the graph that produced ``old_index``; ``new_csr`` is the
    post-update graph.  Probability-only changes need no structural delta —
    the assembly re-gathers every edge probability from ``new_csr``.

    Only the triangles and 4-cliques *containing a changed edge* are
    enumerated: dead ones are dropped from the old id sets by a vectorized
    membership test, born ones are discovered from the common neighborhoods
    of the inserted edges, and the merged canonical id sets are handed to the
    same assembly stage as the full enumeration — the result is bit-identical
    to ``build_triangle_extension_index(new_csr)`` (pinned by
    ``tests/test_incremental.py``) at a cost proportional to the changed
    neighborhood, not the whole graph.

    The caller must guarantee each undirected edge appears at most once
    across ``inserted``/``deleted`` (no insert-then-delete of the same edge
    within one batch) and that the vertex set is unchanged.
    """
    n = new_csr.num_vertices
    if n > 2_000_000:
        raise InvalidParameterError(
            "delta_triangle_extension_index requires composite-key id space "
            f"(num_vertices <= 2_000_000, got {n})"
        )
    inserted = np.ascontiguousarray(inserted, dtype=np.int64).reshape(-1, 2)
    deleted = np.ascontiguousarray(deleted, dtype=np.int64).reshape(-1, 2)
    rows = old_index.triangles

    if inserted.shape[0] == 0 and deleted.shape[0] == 0:
        # Probability-only batch: the id sets cannot have changed, so skip
        # the structural delta entirely and just re-price the value arrays.
        return _regather_probabilities(old_index, new_csr)

    del_keys = np.sort(deleted[:, 0] * n + deleted[:, 1])

    def touches_deleted(r: np.ndarray) -> np.ndarray:
        """Mask of rows (triangles or cliques) containing a deleted edge."""
        count = r.shape[0]
        if count == 0 or del_keys.size == 0:
            return np.zeros(count, dtype=bool)
        width = r.shape[1]
        keys = np.concatenate(
            [r[:, i] * n + r[:, j] for i in range(width) for j in range(i + 1, width)]
        )
        pair_count = (width * (width - 1)) // 2
        return (
            _members_of_sorted_mask(keys, del_keys)
            .reshape(pair_count, count)
            .any(axis=0)
        )

    surviving_rows = rows[~touches_deleted(rows)]

    old_quads = clique_vertex_rows(old_index)
    surviving_quads = old_quads[~touches_deleted(old_quads)]

    # --- born triangles / 4-cliques: common neighborhoods of inserts ------ #
    probability_of = _EdgeProbabilityLookup(new_csr)
    born_tri_blocks: list[np.ndarray] = []
    born_quad_blocks: list[np.ndarray] = []
    for x, y in inserted.tolist():
        common = np.intersect1d(
            new_csr.neighbor_ids(x), new_csr.neighbor_ids(y), assume_unique=True
        )
        if common.size == 0:
            continue
        tri = np.empty((common.size, 3), dtype=np.int64)
        tri[:, 0] = x
        tri[:, 1] = y
        tri[:, 2] = common
        tri.sort(axis=1)
        born_tri_blocks.append(tri)
        if common.size >= 2:
            wi, xi = np.triu_indices(common.size, k=1)
            wv, xv = common[wi], common[xi]
            keep = probability_of.has_edges(wv, xv)
            if keep.any():
                quad = np.empty((int(keep.sum()), 4), dtype=np.int64)
                quad[:, 0] = x
                quad[:, 1] = y
                quad[:, 2] = wv[keep]
                quad[:, 3] = xv[keep]
                quad.sort(axis=1)
                born_quad_blocks.append(quad)

    def merge_canonical(surviving: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
        """Dedupe born rows, merge with survivors, restore lexicographic order."""
        if not blocks:
            # A subsequence of lexicographically sorted rows is already
            # sorted — delete-only batches skip the re-sort entirely.
            return np.ascontiguousarray(surviving)
        born = np.unique(np.vstack(blocks), axis=0)
        merged = np.vstack([surviving, born]) if surviving.size else born
        if merged.shape[0] == 0:
            return merged
        order = np.lexsort(tuple(merged[:, i] for i in range(merged.shape[1] - 1, -1, -1)))
        return np.ascontiguousarray(merged[order])

    new_rows = merge_canonical(surviving_rows, born_tri_blocks)
    new_quads = merge_canonical(surviving_quads, born_quad_blocks)
    if new_rows.shape[0] == 0:
        new_rows = new_rows.reshape(0, 3)
    if new_quads.shape[0] == 0:
        new_quads = new_quads.reshape(0, 4)
    return _assemble_triangle_index(new_csr, new_rows, new_quads)


# --------------------------------------------------------------------------- #
# vectorized tail kernels
# --------------------------------------------------------------------------- #
def _tails_from_pmf(pmf: np.ndarray) -> np.ndarray:
    """Row-wise reverse cumulative sum of a pmf matrix, clamped into [0, 1]."""
    tails = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    return np.clip(tails, 0.0, 1.0)


def _dp_tails(matrix: np.ndarray) -> np.ndarray:
    """Exact Poisson-binomial tails (Equation 7) for all rows of ``matrix``."""
    m, c = matrix.shape
    pmf = np.zeros((m, c + 1), dtype=np.float64)
    pmf[:, 0] = 1.0
    for j in range(c):
        p = matrix[:, j][:, None]
        nxt = np.zeros_like(pmf)
        nxt[:, 1:] = pmf[:, :-1] * p
        nxt += pmf * (1.0 - p)
        pmf = nxt
    return _tails_from_pmf(pmf)


def _poisson_tails_from_rates(rates: np.ndarray, count: int) -> np.ndarray:
    """Row-wise ``Pr[Poisson(λ) ≥ k]`` for ``k = 0 … count`` (Equation 10)."""
    m = rates.shape[0]
    pmf = np.empty((m, count + 1), dtype=np.float64)
    pmf[:, 0] = np.exp(-rates)
    for k in range(1, count + 1):
        pmf[:, k] = pmf[:, k - 1] * rates / k
    below = 1.0 - pmf.sum(axis=1)
    running = np.maximum(0.0, below)
    tails = np.empty_like(pmf)
    for k in range(count, -1, -1):
        running = running + pmf[:, k]
        tails[:, k] = np.clip(running, 0.0, 1.0)
    return tails


def _poisson_tails(matrix: np.ndarray) -> np.ndarray:
    return _poisson_tails_from_rates(matrix.sum(axis=1), matrix.shape[1])


def _translated_poisson_tails(matrix: np.ndarray) -> np.ndarray:
    m, c = matrix.shape
    lam = matrix.sum(axis=1)
    variance = (matrix * (1.0 - matrix)).sum(axis=1)
    shift = np.clip(np.floor(lam - variance).astype(np.int64), 0, c)
    rates = np.maximum(0.0, lam - shift)
    poisson_tails = _poisson_tails_from_rates(rates, c)
    offsets = np.arange(c + 1, dtype=np.int64)[None, :] - shift[:, None]
    columns = np.clip(offsets, 0, c)
    gathered = poisson_tails[np.arange(m)[:, None], columns]
    return np.where(offsets <= 0, 1.0, gathered)


def _normal_tails(matrix: np.ndarray) -> np.ndarray:
    m, c = matrix.shape
    mean = matrix.sum(axis=1)
    variance = (matrix * (1.0 - matrix)).sum(axis=1)
    ks = np.arange(c + 1, dtype=np.float64)[None, :]
    tails = np.empty((m, c + 1), dtype=np.float64)
    degenerate = variance <= 0.0
    if degenerate.any():
        tails[degenerate] = (
            ks <= (mean[degenerate] + 1e-12)[:, None]
        ).astype(np.float64)
    regular = ~degenerate
    if regular.any():
        sigma = np.sqrt(variance[regular])
        z = (ks - mean[regular][:, None]) / sigma[:, None]
        tails[regular] = 0.5 * _ERFC(z / math.sqrt(2.0)).astype(np.float64)
    return tails


def _binomial_tails(matrix: np.ndarray) -> np.ndarray:
    m, n = matrix.shape
    if n == 0:
        return np.ones((m, 1), dtype=np.float64)
    p = np.clip(matrix.sum(axis=1) / n, 0.0, 1.0)
    pmf = np.zeros((m, n + 1), dtype=np.float64)
    zero = p == 0.0
    one = p == 1.0
    mid = ~(zero | one)
    pmf[zero, 0] = 1.0
    pmf[one, n] = 1.0
    if mid.any():
        pm = p[mid]
        pmf[mid, 0] = (1.0 - pm) ** n
        column = pmf[mid, 0]
        for k in range(1, n + 1):
            column = column * (n - k + 1) * pm / (k * (1.0 - pm))
            pmf[mid, k] = column
    return _tails_from_pmf(pmf)


_KERNELS: dict[type, object] = {
    DynamicProgrammingEstimator: _dp_tails,
    PoissonEstimator: _poisson_tails,
    TranslatedPoissonEstimator: _translated_poisson_tails,
    NormalEstimator: _normal_tails,
    BinomialEstimator: _binomial_tails,
}

_KERNELS_BY_NAME = {
    "dp": _dp_tails,
    "poisson": _poisson_tails,
    "translated_poisson": _translated_poisson_tails,
    "clt": _normal_tails,
    "binomial": _binomial_tails,
}


def _max_k_from_tails(
    triangle_probabilities: np.ndarray, tails: np.ndarray, theta: float
) -> np.ndarray:
    """Vectorized largest ``k`` with ``Pr(△)·Pr[ζ ≥ k] ≥ θ`` per row.

    Mirrors the scalar search: scan ``k`` upward and stop at the first
    failure, returning :data:`NO_VALID_K` when even ``k = 0`` fails.
    """
    qualifies = triangle_probabilities[:, None] * tails >= theta
    first_failure = np.argmax(~qualifies, axis=1)
    all_qualify = qualifies.all(axis=1)
    best = np.where(all_qualify, tails.shape[1] - 1, first_failure - 1)
    return best.astype(np.int64)


def _hybrid_partition(
    matrix: np.ndarray, estimator: HybridEstimator
) -> dict[str, np.ndarray]:
    """Split the rows of ``matrix`` by the §5.3 selection rules.

    Returns ``{estimator_name: row mask}`` applying the same cascade as
    :meth:`HybridEstimator.select` to every row at once.
    """
    params = estimator.parameters
    m, c = matrix.shape
    masks: dict[str, np.ndarray] = {}
    remaining = np.ones(m, dtype=bool)
    if c >= params.clt_min_cliques:
        masks["clt"] = remaining
        return masks
    if c < params.poisson_max_cliques:
        poisson = (
            remaining
            if c == 0
            else remaining & (matrix < params.poisson_max_probability).all(axis=1)
        )
    else:
        poisson = np.zeros(m, dtype=bool)
    masks["poisson"] = poisson
    remaining = remaining & ~poisson
    sum_squares = (matrix * matrix).sum(axis=1)
    translated = remaining & (sum_squares > 1.0)
    masks["translated_poisson"] = translated
    remaining = remaining & ~translated
    if c == 0:
        ratio = np.ones(m, dtype=np.float64)
    else:
        mean = matrix.sum(axis=1)
        true_variance = (matrix * (1.0 - matrix)).sum(axis=1)
        p = mean / c
        binomial_variance = c * p * (1.0 - p)
        ratio = np.where(
            binomial_variance <= 0.0,
            1.0,
            np.divide(
                true_variance,
                binomial_variance,
                out=np.ones_like(true_variance),
                where=binomial_variance > 0.0,
            ),
        )
    binomial = remaining & (ratio >= params.binomial_min_variance_ratio)
    masks["binomial"] = binomial
    masks["dp"] = remaining & ~binomial
    return {name: mask for name, mask in masks.items() if mask.any()}


def batched_initial_kappas(
    index: CSRTriangleIndex,
    theta: float,
    estimator: SupportEstimator,
) -> np.ndarray:
    """Compute the initial κ-score of every indexed triangle in vectorized batches.

    Triangles are grouped by support size ``c_△``; each group's extension
    probabilities stack into a dense ``(group, c_△)`` matrix evaluated by the
    estimator's vectorized kernel in one shot.  The returned ``int64`` array
    is parallel to ``index.triangles``.  For a
    :class:`~repro.core.hybrid.HybridEstimator` the rows of a group are
    further partitioned by the §5.3 selection cascade (and
    ``estimator.selection_counts`` is updated accordingly); estimators without
    a registered kernel are evaluated with their scalar ``max_k`` per row.
    """
    num_triangles = index.num_triangles
    kappas = np.empty(num_triangles, dtype=np.int64)
    if num_triangles == 0:
        return kappas

    tri_probs = index.triangle_probabilities
    indptr = index.tri_clique_indptr
    flat = index.tri_extension_probabilities
    sizes = np.diff(indptr)

    is_hybrid = isinstance(estimator, HybridEstimator)
    kernel = None if is_hybrid else _KERNELS.get(type(estimator))
    if kernel is None and not is_hybrid:
        for i in range(num_triangles):
            kappas[i] = estimator.max_k(
                float(tri_probs[i]), flat[indptr[i]:indptr[i + 1]].tolist(), theta
            )
        return kappas

    groups: dict[int, list[int]] = {}
    for i, c in enumerate(sizes.tolist()):
        groups.setdefault(c, []).append(i)

    for c, members in groups.items():
        member_ids = np.asarray(members, dtype=np.int64)
        # Rows of equal support size gather into one dense matrix with a
        # single fancy index over the flat pair array.
        matrix = (
            np.empty((member_ids.size, 0), dtype=np.float64)
            if c == 0
            else flat[indptr[member_ids][:, None] + np.arange(c, dtype=np.int64)]
        )
        group_probs = tri_probs[member_ids]
        if is_hybrid:
            for name, mask in _hybrid_partition(matrix, estimator).items():
                estimator.selection_counts[name] += int(mask.sum())
                tails = _KERNELS_BY_NAME[name](matrix[mask])
                kappas[member_ids[mask]] = _max_k_from_tails(
                    group_probs[mask], tails, theta
                )
        else:
            tails = kernel(matrix)
            kappas[member_ids] = _max_k_from_tails(group_probs, tails, theta)

    # The sentinel contract: anything below 0 is NO_VALID_K.
    np.maximum(kappas, NO_VALID_K, out=kappas)
    return kappas
