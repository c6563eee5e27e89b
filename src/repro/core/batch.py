"""Batched κ-score initialization over CSR graphs (vectorized §5.3 estimators).

Algorithm 1 spends most of its initialization time evaluating, per triangle,
the support tail ``Pr[ζ ≥ k]`` — with the exact Equation-7 dynamic program or
one of the §5.3 statistical approximations — one Python call at a time.  This
module replaces that with a *batched* path:

1. :func:`build_triangle_extension_index` walks a
   :class:`~repro.graph.csr.CSRProbabilisticGraph` once and produces, for
   every triangle, its existence probability ``Pr(△)``, its completing
   vertices and the extension probabilities ``Pr(E_i)`` — all as numpy arrays
   gathered with ordered-adjacency merges and binary-search lookups.
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
from dataclasses import dataclass, field
from functools import cached_property

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
    IntTriangle,
    _members_of_sorted_mask,
    concatenated_rows,
    forward_adjacency_csr,
    triangle_arrays_csr,
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

    Entry ``i`` describes triangle ``triangles[i] = (u, v, w)`` (sorted CSR
    vertex ids, listed in lexicographic order) with existence probability
    ``triangle_probabilities[i]``.  The triangle → 4-clique incidence is a
    CSR-style postings structure: the half-open slice
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
    (:mod:`repro.core.peel`) builds its loops on.
    """

    triangles: list[IntTriangle]
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
        return len(self.triangles)

    @property
    def num_cliques(self) -> int:
        """Number of indexed 4-cliques."""
        return int(self.clique_triangles.shape[0])

    @cached_property
    def completing(self) -> list[np.ndarray]:
        """Per-triangle views of :attr:`tri_completing` (sorted id arrays)."""
        offsets = self.tri_clique_indptr
        return [
            self.tri_completing[offsets[i]:offsets[i + 1]]
            for i in range(self.num_triangles)
        ]

    @cached_property
    def extension_probabilities(self) -> list[np.ndarray]:
        """Per-triangle views of :attr:`tri_extension_probabilities`."""
        offsets = self.tri_clique_indptr
        return [
            self.tri_extension_probabilities[offsets[i]:offsets[i + 1]]
            for i in range(self.num_triangles)
        ]


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

    def __call__(self, source: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Return ``p(source[i], target[i])`` for parallel id arrays of edges."""
        keys = source * self._n + target
        return self._probs[np.searchsorted(self._keys, keys)]

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


def _triangle_row_ids(
    u_ids: np.ndarray, v_ids: np.ndarray, w_ids: np.ndarray, n: int
) -> "tuple[object, bool]":
    """Build a lookup from an ``(u, v, w)`` id triple to its triangle row.

    When ``n³`` fits in int64 the lookup is a sorted composite-key array
    searched with vectorized binary search; for astronomically large graphs
    it degrades to a Python dict.  Returns ``(lookup, vectorized)``.
    """
    if n == 0 or n <= 2_000_000:  # n³ < 2⁶³
        return (u_ids * n + v_ids) * n + w_ids, True
    mapping = {
        triple: i
        for i, triple in enumerate(
            zip(u_ids.tolist(), v_ids.tolist(), w_ids.tolist())
        )
    }
    return mapping, False


def _assemble_triangle_index(
    csr: CSRProbabilisticGraph,
    u_ids: np.ndarray,
    v_ids: np.ndarray,
    w_ids: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
) -> CSRTriangleIndex:
    """Assemble a :class:`CSRTriangleIndex` from canonical triangle and 4-clique ids.

    ``(u_ids, v_ids, w_ids)`` are the triangle vertex triples (each ascending,
    rows in lexicographic order) and ``(a, b, c, d)`` the 4-clique vertex
    quadruples (each ascending, rows in lexicographic order).  All edge
    probabilities are gathered fresh from ``csr`` with the same composite-key
    lookups and multiplied in the same order as the full enumeration, so two
    calls that agree on the triangle/clique id sets produce bit-identical
    arrays regardless of how those sets were discovered — the property the
    incremental delta path (:func:`delta_triangle_extension_index`) relies on
    for its parity with :func:`build_triangle_extension_index`.
    """
    num_triangles = int(u_ids.size)
    triangles: list[IntTriangle] = list(
        zip(u_ids.tolist(), v_ids.tolist(), w_ids.tolist())
    )
    empty_int = np.empty(0, dtype=np.int64)
    empty_float = np.empty(0, dtype=np.float64)

    def _without_cliques(tri_probs: np.ndarray) -> CSRTriangleIndex:
        return CSRTriangleIndex(
            triangles=triangles,
            triangle_probabilities=tri_probs,
            tri_clique_indptr=np.zeros(num_triangles + 1, dtype=np.int64),
            tri_completing=empty_int,
            tri_extension_probabilities=empty_float,
            tri_cliques=empty_int,
            clique_triangles=np.empty((0, 4), dtype=np.int64),
            clique_pair_positions=np.empty((0, 4), dtype=np.int64),
        )

    if num_triangles == 0:
        return _without_cliques(empty_float)

    probability_of = _EdgeProbabilityLookup(csr)
    # Pr(△) = p(u,v) · p(u,w) · p(v,w), matching the scalar evaluation order.
    if a.size == 0:
        p_uv, p_uw, p_vw = probability_of.gather(
            ((u_ids, v_ids), (u_ids, w_ids), (v_ids, w_ids))
        )
        return _without_cliques(p_uv * p_uw * p_vw)

    p_uv, p_uw, p_vw, p_ab, p_ac, p_ad, p_bc, p_bd, p_cd = probability_of.gather(
        (
            (u_ids, v_ids),
            (u_ids, w_ids),
            (v_ids, w_ids),
            (a, b),
            (a, c),
            (a, d),
            (b, c),
            (b, d),
            (c, d),
        )
    )
    tri_probs = p_uv * p_uw * p_vw

    # --- scatter every 4-clique to its four member triangles -------------- #
    n = csr.num_vertices
    lookup, vectorized = _triangle_row_ids(u_ids, v_ids, w_ids, n)

    def rows_of(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        if vectorized:
            return np.searchsorted(lookup, (x * n + y) * n + z)
        return np.fromiter(
            (lookup[triple] for triple in zip(x.tolist(), y.tolist(), z.tolist())),
            dtype=np.int64,
            count=x.size,
        )

    # Member (a,b,c) is the clique's lexicographically smallest triangle (the
    # generating triangle of the full enumeration); extension products follow
    # the scalar p(u,z)·p(v,z)·p(w,z) order.
    num_cliques = int(a.size)
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
    extensions = np.concatenate(
        [
            p_ad * p_bd * p_cd,  # triangle (a,b,c), completing vertex d
            p_ac * p_bc * p_cd,  # triangle (a,b,d), completing vertex c
            p_ab * p_bc * p_bd,  # triangle (a,c,d), completing vertex b
            p_ab * p_ac * p_ad,  # triangle (b,c,d), completing vertex a
        ]
    )
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

    1. enumerate all triangles as parallel id arrays
       (:func:`~repro.deterministic.cliques.triangle_arrays_csr`) and gather
       their edge probabilities with the composite-key lookup;
    2. enumerate all 4-cliques in one batch — for every triangle
       ``(u, v, w)`` the candidates are the forward row of ``w``, filtered by
       two vectorized edge-membership tests against ``v`` and ``u``;
    3. scatter each 4-clique to its four member triangles: the completing
       vertex and the extension probability ``Pr(E_z)`` are computed for all
       cliques at once from the six gathered edge probabilities, and one
       ``lexsort`` groups the (triangle, clique) pairs into the flat postings
       arrays, sorted per triangle by completing vertex.  The clique → pair
       back-pointers (``clique_pair_positions``) fall out of the same sort,
       giving the peel engine its O(1) clique-kill operation for free.

    Steps 1–2 discover the canonical triangle/4-clique id sets; step 3 is the
    shared assembly (:func:`_assemble_triangle_index`) also used by the
    incremental delta path.
    """
    forward = forward_adjacency_csr(csr)
    u_ids, v_ids, w_ids = triangle_arrays_csr(csr, forward=forward)
    num_triangles = int(u_ids.size)
    empty_int = np.empty(0, dtype=np.int64)

    if num_triangles == 0:
        owner = candidates = empty_int
    else:
        probability_of = _EdgeProbabilityLookup(csr)
        # --- batched 4-clique enumeration -------------------------------- #
        fptr, fidx = forward
        candidates, sizes = concatenated_rows(fptr, fidx, w_ids)
        if candidates.size:
            owner = np.repeat(np.arange(num_triangles, dtype=np.int64), sizes)
            keep = probability_of.has_edges(v_ids[owner], candidates)
            owner, candidates = owner[keep], candidates[keep]
            keep = probability_of.has_edges(u_ids[owner], candidates)
            owner, candidates = owner[keep], candidates[keep]
        else:
            owner = candidates = empty_int

    # Because the generating triangle (a,b,c) is the clique's lexicographic
    # minimum and owners ascend with candidates sorted within each owner, the
    # quadruples arrive in lexicographic (a,b,c,d) order — the canonical
    # clique order the assembly expects.
    return _assemble_triangle_index(
        csr,
        u_ids,
        v_ids,
        w_ids,
        u_ids[owner],
        v_ids[owner],
        w_ids[owner],
        candidates,
    )


def clique_vertex_rows(
    index: CSRTriangleIndex, triangle_rows: np.ndarray | None = None
) -> np.ndarray:
    """Return the ``(C, 4)`` ascending vertex ids of every indexed 4-clique.

    Row ``c`` lists the four vertices of clique ``c`` in ascending order; rows
    appear in the index's clique order (lexicographic by vertex quadruple).
    ``triangle_rows`` may pass a prebuilt ``(T, 3)`` array of
    ``index.triangles`` to avoid re-materialising it.
    """
    if index.num_cliques == 0:
        return np.empty((0, 4), dtype=np.int64)
    if triangle_rows is None:
        triangle_rows = np.asarray(index.triangles, dtype=np.int64).reshape(-1, 3)
    # Member 0 is the generating triangle (a,b,c); the completing vertex of
    # its (triangle, clique) pair is d, which is larger than c by forward-
    # adjacency construction, so the concatenation is already ascending.
    first_members = index.clique_triangles[:, 0]
    completing = index.tri_completing[index.clique_pair_positions[:, 0]]
    return np.concatenate(
        [triangle_rows[first_members], completing[:, None]], axis=1
    )


def _regather_probabilities(
    old_index: CSRTriangleIndex,
    new_csr: CSRProbabilisticGraph,
    rows: np.ndarray,
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
    probability_of = _EdgeProbabilityLookup(new_csr)
    if old_index.num_cliques == 0:
        if rows.shape[0]:
            p_uv, p_uw, p_vw = probability_of.gather(
                (
                    (rows[:, 0], rows[:, 1]),
                    (rows[:, 0], rows[:, 2]),
                    (rows[:, 1], rows[:, 2]),
                )
            )
            tri_probs = p_uv * p_uw * p_vw
        else:
            tri_probs = np.empty(0, dtype=np.float64)
        extensions_sorted = old_index.tri_extension_probabilities
    else:
        quads = clique_vertex_rows(old_index, rows)
        a, b, c, d = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]
        p_uv, p_uw, p_vw, p_ab, p_ac, p_ad, p_bc, p_bd, p_cd = probability_of.gather(
            (
                (rows[:, 0], rows[:, 1]),
                (rows[:, 0], rows[:, 2]),
                (rows[:, 1], rows[:, 2]),
                (a, b),
                (a, c),
                (a, d),
                (b, c),
                (b, d),
                (c, d),
            )
        )
        tri_probs = p_uv * p_uw * p_vw
        extensions = np.concatenate(
            [
                p_ad * p_bd * p_cd,  # triangle (a,b,c), completing vertex d
                p_ac * p_bc * p_cd,  # triangle (a,b,d), completing vertex c
                p_ab * p_bc * p_bd,  # triangle (a,c,d), completing vertex b
                p_ab * p_ac * p_ad,  # triangle (b,c,d), completing vertex a
            ]
        )
        # clique_pair_positions[c, m] is where pre-sort pair m·C + c landed
        # in the sorted pair arrays — scatter instead of re-sorting.
        pair_rank = old_index.clique_pair_positions.T.reshape(-1)
        extensions_sorted = np.empty_like(extensions)
        extensions_sorted[pair_rank] = extensions
    return CSRTriangleIndex(
        triangles=old_index.triangles,
        triangle_probabilities=tri_probs,
        tri_clique_indptr=old_index.tri_clique_indptr,
        tri_completing=old_index.tri_completing,
        tri_extension_probabilities=extensions_sorted,
        tri_cliques=old_index.tri_cliques,
        clique_triangles=old_index.clique_triangles,
        clique_pair_positions=old_index.clique_pair_positions,
    )


def delta_triangle_extension_index(
    old_index: CSRTriangleIndex,
    new_csr: CSRProbabilisticGraph,
    inserted: np.ndarray,
    deleted: np.ndarray,
    old_triangle_rows: np.ndarray | None = None,
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
    if old_triangle_rows is None:
        old_triangle_rows = np.asarray(old_index.triangles, dtype=np.int64).reshape(-1, 3)
    rows = old_triangle_rows

    if inserted.shape[0] == 0 and deleted.shape[0] == 0:
        # Probability-only batch: the id sets cannot have changed, so skip
        # the structural delta entirely and just re-price the value arrays.
        return _regather_probabilities(old_index, new_csr, rows)

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

    old_quads = clique_vertex_rows(old_index, rows)
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
    return _assemble_triangle_index(
        new_csr,
        new_rows[:, 0],
        new_rows[:, 1],
        new_rows[:, 2],
        new_quads[:, 0],
        new_quads[:, 1],
        new_quads[:, 2],
        new_quads[:, 3],
    )


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
    num_triangles = len(index.triangles)
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
