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
from dataclasses import dataclass, field

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
    "TriangleIndexSplice",
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


#: Largest vertex count whose composite triangle keys ``(u·n + v)·n + w`` fit
#: in int64; the incremental path needs them, larger graphs are rebuilt.
_MAX_KEYED_VERTICES = 2_000_000


def _triple_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """Composite keys ``(u·n + v)·n + w`` of vertex-id triples, sorted with their rows."""
    return (rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2]


def _triangle_row_ids(triangles: np.ndarray, n: int) -> "tuple[object, bool]":
    """Build a lookup from an ``(u, v, w)`` id triple to its triangle row.

    When ``n³`` fits in int64 the lookup is a sorted composite-key array
    searched with vectorized binary search; for astronomically large graphs
    it degrades to a Python dict.  Returns ``(lookup, vectorized)``.
    """
    if n <= _MAX_KEYED_VERTICES:  # n³ < 2⁶³
        return _triple_keys(triangles, n), True
    return {tuple(triple): i for i, triple in enumerate(triangles.tolist())}, False


def _postings_of(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The posting positions of ``rows``, row after row, and each row's count."""
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    offsets = np.cumsum(sizes) - sizes
    return np.arange(int(sizes.sum())) + np.repeat(starts - offsets, sizes), sizes


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
    gathered fresh from ``csr`` (:func:`_gathered_probabilities`), so the
    values depend only on the rows — the property the incremental splice
    (:func:`delta_triangle_extension_index`) relies on when it gathers the
    rows it changed with the same function.  This is the one assembly path
    of a full build.
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

    Steps 2–3 are :func:`_assemble_triangle_index`.  After an edge batch,
    :func:`delta_triangle_extension_index` splices the old index into the
    same arrays instead.
    """
    return _assemble_triangle_index(csr, *clique_arrays_csr(csr))


def clique_vertex_rows(index: CSRTriangleIndex) -> np.ndarray:
    """Return the ``(C, 4)`` ascending vertex ids of every indexed 4-clique.

    Row ``c`` lists the four vertices of clique ``c`` in ascending order; rows
    appear in the index's clique order (lexicographic by vertex quadruple).
    """
    return cliques_from_members(index.triangles, index.clique_triangles)


class _RowSplice:
    """Drop rows of an array and insert born rows at their sorted places.

    ``dropped`` holds ascending old row positions.  ``at`` holds, for each
    born row in order, the rank of the surviving row it goes before
    (nondecreasing; the number of survivors for an append).  One plan
    splices every array parallel to the same rows, by concatenating runs of
    the old array and of the born rows, so a change of a few rows costs a few
    slices and one copy.
    """

    def __init__(self, count: int, dropped: np.ndarray, at: np.ndarray) -> None:
        self.count = count
        self.dropped = dropped
        self.at = at
        self.edited = bool(dropped.size or at.size)
        # The old position each born row goes before: its survivor's, past
        # any dropped rows just ahead of that survivor.
        before = at + np.searchsorted(dropped - np.arange(dropped.size), at, side="right")
        drops, befores = dropped.tolist(), before.tolist()
        runs = []  # (from the old array?, start, stop)
        start = i = j = 0
        while i < len(drops) or j < len(befores):
            if j < len(befores) and (i == len(drops) or befores[j] < drops[i]):
                k = j + 1
                while k < len(befores) and befores[k] == befores[j]:
                    k += 1
                runs += [(True, start, befores[j]), (False, j, k)]
                start, j = befores[j], k
            else:
                runs.append((True, start, drops[i]))
                start, i = drops[i] + 1, i + 1
        runs.append((True, start, count))
        self._runs = [run for run in runs if run[2] > run[1]]

    def __call__(self, old: np.ndarray, born: np.ndarray) -> np.ndarray:
        """``old`` spliced with ``born`` (``old`` itself when nothing changes)."""
        if not self.edited:
            return old
        pieces = [
            (old if from_old else born)[start:stop] for from_old, start, stop in self._runs
        ]
        return np.concatenate(pieces) if pieces else old[:0].copy()

    def born_positions(self) -> np.ndarray:
        """The new position of every born row."""
        return self.at + np.arange(self.at.size, dtype=np.int64)

    def table(self) -> np.ndarray:
        """The new position of every old row, ``-1`` for dropped rows."""
        table = np.arange(self.count, dtype=np.int64)
        position = 0
        for from_old, start, stop in self._runs:
            if from_old and position != start:
                table[start:stop] += position - start
            position += stop - start
        table[self.dropped] = -1
        return table


def _unique_rows(blocks: "list[np.ndarray]", width: int) -> np.ndarray:
    """The distinct rows of ``blocks`` in lexicographic order."""
    if not blocks:
        return np.empty((0, width), dtype=np.int64)
    return np.unique(np.vstack(blocks), axis=0)


def _structures_on(
    csr: CSRProbabilisticGraph, edges: np.ndarray, cliques: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The triangles, and with ``cliques`` the 4-cliques, of ``csr`` through ``edges``.

    ``edges`` are ``(k, 2)`` edges of ``csr``.  Rows hold ascending vertex
    ids, in lexicographic order, each once.  The third vertex of a triangle
    on ``(x, y)`` is a common neighbour, and so are the other two of a
    4-clique, which must also be adjacent.
    """
    triangle_blocks: list[np.ndarray] = []
    clique_blocks: list[np.ndarray] = []
    lookup = _EdgeProbabilityLookup(csr) if cliques and edges.size else None
    for x, y in edges.tolist():
        common = np.intersect1d(csr.neighbor_ids(x), csr.neighbor_ids(y), assume_unique=True)
        if common.size == 0:
            continue
        tri = np.empty((common.size, 3), dtype=np.int64)
        tri[:, 0] = x
        tri[:, 1] = y
        tri[:, 2] = common
        tri.sort(axis=1)
        triangle_blocks.append(tri)
        if lookup is not None and common.size >= 2:
            wi, xi = np.triu_indices(common.size, k=1)
            wv, xv = common[wi], common[xi]
            keep = lookup.has_edges(wv, xv)
            if keep.any():
                quad = np.empty((int(keep.sum()), 4), dtype=np.int64)
                quad[:, 0] = x
                quad[:, 1] = y
                quad[:, 2] = wv[keep]
                quad[:, 3] = xv[keep]
                quad.sort(axis=1)
                clique_blocks.append(quad)
    return _unique_rows(triangle_blocks, 3), _unique_rows(clique_blocks, 4)


#: Vertex columns of a 4-clique ``(a, b, c, d)``'s members, in ``clique_triangles`` order.
_MEMBER_COLUMNS = ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3])


@dataclass
class TriangleIndexSplice:
    """A :class:`CSRTriangleIndex` spliced after an edge batch, and what changed.

    ``row_map[i]`` is the new row of old triangle ``i`` (``-1`` when it died).
    ``repriced`` lists the new rows whose ``Pr(△)`` was gathered: the born
    triangles and the survivors on a re-priced edge.  ``touched`` lists the
    new rows whose κ inputs changed: those, every member of a born 4-clique
    or of one on a re-priced edge, and every surviving member of a dead
    4-clique.  ``lowered`` lists the touched rows whose κ inputs only fell:
    the surviving members of dead 4-cliques and the rows around an edge
    re-priced downwards (on it, or in a 4-clique holding it), minus every
    row that was born, belongs to a born 4-clique, or lies around an edge
    whose probability rose.  All three are ascending.  ``counts`` holds the
    numbers of born and dead triangles and 4-cliques and of re-priced
    postings (those of surviving 4-cliques on a re-priced edge).
    """

    index: CSRTriangleIndex
    row_map: np.ndarray
    repriced: np.ndarray
    touched: np.ndarray
    lowered: np.ndarray
    counts: dict

    def base_scores(self, scores: np.ndarray) -> np.ndarray:
        """``scores`` of the old rows carried onto the new rows, ``-1`` on born rows."""
        base = np.full(self.index.num_triangles, -1, dtype=np.int64)
        survived = self.row_map >= 0
        base[self.row_map[survived]] = scores[survived]
        return base


def delta_triangle_extension_index(
    old_index: CSRTriangleIndex,
    old_csr: CSRProbabilisticGraph,
    new_csr: CSRProbabilisticGraph,
    inserted: np.ndarray,
    deleted: np.ndarray,
    changed: np.ndarray,
) -> TriangleIndexSplice:
    """Splice a :class:`CSRTriangleIndex` after a batch of edge updates.

    ``inserted``, ``deleted`` and ``changed`` are ``(k, 2)`` int64 arrays of
    undirected edges (``u < v``, vertex ids of the shared id space) added to,
    removed from and re-priced in ``old_csr``, the graph of ``old_index``;
    ``new_csr`` is the post-update graph.  The old index is edited, not
    rebuilt, at a cost proportional to the changed neighbourhood plus a few
    array copies:

    1. the dead triangles are the deleted edges' common neighbours in
       ``old_csr``, and the dead 4-cliques are their postings; the born
       triangles and 4-cliques come from the inserted edges' common
       neighbours in ``new_csr``;
    2. dead rows are dropped and born rows inserted at their sorted places,
       and the surviving triangle rows, 4-clique ids and posting positions
       stored in the arrays are shifted by the rows removed and inserted
       before them.  Born postings sort by triangle row, then completing
       vertex;
    3. edge probabilities are gathered only for the born triangles and
       4-cliques and for those on a re-priced edge, with the products of the
       full assembly (:func:`_gathered_probabilities`).

    Every array is therefore bit-identical to
    ``build_triangle_extension_index(new_csr)`` (pinned by
    ``tests/test_incremental.py``), and an array the batch does not change
    is shared with ``old_index``: a re-price-only batch shares every
    structural array.  Nothing mutates the arrays downstream.

    The caller must guarantee each undirected edge appears at most once
    across the three arrays and that the vertex set is unchanged.
    """
    n = new_csr.num_vertices
    if n > _MAX_KEYED_VERTICES:
        raise InvalidParameterError(
            "delta_triangle_extension_index requires composite-key id space "
            f"(num_vertices <= {_MAX_KEYED_VERTICES:_}, got {n})"
        )
    inserted, deleted, changed = (
        np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        for edges in (inserted, deleted, changed)
    )
    old = old_index
    dead_triangles, _ = _structures_on(old_csr, deleted, cliques=False)
    born_triangles, born_quads = _structures_on(new_csr, inserted, cliques=True)
    changed_triangles, _ = _structures_on(new_csr, changed, cliques=False)

    # --- triangle rows ---------------------------------------------------- #
    old_keys = _triple_keys(old.triangles, n)
    born_keys = _triple_keys(born_triangles, n)
    dead_rows = np.searchsorted(old_keys, _triple_keys(dead_triangles, n))
    # A born triangle is not in the old index: its search lands on the old
    # row it sorts before.
    old_before = np.searchsorted(old_keys, born_keys)
    rows = _RowSplice(
        old.num_triangles, dead_rows, old_before - np.searchsorted(dead_rows, old_before)
    )
    triangles = rows(old.triangles, born_triangles)
    new_keys = rows(old_keys, born_keys)
    born_rows = rows.born_positions()
    row_map = rows.table()
    num_triangles = triangles.shape[0]

    # --- 4-clique ids: lexicographic order is (first, second) member row -- #
    dead_postings, _ = _postings_of(old.tri_clique_indptr, dead_rows)
    dead_cliques = np.unique(old.tri_cliques[dead_postings])
    # The (a,b,c), (a,b,d), (a,c,d) and (b,c,d) members of every born
    # 4-clique, member-major, as rows of the new triangle order.
    member_triples = np.concatenate([born_quads[:, columns] for columns in _MEMBER_COLUMNS])
    born_members = np.searchsorted(new_keys, _triple_keys(member_triples, n)).reshape(4, -1).T
    members = row_map[old.clique_triangles] if rows.edited else old.clique_triangles
    at = np.empty(0, dtype=np.int64)
    if born_quads.size:
        surviving_keys = np.delete(
            members[:, 0] * num_triangles + members[:, 1], dead_cliques
        )
        at = np.searchsorted(
            surviving_keys, born_members[:, 0] * num_triangles + born_members[:, 1]
        )
    cliques = _RowSplice(old.num_cliques, dead_cliques, at)
    clique_triangles = cliques(members, born_members)
    born_cliques = cliques.born_positions()

    # --- postings: (triangle row, completing vertex) order ---------------- #
    dead_positions = np.sort(old.clique_pair_positions[dead_cliques].ravel())
    born_pair_rows = born_members.T.reshape(-1)  # member-major, as in the assembly
    born_pair_completing = born_quads[:, ::-1].T.reshape(-1)
    order = np.lexsort((born_pair_completing, born_pair_rows))
    born_pair_rows, born_pair_completing = born_pair_rows[order], born_pair_completing[order]
    # The old posting each born posting sorts before: the first of its
    # triangle's old postings with a larger completing vertex, or the first
    # posting after the old rows a born triangle sorts after.
    old_rows_of = np.searchsorted(old_keys, new_keys[born_pair_rows])
    before = old.tri_clique_indptr[old_rows_of]
    survivor = ~_members_of_sorted_mask(born_pair_rows, born_rows)
    positions, sizes = _postings_of(old.tri_clique_indptr, old_rows_of[survivor])
    below = old.tri_completing[positions] < np.repeat(born_pair_completing[survivor], sizes)
    owner = np.repeat(np.arange(sizes.size), sizes)
    before[survivor] += np.bincount(owner, weights=below, minlength=sizes.size).astype(
        np.int64
    )
    postings = _RowSplice(
        old.tri_extension_probabilities.size,
        dead_positions,
        before - np.searchsorted(dead_positions, before),
    )
    tri_completing = postings(old.tri_completing, born_pair_completing)
    tri_extension_probabilities = postings(
        old.tri_extension_probabilities, np.zeros(born_pair_rows.size)
    )
    tri_cliques = old.tri_cliques
    clique_pair_positions = old.clique_pair_positions
    if cliques.edited:
        tri_cliques = postings(
            cliques.table()[old.tri_cliques], np.tile(born_cliques, 4)[order]
        )
        born_pairs = np.empty(born_pair_rows.size, dtype=np.int64)
        born_pairs[order] = postings.born_positions()
        clique_pair_positions = cliques(
            postings.table()[old.clique_pair_positions], born_pairs.reshape(4, -1).T
        )
    tri_clique_indptr = old.tri_clique_indptr
    if rows.edited or cliques.edited:
        counts = np.diff(old.tri_clique_indptr) - np.bincount(
            old.clique_triangles[dead_cliques].ravel(), minlength=old.num_triangles
        )
        counts = rows(counts, np.zeros(born_rows.size, dtype=np.int64))
        counts += np.bincount(born_pair_rows, minlength=num_triangles)
        tri_clique_indptr = np.zeros(num_triangles + 1, dtype=np.int64)
        np.cumsum(counts, out=tri_clique_indptr[1:])

    # --- probabilities of what is born or on a re-priced edge ------------- #
    changed_rows = np.searchsorted(new_keys, _triple_keys(changed_triangles, n))
    on_changed = np.unique(tri_cliques[_postings_of(tri_clique_indptr, changed_rows)[0]])
    gathered_rows = np.union1d(born_rows, changed_rows)
    gathered_cliques = np.union1d(born_cliques, on_changed)
    triangle_probabilities = rows(old.triangle_probabilities, np.zeros(born_rows.size))
    if gathered_rows.size or gathered_cliques.size:
        tri_probs, extensions = _gathered_probabilities(
            new_csr,
            triangles[gathered_rows],
            cliques_from_members(triangles, clique_triangles[gathered_cliques]),
        )
        if gathered_rows.size:
            if triangle_probabilities is old.triangle_probabilities:
                triangle_probabilities = triangle_probabilities.copy()
            triangle_probabilities[gathered_rows] = tri_probs
        if gathered_cliques.size:
            if tri_extension_probabilities is old.tri_extension_probabilities:
                tri_extension_probabilities = tri_extension_probabilities.copy()
            tri_extension_probabilities[
                clique_pair_positions[gathered_cliques].T.reshape(-1)
            ] = extensions

    lost = row_map[old.clique_triangles[dead_cliques]].ravel()
    touched = np.unique(
        np.concatenate(
            [gathered_rows, clique_triangles[gathered_cliques].ravel(), lost[lost >= 0]]
        )
    )
    # --- rows whose inputs may have risen: the rest only fell ------------- #
    rising = [born_rows, clique_triangles[born_cliques].ravel()]
    rose = np.array(
        [
            old_csr.edge_probability_ids(u, v) < new_csr.edge_probability_ids(u, v)
            for u, v in changed.tolist()
        ],
        dtype=bool,
    )
    if rose.any():
        rising_keys = np.sort(changed[rose, 0] * n + changed[rose, 1])
        edges = changed_triangles[:, [0, 0, 1]] * n + changed_triangles[:, [1, 2, 2]]
        on_rising = _members_of_sorted_mask(edges.ravel(), rising_keys).reshape(-1, 3)
        rising_rows = changed_rows[on_rising.any(axis=1)]
        # A 4-clique holds a rising edge exactly when it holds a triangle on it.
        rising_cliques = tri_cliques[_postings_of(tri_clique_indptr, rising_rows)[0]]
        rising += [rising_rows, clique_triangles[rising_cliques].ravel()]
    rising_mask = np.zeros(num_triangles, dtype=bool)
    rising_mask[np.concatenate(rising)] = True
    return TriangleIndexSplice(
        index=CSRTriangleIndex(
            triangles=triangles,
            triangle_probabilities=triangle_probabilities,
            tri_clique_indptr=tri_clique_indptr,
            tri_completing=tri_completing,
            tri_extension_probabilities=tri_extension_probabilities,
            tri_cliques=tri_cliques,
            clique_triangles=clique_triangles,
            clique_pair_positions=clique_pair_positions,
        ),
        row_map=row_map,
        repriced=gathered_rows,
        touched=touched,
        lowered=touched[~rising_mask[touched]],
        counts={
            "born_triangles": int(born_rows.size),
            "dead_triangles": int(dead_rows.size),
            "born_cliques": int(born_cliques.size),
            "dead_cliques": int(dead_cliques.size),
            "repriced_postings": 4 * int(np.setdiff1d(on_changed, born_cliques).size),
        },
    )


# --------------------------------------------------------------------------- #
# vectorized tail kernels
# --------------------------------------------------------------------------- #
def _tails_from_pmf(pmf: np.ndarray, axis: int = 1) -> np.ndarray:
    """Reverse cumulative sum of a pmf matrix along its level ``axis``, clamped into [0, 1]."""
    tails = np.flip(np.cumsum(np.flip(pmf, axis), axis=axis), axis)
    return np.clip(tails, 0.0, 1.0, out=tails)


def _dp_tails(matrix: np.ndarray) -> np.ndarray:
    """Exact Poisson-binomial tails (Equation 7) for all rows of ``matrix``.

    The pmf is held levels × rows and updated in place, one posting column
    per step, each level a contiguous slice.  After ``j`` postings only
    levels ``0 … j`` can hold mass, so step ``j`` touches just the ``j + 2``
    reachable levels and the others stay exact zeros.  Level ``k`` becomes
    ``pmf[k]·(1 − p) + pmf[k − 1]·p``, which IEEE addition makes
    bit-identical to the scalar recurrence's other order.  Returns the
    ``(rows, c + 1)`` tails as a transposed view.
    """
    m, c = matrix.shape
    columns = np.ascontiguousarray(matrix.T, dtype=np.float64)
    complements = 1.0 - columns
    pmf = np.zeros((c + 1, m), dtype=np.float64)
    pmf[0] = 1.0
    shifted = np.empty((c, m), dtype=np.float64)
    for j in range(c):
        np.multiply(pmf[: j + 1], columns[j], out=shifted[: j + 1])
        pmf[: j + 2] *= complements[j]
        pmf[1 : j + 2] += shifted[: j + 1]
    return _tails_from_pmf(pmf, axis=0).T


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
