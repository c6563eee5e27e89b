"""Vectorized possible-world sampling engine (the *world-matrix* engine).

The Monte-Carlo verification loops of Algorithms 2 and 3 dominate end-to-end
runtime: both sample ``n ≈ 200`` possible worlds per candidate subgraph, and
the dict-backed reference path draws every world edge-by-edge in Python,
rebuilds a :class:`~repro.graph.probabilistic_graph.ProbabilisticGraph` per
world, and re-enumerates its triangles and 4-cliques from scratch.

This module replaces that with an array-backed pipeline:

1. :class:`CandidateWorldIndex` holds a candidate subgraph as flat numpy
   arrays over the CSR edge list: the ``m`` undirected edges with their
   probabilities, every triangle as three edge columns, every 4-clique as six
   edge columns, and the triangle ⇄ 4-clique incidence in both directions.
   :meth:`CandidateWorldIndex.from_engine_index` builds the index of a whole
   graph around the incidence arrays its local decomposition's peel already
   holds, and :meth:`CandidateWorldIndex.restrict` cuts the index of an edge
   subgraph out of it, equal to compiling that subgraph; so Algorithms 2 and
   3 compile no candidate.  :meth:`CandidateWorldIndex.from_graph` compiles a
   standalone subgraph.  A :class:`WorldBlock` cuts several candidates out
   of one index at once, side by side, so that Algorithm 2 verifies small
   candidates in one batch.
2. :func:`sample_world_matrix` draws **all** ``n`` worlds with a single RNG
   call, as an ``(n_worlds, n_edges)`` boolean matrix — world ``i`` contains
   edge ``j`` iff ``worlds[i, j]``.
3. :func:`structure_presence` turns the worlds into ``(n_worlds,
   num_triangles)`` / ``(n_worlds, num_cliques)`` presence matrices (a
   fancy-indexed ``all`` over edge columns), and each of the paper's two
   predicates is evaluated once for all worlds from them — no Python loop
   runs per world.  The predicates work **worlds-last**: one row per edge,
   triangle or 4-clique and one column per world, so every gather copies
   whole rows of worlds and every reduction runs along them:

   * **global** (:func:`nucleus_world_mask`, Algorithm 2): edge coverage is
     an OR of the present 4-cliques over every edge's 4-clique list;
     4-clique support is a sum of the given 4-cliques over every
     triangle's 4-clique list; connectivity is min-label propagation with
     pointer jumping over the present 4-cliques.  The lists are padded to
     their longest (ELL format, :func:`_padded_lists`, built once per index
     or block), so each reduction is one gather reduced along the padded
     width (:func:`_reduce_lists`).  Each condition is reduced per
     candidate over the segments of a :class:`WorldBlock`; one index is a
     block of one.
   * **weak** (:func:`weak_membership`, Algorithm 3): the
     greatest fixed point of alive triangles and alive 4-cliques, peeled
     for all worlds together with the same padded support.

Each model's answer is a ``(n_worlds, num_triangles)`` membership matrix
(:func:`global_membership`, :func:`weak_membership`), additive over worlds:
the verification loop of :mod:`repro.sampling.verification` sums its columns
over memory-bounded row blocks of sampled worlds, and its exact evaluator
weights them by the probabilities of all ``2^m`` worlds.

The per-world semantics are *identical* to the dict path — for any boolean
row ``worlds[i]``, :func:`nucleus_world_mask` agrees with the dict
predicate of Definition 3 on the materialized world, and the weak
membership with the dict grouping
:func:`repro.deterministic.nucleus.k_nucleus_triangle_groups` — which the
test-suite pins world-by-world against its oracle.  The deterministic
:func:`repro.deterministic.nucleus.is_k_nucleus` is
:func:`nucleus_world_mask` on the one world that holds every edge.  Only
the *stream* of sampled worlds differs
(numpy ``Generator`` bits instead of ``random.Random`` bits), so dict- and
matrix-backed estimates agree in distribution; the parity tests bound the
difference with Hoeffding's inequality.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from repro.deterministic.cliques import (
    Triangle,
    clique_arrays_csr,
    cliques_from_members,
    concatenated_rows,
    label_triangles,
)
from repro.exceptions import InvalidParameterError, _require_nonnegative_int, check_level
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph, sorted_labels
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.spans import span
from repro.obs.timing import timer

__all__ = [
    "CandidateWorldIndex",
    "WorldBlock",
    "as_numpy_generator",
    "sample_world_matrix",
    "structure_presence",
    "nucleus_world_mask",
    "global_membership",
    "weak_membership",
    "global_triangle_counts",
    "weak_membership_counts",
    "world_from_row",
]


def as_numpy_generator(
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> np.random.Generator:
    """Return the numpy :class:`~numpy.random.Generator` driving the engine.

    Accepts the same ``rng`` / ``seed`` pair the decomposition entry points
    take: a numpy generator is used as-is, a :class:`random.Random` is
    converted by drawing a 128-bit seed from it (deterministic for a seeded
    instance), and otherwise a fresh generator is created from ``seed``.
    ``seed`` must be ``None`` or a non-negative integer (numpy integer types
    included, ``bool`` not); anything else raises
    :class:`~repro.exceptions.InvalidParameterError` naming ``seed``.
    """
    if seed is not None:
        seed = _require_nonnegative_int("seed", seed)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(128))
    if rng is not None:
        raise InvalidParameterError(
            f"rng must be a numpy Generator or random.Random, got {type(rng).__name__}"
        )
    return np.random.default_rng(seed)


def sample_world_matrix(
    probabilities: np.ndarray,
    n_worlds: int,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> np.ndarray:
    """Sample ``n_worlds`` possible worlds at once as a boolean edge matrix.

    One uniform draw per (world, edge) — a single RNG call for the whole
    matrix — compared against the edge probabilities, so row ``i`` is an
    independent possible world: ``worlds[i, j]`` is ``True`` iff edge ``j``
    exists in world ``i``.  Each edge's marginal is exactly ``p(e)``, matching
    the per-edge coin flips of
    :func:`repro.graph.possible_worlds.sample_world`.
    """
    if n_worlds <= 0:
        raise InvalidParameterError(f"n_worlds must be positive, got {n_worlds}")
    generator = as_numpy_generator(rng, seed)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    worlds = generator.random((n_worlds, probabilities.size)) < probabilities[None, :]
    _count_worlds(n_worlds)
    return worlds


def _count_worlds(n_worlds: int) -> None:
    """Count ``n_worlds`` drawn worlds (no-op while telemetry is off)."""
    if obs_config._ENABLED:
        obs_registry.counter(
            "repro_sampling_worlds_total",
            "Possible worlds drawn by the world-matrix sampler.",
        ).inc(n_worlds)


#: Vertex positions, within a triangle or 4-clique row, of its edges and of a
#: 4-clique's member triangles: the operands of the composite keys that
#: :class:`CandidateWorldIndex` resolves by binary search.
_TRIANGLE_EDGES = (np.array([0, 0, 1]), np.array([1, 2, 2]))
_CLIQUE_EDGES = (np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3]))
_CLIQUE_TRIANGLES = (np.array([0, 0, 0, 1]), np.array([1, 1, 2, 2]), np.array([2, 3, 3, 3]))


def _keys(rows: np.ndarray, columns: tuple, n: int) -> np.ndarray:
    """Composite keys ``(rows[:, c0]·n + rows[:, c1])·n + …`` of the columns."""
    key = rows.take(columns[0], axis=1)
    for column in columns[1:]:
        key = key * n + rows.take(column, axis=1)
    return key


def _relabelled(
    rows: np.ndarray, vertices: np.ndarray, compact: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | slice]:
    """``rows`` of vertex ids in the compact ids of ``vertices`` (see
    :meth:`CandidateWorldIndex._subgraph_ids`), sorted within and across
    rows, and that order of the rows."""
    mapped = np.searchsorted(vertices, rows)
    if compact is None:
        return mapped, slice(None)
    mapped = np.sort(compact[mapped], axis=1)
    order = np.lexsort(mapped.T[::-1])
    return mapped[order], order


def _member_lists(members: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of the ``(q, w)`` member rows ``members`` over ``0 … size-1``.

    Returns the CSR lists ``(indptr, indices)`` of the rows that hold each
    member (the triangle → 4-clique lists of the member triangles, the
    edge → 4-clique lists of the edge columns), scattered by one stable
    argsort.
    """
    flat = members.ravel()
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=size), out=indptr[1:])
    rows = np.repeat(np.arange(members.shape[0], dtype=np.int64), members.shape[1])
    return indptr, rows[np.argsort(flat, kind="stable")]


def _padded_lists(members: np.ndarray, size: int) -> np.ndarray:
    """The inverse of the ``(q, w)`` member rows ``members`` as one padded table.

    Column ``i`` of the ``(width, size)`` table lists, in order, the rows
    that hold member ``i`` (the lists of :func:`_member_lists`), and then
    the padding entry ``q`` down to ``width``, the longest list's length
    (ELL format).  The table is width-major, so that a gather of
    worlds-last rows through it is reduced along its first axis
    (:func:`_reduce_lists`).
    """
    flat = members.ravel()
    order = np.argsort(flat, kind="stable")
    lengths = np.bincount(flat, minlength=size)
    held = flat[order]
    slots = np.arange(flat.size) - (np.cumsum(lengths) - lengths)[held]
    table = np.full((int(lengths.max(initial=0)), size), members.shape[0], dtype=np.intp)
    table[slots, held] = order // members.shape[1]
    return table


@dataclass
class CandidateWorldIndex:
    """Flat-array index of a candidate subgraph for batched world verification.

    All structures live in the integer spaces of the candidate's CSR
    compilation: vertices are ``0 … n-1`` (canonical label order, see
    ``labels``), edges are columns ``0 … m-1`` of the world matrix (sorted by
    ``(u, v)`` with ``u < v``), triangles and 4-cliques are row indices into
    the arrays below.
    """

    labels: list
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_probabilities: np.ndarray
    triangles: np.ndarray
    triangle_edges: np.ndarray
    cliques: np.ndarray
    clique_edges: np.ndarray
    clique_triangles: np.ndarray
    tri_clique_indptr: np.ndarray
    tri_clique_indices: np.ndarray

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (world-matrix columns)."""
        return int(self.edge_probabilities.size)

    @property
    def num_triangles(self) -> int:
        """Number of triangles of the candidate."""
        return int(self.triangles.shape[0])

    @property
    def num_cliques(self) -> int:
        """Number of 4-cliques of the candidate."""
        return int(self.cliques.shape[0])

    def triangle_labels(self) -> list[Triangle]:
        """Return the canonical label-space tuple of every triangle row."""
        return label_triangles(self.triangles, self.labels)

    @classmethod
    def from_graph(
        cls, graph: "ProbabilisticGraph | CSRProbabilisticGraph"
    ) -> "CandidateWorldIndex":
        """Compile a standalone subgraph into the flat verification index.

        Triangles and 4-cliques come from the one batched enumeration
        (:func:`~repro.deterministic.cliques.clique_arrays_csr`), in the
        lexicographic row order :meth:`_from_structures` expects.
        """
        csr = graph if isinstance(graph, CSRProbabilisticGraph) else graph.to_csr()
        return cls._from_structures(
            list(csr.vertex_labels), *csr.undirected_edge_arrays(), *clique_arrays_csr(csr)
        )

    @classmethod
    def from_engine_index(cls, csr: CSRProbabilisticGraph, index) -> "CandidateWorldIndex":
        """The index of the whole graph ``csr``, around its peel's incidence arrays.

        ``index`` is the :class:`~repro.core.batch.CSRTriangleIndex` of
        ``csr``; its ``triangles``, ``clique_triangles``, ``tri_clique_indptr``
        and ``tri_cliques`` are shared, unchanged, as the arrays
        :meth:`from_graph` of ``csr`` would compute.  Only the 4-cliques and
        the edge columns are computed, and no triangle key is formed.
        """
        return cls._with_edge_columns(
            list(csr.vertex_labels),
            csr.undirected_edge_arrays(),
            index.triangles,
            cliques_from_members(index.triangles, index.clique_triangles),
            (index.clique_triangles, index.tri_clique_indptr, index.tri_cliques),
        )

    def restrict(self, edge_mask: np.ndarray) -> "CandidateWorldIndex":
        """Return the index of the subgraph formed by the edges in ``edge_mask``.

        Equal, array for array, to :meth:`from_graph` of that edge subgraph,
        without building or compiling it: the subgraph's triangles and
        4-cliques are exactly the rows of this index whose edge columns all
        lie in the mask.  Only the rows whose first edge is kept are tested
        (:attr:`_rows_by_first_edge`), so the work follows the subgraph's
        size, not this index's.  Vertices get compact ids in the subgraph's
        *own* canonical label order (:meth:`_subgraph_ids`), and edge
        columns are sorted by ``(u, v)`` in those ids, so :meth:`sample`
        draws the subgraph's own world stream.
        """
        edge_mask = np.asarray(edge_mask, dtype=bool)
        kept = np.flatnonzero(edge_mask)
        ends, vertices, ordered, compact = self._subgraph_ids(kept)

        def within(by_first_edge: tuple, edges: np.ndarray, rows: np.ndarray) -> np.ndarray:
            """The ``rows`` whose ``edges`` are all kept, in compact ids."""
            found, _ = concatenated_rows(*by_first_edge, kept)
            found = found[edge_mask[edges[found]].all(axis=1)]
            return _relabelled(rows[found], vertices, compact)[0]

        pairs, order = _relabelled(ends, vertices, compact)
        triangles_by_edge, cliques_by_edge = self._rows_by_first_edge
        return self._from_structures(
            ordered,
            pairs[:, 0],
            pairs[:, 1],
            self.edge_probabilities[kept[order]],
            within(triangles_by_edge, self.triangle_edges, self.triangles),
            within(cliques_by_edge, self.clique_edges, self.cliques),
        )

    def _subgraph_ids(self, kept: np.ndarray) -> tuple:
        """The vertex ids of the subgraph on the edge columns ``kept``.

        Returns ``(ends, vertices, ordered, compact)``: the ``(m, 2)``
        endpoints of the kept columns, the sorted vertices they touch, those
        vertices' labels in the subgraph's own canonical order, and each
        vertex's compact id in that order — ``None`` when it keeps this
        index's order, which is always the case when this index's labels
        compare (:attr:`_labels_compare`).  It differs when only the
        subgraph's labels are mutually comparable: ints cut out of a mixed
        int/str graph.
        """
        ends = np.stack([self.edge_u[kept], self.edge_v[kept]], axis=1)
        vertices = np.unique(ends)
        labels = [self.labels[i] for i in vertices.tolist()]
        ordered = sorted_labels(labels)
        if ordered == labels:
            return ends, vertices, labels, None
        position = {label: i for i, label in enumerate(ordered)}
        compact = np.array([position[label] for label in labels], dtype=np.int64)
        return ends, vertices, ordered, compact

    @cached_property
    def _labels_compare(self) -> bool:
        """Whether the labels sort naturally, so that every subgraph keeps their order."""
        try:
            sorted(self.labels)
        except TypeError:
            return False
        return True

    @cached_property
    def _rows_by_first_edge(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The triangle and the 4-clique rows whose first edge is each edge column.

        Two CSR structures ``(indptr, rows)`` over the edge columns.  Rows are
        in lexicographic vertex order, so their first edge column ascends and
        each edge's rows are one contiguous range.
        """
        edges = np.arange(self.num_edges + 1)
        return [
            (np.searchsorted(columns[:, 0], edges), np.arange(columns.shape[0]))
            for columns in (self.triangle_edges, self.clique_edges)
        ]

    @cached_property
    def _cliques_by_first_triangle(self) -> tuple[np.ndarray, np.ndarray]:
        """The 4-clique rows whose first member triangle is each triangle row.

        A CSR structure ``(indptr, rows)``, contiguous for the same reason as
        :attr:`_rows_by_first_edge`: a 4-clique's first member triangle is
        its first three vertices.
        """
        triangles = np.arange(self.num_triangles + 1)
        first = self.clique_triangles[:, 0]
        return np.searchsorted(first, triangles), np.arange(self.num_cliques)

    @cached_property
    def _triangle_cliques(self) -> np.ndarray:
        """The triangle → 4-clique lists, padded (see :func:`_padded_lists`)."""
        return _padded_lists(self.clique_triangles, self.num_triangles)

    @cached_property
    def _edge_cliques(self) -> np.ndarray:
        """The edge → 4-clique lists of the edge columns, padded (:func:`_padded_lists`)."""
        return _padded_lists(self.clique_edges, self.num_edges)

    @classmethod
    def _from_structures(
        cls,
        labels: list,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_probabilities: np.ndarray,
        triangles: np.ndarray,
        cliques: np.ndarray,
    ) -> "CandidateWorldIndex":
        """Assemble the index from its edges, triangles and 4-cliques.

        ``triangles`` (``(t, 3)``) and ``cliques`` (``(q, 4)``) hold sorted
        vertex ids, rows in lexicographic order; edges are sorted by
        ``(u, v)``.  The four member triangles of each 4-clique are resolved
        by binary search over composite keys, and the triangle → 4-clique
        lists are the member triangles scattered by one stable argsort.
        """
        n = len(labels)
        clique_triangles = np.searchsorted(
            _keys(triangles, (0, 1, 2), n), _keys(cliques, _CLIQUE_TRIANGLES, n)
        )
        return cls._with_edge_columns(
            labels,
            (edge_u, edge_v, edge_probabilities),
            triangles,
            cliques,
            (clique_triangles, *_member_lists(clique_triangles, triangles.shape[0])),
        )

    @classmethod
    def _with_edge_columns(
        cls,
        labels: list,
        edges: tuple,
        triangles: np.ndarray,
        cliques: np.ndarray,
        incidence: tuple,
    ) -> "CandidateWorldIndex":
        """Build the index, resolving the edge columns of every triangle and 4-clique.

        ``edges`` is ``(edge_u, edge_v, edge_probabilities)``, sorted by
        ``(u, v)``, and ``incidence`` is ``(clique_triangles,
        tri_clique_indptr, tri_clique_indices)``.  A column is found by binary
        search of its vertex pair's key ``u·n + v``.
        """
        n = len(labels)
        edge_u, edge_v, edge_probabilities = edges
        clique_triangles, tri_clique_indptr, tri_clique_indices = incidence
        edge_keys = edge_u * n + edge_v
        return cls(
            labels=labels,
            edge_u=edge_u,
            edge_v=edge_v,
            edge_probabilities=edge_probabilities,
            triangles=triangles,
            triangle_edges=np.searchsorted(edge_keys, _keys(triangles, _TRIANGLE_EDGES, n)),
            cliques=cliques,
            clique_edges=np.searchsorted(edge_keys, _keys(cliques, _CLIQUE_EDGES, n)),
            clique_triangles=clique_triangles,
            tri_clique_indptr=tri_clique_indptr,
            tri_clique_indices=tri_clique_indices,
        )

    def sample(
        self,
        n_worlds: int,
        rng: "np.random.Generator | random.Random | None" = None,
        seed: int | None = None,
    ) -> np.ndarray:
        """Sample the ``(n_worlds, num_edges)`` world matrix of this candidate."""
        return sample_world_matrix(self.edge_probabilities, n_worlds, rng=rng, seed=seed)


#: Cells of one column table of :meth:`WorldBlock.cut` (8 MiB of intp): a
#: block with more candidates × distinct edges is looked up through several
#: tables of consecutive candidates, built one at a time, so that small
#: candidates drawn on few worlds cannot make the lookup quadratic.
_TABLE_CELLS = 2**20


def _column_tables(
    edge_offsets: np.ndarray,
    owner: np.ndarray,
    slots: np.ndarray,
    columns: np.ndarray,
    width: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """The column tables of a block's candidates, as ``(first, table)`` pairs.

    The block's edges are given candidate by candidate: their candidate
    (``owner``), their slot (1 + their rank among the block's ``width - 1``
    distinct edges) and their block column.  Row ``i`` of ``table`` belongs
    to candidate ``first + i``: column ``s`` holds the block column of the
    candidate's edge in slot ``s``, or ``-1`` where it lacks that edge, and
    column 0 (edges outside the block) reads ``-1`` throughout.  Each table
    holds at most :data:`_TABLE_CELLS` cells, or one candidate.
    """
    candidates = edge_offsets.size - 1
    group = max(1, _TABLE_CELLS // width)
    for first in range(0, candidates, group):
        stop = min(first + group, candidates)
        table = np.full((stop - first, width), -1, dtype=np.intp)
        held = slice(edge_offsets[first], edge_offsets[stop])
        table[owner[held] - first, slots[held]] = columns[held]
        yield first, table


@dataclass
class WorldBlock(CandidateWorldIndex):
    """Candidates of one index side by side, verified on one batch of worlds.

    The arrays are block-diagonal: candidate ``i`` owns the edge columns
    ``edge_offsets[i]:edge_offsets[i + 1]`` and likewise the triangle and
    4-clique rows of ``triangle_offsets`` and ``clique_offsets``, whose edge
    columns, member triangles and triangle → 4-clique lists stay inside the
    candidate.  Vertex ids (``edge_u``, ``triangles``, …) are those of the
    index the block was cut from (:meth:`cut`).  World row ``r`` of a block
    holds world ``r`` of every candidate (:meth:`sample`), and the global
    predicate decides each candidate on its own segments; the functions
    that take a :class:`CandidateWorldIndex` treat it as one candidate.  A
    block is not the index of one graph (an edge may appear once per
    candidate), so :meth:`restrict` and the constructors do not apply to it.
    """

    edge_offsets: np.ndarray
    triangle_offsets: np.ndarray
    clique_offsets: np.ndarray

    @property
    def num_segments(self) -> int:
        """Number of candidates in the block."""
        return int(self.edge_offsets.size - 1)

    @classmethod
    def of(cls, index: CandidateWorldIndex) -> "WorldBlock":
        """``index`` as a block of one candidate, sharing its arrays."""
        arrays = fields(CandidateWorldIndex)
        return cls(
            **{field.name: getattr(index, field.name) for field in arrays},
            edge_offsets=np.array([0, index.num_edges], dtype=np.int64),
            triangle_offsets=np.array([0, index.num_triangles], dtype=np.int64),
            clique_offsets=np.array([0, index.num_cliques], dtype=np.int64),
        )

    @classmethod
    def cut(cls, index: CandidateWorldIndex, candidates: Sequence[np.ndarray]) -> "WorldBlock":
        """The block of ``candidates``, each a sorted array of ``index``'s edge columns.

        Candidate ``i`` holds what :meth:`CandidateWorldIndex.restrict` of its
        edges holds: every triangle and 4-clique of ``index`` whose edges it
        holds, and its edge columns in the restriction's order, so that it
        draws the restriction's world stream.  One vectorized pass serves
        all candidates: the triangles whose first edge a candidate holds
        (:attr:`_rows_by_first_edge`), then the 4-cliques whose first member
        triangle it holds (:attr:`_cliques_by_first_triangle`), read the
        block columns of all their edges with one gather from a column table
        (:func:`_column_tables`), and are kept when the candidate holds every
        one of them.
        """
        widths = np.array([edges.size for edges in candidates], dtype=np.int64)
        edge_offsets = np.zeros(widths.size + 1, dtype=np.int64)
        np.cumsum(widths, out=edge_offsets[1:])
        owner = np.repeat(np.arange(widths.size), widths)
        edges = np.concatenate(candidates)
        # The block column of each edge: its candidate's restriction order.
        columns = np.arange(edges.size)
        if not index._labels_compare:
            for start, kept in zip(edge_offsets.tolist(), candidates):
                ends, vertices, _, compact = index._subgraph_ids(kept)
                if compact is not None:
                    order = _relabelled(ends, vertices, compact)[1]
                    columns[start + order] = start + np.arange(kept.size)
        block_edges = np.empty_like(edges)
        block_edges[columns] = edges
        # Each edge column's slot in the column tables: 1 + its rank among
        # the block's distinct edges, 0 for the edges of no candidate.
        distinct = np.unique(edges)
        slot = np.zeros(index.num_edges, dtype=np.intp)
        slot[distinct] = np.arange(1, distinct.size + 1)
        slots, width = slot[edges], distinct.size + 1

        def held(holder: np.ndarray, rows: np.ndarray, structure_edges: np.ndarray):
            """The ``rows`` whose edges their ``holder`` holds:
            (candidate, row, block columns of the row's edges)."""
            # Width-major, so that the test reduces whole rows of candidates.
            probe = slot.take(structure_edges.take(rows, axis=0).T)
            found = np.empty_like(probe)
            for first, table in _column_tables(edge_offsets, owner, slots, columns, width):
                within = slice(*np.searchsorted(holder, (first, first + table.shape[0])))
                found[:, within] = table.take(
                    probe[:, within] + (holder[within] - first) * table.shape[1]
                )
            keep = np.bitwise_or.reduce(found, axis=0) >= 0
            return holder[keep], rows[keep], np.ascontiguousarray(found[:, keep].T)

        # Triangles through their first edge, 4-cliques through their first
        # member triangle.
        found, sizes = concatenated_rows(*index._rows_by_first_edge[0], edges)
        tri_owner, tri_rows, triangle_edges = held(
            np.repeat(owner, sizes), found, index.triangle_edges
        )
        found, sizes = concatenated_rows(*index._cliques_by_first_triangle, tri_rows)
        clique_owner, clique_rows, clique_edges = held(
            np.repeat(tri_owner, sizes), found, index.clique_edges
        )
        t = index.num_triangles
        clique_triangles = np.searchsorted(
            tri_owner * t + tri_rows,
            clique_owner[:, None] * t + index.clique_triangles[clique_rows],
        )
        indptr, indices = _member_lists(clique_triangles, tri_rows.size)
        segments = np.arange(widths.size + 1)
        return cls(
            labels=index.labels,
            edge_u=index.edge_u[block_edges],
            edge_v=index.edge_v[block_edges],
            edge_probabilities=index.edge_probabilities[block_edges],
            triangles=index.triangles[tri_rows],
            triangle_edges=triangle_edges,
            cliques=index.cliques[clique_rows],
            clique_edges=clique_edges,
            clique_triangles=clique_triangles,
            tri_clique_indptr=indptr,
            tri_clique_indices=indices,
            edge_offsets=edge_offsets,
            triangle_offsets=np.searchsorted(tri_owner, segments),
            clique_offsets=np.searchsorted(clique_owner, segments),
        )

    def sample(
        self,
        n_worlds: int,
        rng: "np.random.Generator | random.Random | None" = None,
        seed: int | None = None,
    ) -> np.ndarray:
        """Sample world ``0 … n_worlds-1`` of every candidate, side by side.

        Candidate by candidate, each draws the ``(n_worlds, m_i)`` uniforms
        that :meth:`CandidateWorldIndex.sample` of its own index would draw,
        so every candidate sees its restriction's world stream.
        """
        if self.num_segments == 1:  # a lone candidate may be large: no concatenated copy
            return sample_world_matrix(self.edge_probabilities, n_worlds, rng=rng, seed=seed)
        generator = as_numpy_generator(rng, seed)
        draws = np.split(
            generator.random(n_worlds * self.num_edges), n_worlds * self.edge_offsets[1:-1]
        )
        worlds = np.concatenate([draw.reshape(n_worlds, -1) for draw in draws], axis=1)
        worlds = worlds < self.edge_probabilities
        _count_worlds(n_worlds * self.num_segments)
        return worlds


def world_from_row(index: CandidateWorldIndex, row: np.ndarray) -> ProbabilisticGraph:
    """Materialize one world-matrix row as a dict-backed deterministic world.

    The result is exactly what
    :func:`repro.graph.possible_worlds.sample_world` would have produced had
    it drawn the same edge subset: all candidate vertices, the present edges
    with probability 1.  Used by the parity tests and handy for debugging.
    """
    world = ProbabilisticGraph()
    for label in index.labels:
        world.add_vertex(label)
    labels = index.labels
    for position in np.flatnonzero(row).tolist():
        world.add_edge(labels[index.edge_u[position]], labels[index.edge_v[position]], 1.0)
    return world


def _last(worlds: np.ndarray) -> np.ndarray:
    """The worlds-last copy of a world matrix: one row per edge column."""
    return np.ascontiguousarray(worlds.T)


def _gathered(reduce: np.ufunc, values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Row ``i`` reduces the rows ``members[i]`` of the worlds-last ``values``.

    ``members`` is ``(rows, w)``; the gather runs width-major, ``(w, rows,
    n_worlds)``, and is reduced along its first axis, so the inner loops
    span whole rows of worlds even when few worlds are left.
    """
    return reduce.reduce(np.take(values, members.T, axis=0), axis=0)


def _presence(index: CandidateWorldIndex, worlds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`structure_presence` of the worlds-last ``worlds``, worlds-last."""
    return (
        _gathered(np.logical_and, worlds, index.triangle_edges),
        _gathered(np.logical_and, worlds, index.clique_edges),
    )


def structure_presence(
    index: CandidateWorldIndex, worlds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return per-world triangle and 4-clique presence matrices.

    ``tri_present[i, t]`` is ``True`` when all three edges of triangle ``t``
    exist in world ``i``; ``clique_present[i, c]`` likewise for the six edges
    of 4-clique ``c``.  Both are computed with one fancy-indexed gather and a
    reduction — no per-world Python.
    """
    tri_present, clique_present = _presence(index, _last(worlds))
    return tri_present.T, clique_present.T


def _reduce_lists(
    reduce: np.ufunc, table: np.ndarray, values: np.ndarray, empty, dtype: np.dtype
) -> np.ndarray:
    """Reduce worlds-last ``values`` over the padded 4-clique lists of ``table``.

    ``values`` holds one row per 4-clique and one column per world, and
    ``table`` is a width-major padded table (:func:`_padded_lists`); row ``i`` of
    the result reduces (``np.add``, ``np.minimum`` or ``np.logical_or``)
    the rows ``table[:, i]`` of ``values``: one gather of the padded lists,
    reduced along their width.  The padding entry (``len(values)``) reads
    ``empty``, the reduction's identity, so a row whose list is empty gets
    ``empty``.
    """
    padding = np.full((1, values.shape[1]), empty, dtype=values.dtype)
    gathered = np.take(np.concatenate([values, padding]), table, axis=0)
    return reduce.reduce(gathered, axis=0, dtype=dtype, initial=empty)


def _per_segment(
    reduce: np.ufunc, values: np.ndarray, offsets: np.ndarray, empty, dtype: np.dtype
) -> np.ndarray:
    """Reduce the rows of worlds-last ``values`` segment by segment.

    Row ``s`` of the result reduces (``np.add``, ``np.minimum``, …) the rows
    ``offsets[s]:offsets[s + 1]``: one ``reduceat`` over the non-empty
    segments, each a contiguous run of rows.  Empty segments get ``empty``.
    A lone segment, which may span many worlds, is reduced in one pass over
    its rows (``reduceat`` along rows runs world by world).
    """
    starts = offsets[:-1]
    if starts.size == 1:
        return reduce.reduce(values, axis=0, dtype=dtype, initial=empty, keepdims=True)
    nonempty = offsets[1:] > starts
    if nonempty.all():
        return reduce.reduceat(values, starts, axis=0, dtype=dtype)
    out = np.full((starts.size, values.shape[1]), empty, dtype=dtype)
    if nonempty.any():
        out[nonempty] = reduce.reduceat(values, starts[nonempty], axis=0, dtype=dtype)
    return out


def _any_per_segment(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per segment and world, whether any row of the segment is set."""
    return _per_segment(np.logical_or, values, offsets, False, bool)


def _clique_support(index: CandidateWorldIndex, cliques: np.ndarray) -> np.ndarray:
    """Per triangle and world, the number of the given 4-cliques containing it.

    Counts are kept in the smallest unsigned dtype that holds the largest
    number of 4-cliques any triangle lies in, the padded lists' width.
    """
    table = index._triangle_cliques
    return _reduce_lists(np.add, table, cliques, 0, np.min_scalar_type(table.shape[0]))


def _one_component(block: WorldBlock, present: np.ndarray) -> np.ndarray:
    """Per candidate and world, whether its present 4-cliques are connected through triangles.

    Min-label propagation with pointer jumping over the present 4-cliques,
    worlds-last (``present`` and every label matrix hold one row per
    4-clique): each starts labelled with its own row (absent ones with the
    sentinel ``num_cliques``); each round every triangle takes the smallest
    label of its present 4-cliques, every present 4-clique the smallest
    label of its four triangles, and then every label jumps to its label's
    label.  At the fixed point each component carries its smallest row, so
    a candidate's world is connected iff its present 4-cliques share one
    label: the smallest label of its segment equals its largest present one.
    """
    n = block.num_cliques
    dtype = np.min_scalar_type(n)
    width = present.shape[1]
    # The sentinel on absent 4-cliques, 0 on present ones: labels never
    # exceed n, so a maximum with it pins the absent ones to n.  (Arithmetic
    # in place of np.where, which is far slower on irregular masks.)
    absent = np.multiply(~present, n, dtype=dtype)
    labels = np.maximum(np.arange(n, dtype=dtype)[:, None], absent)
    # The pulled labels, and a last row of sentinels that absent 4-cliques
    # jump to; the jump reads it flat, label · width + world.
    pulled = np.full((n + 1, width), n, dtype=dtype)
    worlds = np.arange(width)
    while True:
        by_triangle = _reduce_lists(np.minimum, block._triangle_cliques, labels, n, dtype)
        members = _gathered(np.minimum, by_triangle, block.clique_triangles)
        np.maximum(members, absent, out=pulled[:n])
        jump = pulled[:n].astype(np.intp)
        jump *= width
        jump += worlds
        jumped = np.take(pulled, jump)
        if np.array_equal(jumped, labels):
            break
        labels = jumped
    offsets = block.clique_offsets
    low = _per_segment(np.minimum, labels, offsets, n, dtype)
    present_labels = np.multiply(labels, present, dtype=dtype)
    high = _per_segment(np.maximum, present_labels, offsets, 0, dtype)
    return low == high


def _segment_world_masks(
    block: WorldBlock, worlds: np.ndarray, k: int, presence: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Per candidate of ``block`` and world, whether the candidate's world is a k-nucleus.

    Worlds-last: ``worlds`` holds one row per edge column and ``presence``
    is :func:`_presence` of it.  The three conditions of
    :func:`nucleus_world_mask`, each reduced over every candidate's segment
    at once; support and connectivity run only on the worlds where some
    candidate of the block survived the previous condition.
    """
    clique_present = presence[1]
    covered = _reduce_lists(np.logical_or, block._edge_cliques, clique_present, False, bool)
    alive = _any_per_segment(clique_present, block.clique_offsets)
    alive &= ~_any_per_segment(worlds & ~covered, block.edge_offsets)
    masks = np.zeros_like(alive)
    columns = np.flatnonzero(alive.any(axis=0))
    present, alive = clique_present[:, columns], alive[:, columns]
    if k > 1:  # a structural triangle lies in a present 4-clique: support ≥ 1 ≥ k
        support = _clique_support(block, present)
        alive &= ~_any_per_segment((support > 0) & (support < k), block.triangle_offsets)
    supported = alive.any(axis=0)
    connected = _one_component(block, present[:, supported])
    masks[:, columns[supported]] = alive[:, supported] & connected
    return masks


def nucleus_world_mask(
    index: CandidateWorldIndex,
    worlds: np.ndarray,
    k: int,
    presence: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Decide, per world-matrix row, whether the world is a k-(3,4)-nucleus.

    Batch-wise equivalent of deciding Definition 3 on each materialized
    world (the test-suite pins the equivalence row by row against the dict
    predicate of its oracle); on the one world that holds every edge it is
    :func:`repro.deterministic.nucleus.is_k_nucleus`.  A world is a nucleus
    iff

    * it has a present 4-clique and every present edge lies in one;
    * every *structural* triangle (in ≥ 1 present 4-clique) lies in ≥ k
      present 4-cliques — incidental triangles are exempt;
    * the structural triangles are 4-clique-connected, i.e. the present
      4-cliques are connected through shared triangles.

    Each condition is evaluated at once for all worlds the previous one
    kept.  This is the one-candidate case of the block predicate, which
    decides every candidate of a :class:`WorldBlock` on its own segments.
    ``presence`` is :func:`structure_presence` of ``worlds``, if at hand.
    """
    check_level(k)
    last = _last(worlds)
    if presence is None:
        presence = _presence(index, last)
    else:
        presence = tuple(_last(matrix) for matrix in presence)
    return _segment_world_masks(WorldBlock.of(index), last, k, presence)[0]


def _block_membership(block: WorldBlock, worlds: np.ndarray, k: int) -> np.ndarray:
    """Per triangle and world (worlds-last), whether its candidate's world is a
    k-nucleus containing it."""
    presence = _presence(block, worlds)
    masks = _segment_world_masks(block, worlds, k, presence)
    return presence[0] & np.repeat(masks, np.diff(block.triangle_offsets), axis=0)


def global_membership(index: CandidateWorldIndex, worlds: np.ndarray, k: int) -> np.ndarray:
    """Per world and triangle, whether the world is a k-nucleus containing it.

    The ``(n_worlds, num_triangles)`` predicate of Algorithm 2: triangle
    presence in the worlds :func:`nucleus_world_mask` keeps.
    """
    check_level(k)
    return _block_membership(WorldBlock.of(index), _last(worlds), k).T


def _weak_membership(index: CandidateWorldIndex, worlds: np.ndarray, k: int) -> np.ndarray:
    """:func:`weak_membership` of the worlds-last ``worlds``, worlds-last."""
    alive, clique_present = _presence(index, worlds)
    while True:
        cliques = clique_present & _gathered(np.logical_and, alive, index.clique_triangles)
        support = _clique_support(index, cliques)
        survivors = alive & (support >= k)
        if np.array_equal(survivors, alive):
            break
        alive = survivors
    return alive & (support > 0)


def weak_membership(index: CandidateWorldIndex, worlds: np.ndarray, k: int) -> np.ndarray:
    """Per world and triangle, whether the triangle lies in some k-nucleus of the world.

    The k-nuclei of a world cover exactly its greatest fixed point of alive
    triangles: a 4-clique is alive iff it is present and its four triangles
    are alive; a triangle is alive iff it is present and lies in at least
    ``k`` alive 4-cliques.  Starting from the present triangles, all worlds
    are peeled together until no triangle dies; a world counts for the alive
    triangles that lie in an alive 4-clique.
    """
    check_level(k)
    return _weak_membership(index, _last(worlds), k).T


def _counts(model: str, membership, index, worlds, k, starts, candidates: int) -> np.ndarray:
    """Per slice of world rows and triangle, the worlds of ``membership``.

    Row ``i`` of the result sums the worlds-last ``membership`` over the
    world rows ``starts[i]`` up to the next start (the last up to the end
    of ``worlds``).  With telemetry on, inside a ``sampling.verify`` span
    timed into ``repro_sampling_verify_seconds``, which records the
    ``worlds`` and the ``candidates`` the batch counts for.
    """
    slices = np.append(starts, worlds.shape[0])

    def count() -> np.ndarray:
        members = membership(index, _last(worlds), k)
        return _per_segment(np.add, members.T, slices, 0, np.int64)

    if not obs_config._ENABLED:
        return count()
    attributes = {"model": model, "worlds": int(worlds.shape[0]), "candidates": candidates}
    with span("sampling.verify", **attributes):
        with timer() as t:
            counts = count()
    obs_registry.histogram(
        "repro_sampling_verify_seconds",
        "Wall-clock seconds per Monte-Carlo world-verification batch.",
        model=model,
    ).observe(t.seconds)
    return counts


#: The slice starts of a batch that counts all its worlds together.
_ALL_WORLDS = np.zeros(1, dtype=np.intp)


def global_triangle_counts(
    index: CandidateWorldIndex, worlds: np.ndarray, k: int
) -> np.ndarray:
    """Count, per triangle, the worlds that are k-nuclei *and* contain it.

    This is the quantity Algorithm 2 thresholds: dividing by the number of
    worlds gives the Monte-Carlo estimate of
    ``Pr[world is a k-nucleus ∧ △ ⊆ world]`` for every triangle at once.
    """
    check_level(k)
    block = WorldBlock.of(index)
    return _counts("global", _block_membership, block, worlds, k, _ALL_WORLDS, 1)[0]


def _global_block_counts(
    block: WorldBlock, worlds: np.ndarray, k: int, starts: np.ndarray
) -> np.ndarray:
    """:func:`global_triangle_counts` of every candidate of ``block``, per slice
    of world rows beginning at each of ``starts`` (see :func:`_counts`)."""
    candidates = block.num_segments * starts.size
    return _counts("global", _block_membership, block, worlds, k, starts, candidates)


def weak_membership_counts(
    index: CandidateWorldIndex, worlds: np.ndarray, k: int
) -> np.ndarray:
    """Count, per triangle, the worlds in which it belongs to some k-nucleus.

    The Algorithm 3 counting loop: dividing by the number of worlds gives the
    weak score estimate ``Pr(X_{H,△,w} ≥ k)`` of every candidate triangle.
    """
    check_level(k)
    return _counts("weak", _weak_membership, index, worlds, k, _ALL_WORLDS, 1)[0]
