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
   standalone subgraph.
2. :func:`sample_world_matrix` draws **all** ``n`` worlds with a single RNG
   call, as an ``(n_worlds, n_edges)`` boolean matrix — world ``i`` contains
   edge ``j`` iff ``worlds[i, j]``.
3. :func:`structure_presence` turns the worlds into ``(n_worlds,
   num_triangles)`` / ``(n_worlds, num_cliques)`` presence matrices (a
   fancy-indexed ``all`` over edge columns), and each of the paper's two
   predicates is evaluated once for all worlds from them — no Python loop
   runs per world:

   * **global** (:func:`nucleus_world_mask`, Algorithm 2): edge coverage is
     an OR-scatter of the present 4-cliques onto their edge columns;
     4-clique support is a gather over ``tri_clique_indices`` summed per
     triangle with ``np.add.reduceat``; connectivity is min-label
     propagation with pointer jumping over the present 4-cliques.
   * **weak** (:func:`weak_membership`, Algorithm 3): the
     greatest fixed point of alive triangles and alive 4-cliques, peeled
     for all worlds together with the same gather-and-``reduceat`` support.

Each model's answer is a ``(n_worlds, num_triangles)`` membership matrix
(:func:`global_membership`, :func:`weak_membership`), additive over worlds:
the verification loop of :mod:`repro.sampling.adaptive` sums its columns
over memory-bounded row blocks of sampled worlds, and its exact evaluator
weights them by the probabilities of all ``2^m`` worlds.

The per-world semantics are *identical* to the dict path — for any boolean
row ``worlds[i]``, :func:`nucleus_world_mask` agrees with
:func:`repro.deterministic.nucleus.is_k_nucleus` on the materialized world,
and the weak membership agrees with
:func:`repro.deterministic.nucleus.k_nucleus_triangle_groups` — which the
test-suite pins world-by-world.  Only the *stream* of sampled worlds differs
(numpy ``Generator`` bits instead of ``random.Random`` bits), so dict- and
matrix-backed estimates agree in distribution; the parity tests bound the
difference with Hoeffding's inequality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
    "as_numpy_generator",
    "sample_world_matrix",
    "structure_presence",
    "uncovered_worlds",
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
    if obs_config._ENABLED:
        obs_registry.counter(
            "repro_sampling_worlds_total",
            "Possible worlds drawn by the world-matrix sampler.",
        ).inc(n_worlds)
    return worlds


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
        *own* canonical label order, which differs from this index's order
        when only the subgraph's labels are mutually comparable (ints cut out
        of a mixed int/str graph); edge columns are re-sorted by ``(u, v)``
        in those ids, so :meth:`sample` draws the subgraph's own world
        stream.
        """
        edge_mask = np.asarray(edge_mask, dtype=bool)
        kept = np.flatnonzero(edge_mask)
        ends = np.stack([self.edge_u[kept], self.edge_v[kept]], axis=1)
        vertices = np.unique(ends)
        labels = [self.labels[i] for i in vertices.tolist()]
        ordered = sorted_labels(labels)
        if ordered == labels:  # compact ids keep this index's vertex order
            compact = None
        else:
            position = {label: i for i, label in enumerate(ordered)}
            compact = np.array([position[label] for label in labels], dtype=np.int64)

        def within(by_first_edge: tuple, edges: np.ndarray, rows: np.ndarray) -> np.ndarray:
            """The ``rows`` whose ``edges`` are all kept, in compact ids."""
            found, _ = concatenated_rows(*by_first_edge, kept)
            found = found[edge_mask[edges[found]].all(axis=1)]
            return relabelled(rows[found])[0]

        def relabelled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
            """``rows`` in compact ids, sorted within and across rows, and that order."""
            mapped = np.searchsorted(vertices, rows)
            if compact is None:
                return mapped, slice(None)
            mapped = np.sort(compact[mapped], axis=1)
            order = np.lexsort(mapped.T[::-1])
            return mapped[order], order

        pairs, order = relabelled(ends)
        triangles_by_edge, cliques_by_edge = self._rows_by_first_edge
        return self._from_structures(
            ordered,
            pairs[:, 0],
            pairs[:, 1],
            self.edge_probabilities[kept[order]],
            within(triangles_by_edge, self.triangle_edges, self.triangles),
            within(cliques_by_edge, self.clique_edges, self.cliques),
        )

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
        member_rows = clique_triangles.ravel()
        counts = np.bincount(member_rows, minlength=triangles.shape[0])
        tri_clique_indptr = np.zeros(triangles.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=tri_clique_indptr[1:])
        clique_ids = np.repeat(np.arange(cliques.shape[0], dtype=np.int64), 4)
        tri_clique_indices = clique_ids[np.argsort(member_rows, kind="stable")]
        return cls._with_edge_columns(
            labels,
            (edge_u, edge_v, edge_probabilities),
            triangles,
            cliques,
            (clique_triangles, tri_clique_indptr, tri_clique_indices),
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


def structure_presence(
    index: CandidateWorldIndex, worlds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return per-world triangle and 4-clique presence matrices.

    ``tri_present[i, t]`` is ``True`` when all three edges of triangle ``t``
    exist in world ``i``; ``clique_present[i, c]`` likewise for the six edges
    of 4-clique ``c``.  Both are computed with one fancy-indexed gather and a
    reduction — no per-world Python.
    """
    n_worlds = worlds.shape[0]
    if index.num_triangles:
        tri_present = worlds[:, index.triangle_edges].all(axis=2)
    else:
        tri_present = np.zeros((n_worlds, 0), dtype=bool)
    if index.num_cliques:
        clique_present = worlds[:, index.clique_edges].all(axis=2)
    else:
        clique_present = np.zeros((n_worlds, 0), dtype=bool)
    return tri_present, clique_present


def _per_triangle(
    index: CandidateWorldIndex,
    clique_values: np.ndarray,
    reduce: np.ufunc,
    empty: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Reduce a ``(n_worlds, num_cliques)`` matrix onto the triangles.

    Column ``t`` of the result reduces (``np.add`` or ``np.minimum``) the
    values of the 4-cliques that contain triangle ``t``: one gather over
    ``tri_clique_indices`` and one ``reduceat`` over the non-empty segments
    of ``tri_clique_indptr``.  Triangles in no 4-clique get ``empty``.
    """
    indptr = index.tri_clique_indptr
    nonempty = indptr[1:] > indptr[:-1]
    out = np.full((clique_values.shape[0], index.num_triangles), empty, dtype=dtype)
    if index.num_cliques:
        gathered = clique_values[:, index.tri_clique_indices]
        out[:, nonempty] = reduce.reduceat(
            gathered, indptr[:-1][nonempty], axis=1, dtype=dtype
        )
    return out


def _clique_support(index: CandidateWorldIndex, cliques: np.ndarray) -> np.ndarray:
    """Per world and triangle, the number of the given 4-cliques containing it.

    Counts are kept in the smallest unsigned dtype that holds the largest
    number of 4-cliques any triangle lies in.
    """
    most = int(np.diff(index.tri_clique_indptr).max(initial=0))
    return _per_triangle(index, cliques, np.add, 0, np.min_scalar_type(most))


def uncovered_worlds(
    index: CandidateWorldIndex, worlds: np.ndarray, clique_present: np.ndarray
) -> np.ndarray:
    """Flag the worlds in which some present edge lies in no present 4-clique.

    The present 4-cliques are OR-scattered onto their edge columns by
    fancy-indexed assignment.
    """
    covered = np.zeros(worlds.shape, dtype=bool)
    worlds_of, cliques = np.nonzero(clique_present)
    covered[worlds_of[:, None], index.clique_edges[cliques]] = True
    return (worlds & ~covered).any(axis=1)


def _one_component(index: CandidateWorldIndex, clique_present: np.ndarray) -> np.ndarray:
    """Per world, whether the present 4-cliques are connected through triangles.

    Min-label propagation with pointer jumping over the present 4-cliques:
    each starts labelled with its own row (absent ones with the sentinel
    ``num_cliques``); each round every triangle takes the smallest label of
    its present 4-cliques, every present 4-clique the smallest label of its
    four triangles, and then every label jumps to its label's label.  At
    the fixed point each component carries its smallest row, so a world is
    connected iff its present 4-cliques share one label.
    """
    n = index.num_cliques
    dtype = np.min_scalar_type(n)
    rows = np.arange(clique_present.shape[0])[:, None]
    sentinel = np.full((clique_present.shape[0], 1), n, dtype=dtype)
    labels = np.where(clique_present, np.arange(n, dtype=dtype), sentinel)
    while True:
        by_triangle = _per_triangle(index, labels, np.minimum, n, dtype)
        pulled = by_triangle[:, index.clique_triangles].min(axis=2)
        pulled = np.where(clique_present, pulled, sentinel)
        jumped = np.hstack([pulled, sentinel])[rows, pulled]
        if np.array_equal(jumped, labels):
            break
        labels = jumped
    low = labels.min(axis=1, initial=n)
    high = np.where(clique_present, labels, 0).max(axis=1, initial=0)
    return low == high


def nucleus_world_mask(
    index: CandidateWorldIndex,
    worlds: np.ndarray,
    k: int,
    presence: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Decide, per world-matrix row, whether the world is a k-(3,4)-nucleus.

    Batch-wise equivalent of mapping
    :func:`repro.deterministic.nucleus.is_k_nucleus` over the materialized
    worlds (the test-suite pins the equivalence row by row).  A world is a
    nucleus iff

    * it has a present 4-clique and every present edge lies in one
      (:func:`uncovered_worlds` is false);
    * every *structural* triangle (in ≥ 1 present 4-clique) lies in ≥ k
      present 4-cliques — incidental triangles are exempt;
    * the structural triangles are 4-clique-connected, i.e. the present
      4-cliques are connected through shared triangles.

    Each condition is evaluated at once for all worlds the previous one
    kept.
    """
    check_level(k)
    _, clique_present = structure_presence(index, worlds) if presence is None else presence
    uncovered = uncovered_worlds(index, worlds, clique_present)
    mask = np.zeros(worlds.shape[0], dtype=bool)
    rows = np.flatnonzero(clique_present.any(axis=1) & ~uncovered)
    present = clique_present[rows]
    support = _clique_support(index, present)
    supported = ~((support > 0) & (support < k)).any(axis=1)
    mask[rows[supported]] = _one_component(index, present[supported])
    return mask


def global_membership(index: CandidateWorldIndex, worlds: np.ndarray, k: int) -> np.ndarray:
    """Per world and triangle, whether the world is a k-nucleus containing it.

    The ``(n_worlds, num_triangles)`` predicate of Algorithm 2: triangle
    presence in the worlds :func:`nucleus_world_mask` keeps.
    """
    presence = structure_presence(index, worlds)
    return presence[0] & nucleus_world_mask(index, worlds, k, presence=presence)[:, None]


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
    alive, clique_present = structure_presence(index, worlds)
    while True:
        cliques = clique_present & alive[:, index.clique_triangles].all(axis=2)
        support = _clique_support(index, cliques)
        survivors = alive & (support >= k)
        if np.array_equal(survivors, alive):
            break
        alive = survivors
    return alive & (support > 0)


def _counts(model: str, membership, index, worlds, k) -> np.ndarray:
    """The column sums of ``membership``; with telemetry on, inside a
    ``sampling.verify`` span timed into ``repro_sampling_verify_seconds``."""
    if not obs_config._ENABLED:
        return membership(index, worlds, k).sum(axis=0, dtype=np.int64)
    with span("sampling.verify", model=model, worlds=int(worlds.shape[0])):
        with timer() as t:
            counts = membership(index, worlds, k).sum(axis=0, dtype=np.int64)
    obs_registry.histogram(
        "repro_sampling_verify_seconds",
        "Wall-clock seconds per Monte-Carlo world-verification batch.",
        model=model,
    ).observe(t.seconds)
    return counts


def global_triangle_counts(
    index: CandidateWorldIndex, worlds: np.ndarray, k: int
) -> np.ndarray:
    """Count, per triangle, the worlds that are k-nuclei *and* contain it.

    This is the quantity Algorithm 2 thresholds: dividing by the number of
    worlds gives the Monte-Carlo estimate of
    ``Pr[world is a k-nucleus ∧ △ ⊆ world]`` for every triangle at once.
    """
    return _counts("global", global_membership, index, worlds, k)


def weak_membership_counts(
    index: CandidateWorldIndex, worlds: np.ndarray, k: int
) -> np.ndarray:
    """Count, per triangle, the worlds in which it belongs to some k-nucleus.

    The Algorithm 3 counting loop: dividing by the number of worlds gives the
    weak score estimate ``Pr(X_{H,△,w} ≥ k)`` of every candidate triangle.
    """
    return _counts("weak", weak_membership, index, worlds, k)
