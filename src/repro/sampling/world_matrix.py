"""Vectorized possible-world sampling engine (the *world-matrix* engine).

The Monte-Carlo verification loops of Algorithms 2 and 3 dominate end-to-end
runtime: both sample ``n ≈ 200`` possible worlds per candidate subgraph, and
the dict-backed reference path draws every world edge-by-edge in Python,
rebuilds a :class:`~repro.graph.probabilistic_graph.ProbabilisticGraph` per
world, and re-enumerates its triangles and 4-cliques from scratch.

This module replaces that with an array-backed pipeline:

1. :class:`CandidateWorldIndex` compiles a candidate subgraph once into flat
   numpy arrays over the CSR edge list: the ``m`` undirected edges with their
   probabilities, every triangle as three edge columns, every 4-clique as six
   edge columns, and the triangle ⇄ 4-clique incidence in both directions.
   :meth:`CandidateWorldIndex.restrict` cuts the index of an edge subgraph
   out of a compiled graph's arrays, equal to compiling that subgraph, so
   Algorithm 2 compiles only the union of its candidates.
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
   * **weak** (:func:`weak_membership_counts`, Algorithm 3): the
     greatest fixed point of alive triangles and alive 4-cliques, peeled
     for all worlds together with the same gather-and-``reduceat`` support.

The per-triangle counts are additive over worlds, so the one verification
loop of :mod:`repro.sampling.adaptive` draws each candidate's worlds in
consecutive memory-bounded row blocks and sums the counts of the blocks.

The per-world semantics are *identical* to the dict path — for any boolean
row ``worlds[i]``, :func:`nucleus_world_mask` agrees with
:func:`repro.deterministic.nucleus.is_k_nucleus` on the materialized world,
and the weak membership agrees with
:func:`repro.deterministic.nucleus.k_nucleus_triangle_groups` — which the
test-suite pins world-by-world.  Only the *stream* of sampled worlds differs
(numpy ``Generator`` bits instead of ``random.Random`` bits), so dict- and
matrix-backed estimates agree in distribution; the parity tests bound the
difference with Hoeffding's inequality.

Sharding
--------
An optional ``n_jobs`` dimension splits each world block row-wise across a
:class:`WorldShardPool` of ``multiprocessing`` workers.  The block is always
sampled *in the parent* with the single engine RNG and only then split, so
results are bit-identical for every ``n_jobs`` value; workers receive the
read-only :class:`CandidateWorldIndex` (shared copy-on-write under the
``fork`` start method) plus their rows, and return additive per-triangle hit
counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.deterministic.cliques import (
    Triangle,
    _members_of_sorted_mask,
    concatenated_rows,
    forward_adjacency_csr,
    label_triangles,
    triangle_arrays_csr,
)
from repro.exceptions import InvalidParameterError, check_level
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph, sorted_labels
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.spans import span
from repro.obs.timing import timer
from repro.sampling.sharding import _require_positive_int, plan_shards

__all__ = [
    "CandidateWorldIndex",
    "WorldShardPool",
    "as_numpy_generator",
    "sample_world_matrix",
    "structure_presence",
    "uncovered_worlds",
    "nucleus_world_mask",
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
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0
    ):
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")
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
#: :meth:`CandidateWorldIndex._from_structures` resolves by binary search.
_TRIANGLE_EDGES = (np.array([0, 0, 1]), np.array([1, 2, 2]))
_CLIQUE_EDGES = (np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3]))
_CLIQUE_TRIANGLES = (np.array([0, 0, 0, 1]), np.array([1, 1, 2, 2]), np.array([2, 3, 3, 3]))


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
        """Compile a candidate subgraph into the flat verification index.

        Triangles come from the ordered-merge CSR enumeration
        (:func:`~repro.deterministic.cliques.triangle_arrays_csr`); 4-cliques
        are found by extending every triangle ``(u, v, w)`` with the forward
        neighbors of ``w`` that close both remaining edges — the same batched
        technique :mod:`repro.core.batch` uses.  Both come out in
        lexicographic row order, as :meth:`_from_structures` expects.
        """
        csr = graph if isinstance(graph, CSRProbabilisticGraph) else graph.to_csr()
        n = csr.num_vertices
        edge_u, edge_v, edge_probabilities = csr.undirected_edge_arrays()
        # Composite keys u·n + v are globally sorted (rows ascend, neighbor
        # ids ascend within a row), so membership is a binary search.
        edge_keys = edge_u * n + edge_v
        forward = forward_adjacency_csr(csr)
        u_ids, v_ids, w_ids = triangle_arrays_csr(csr, forward=forward)

        # --- batched 4-clique enumeration (cf. repro.core.batch) ---------- #
        candidates, sizes = concatenated_rows(*forward, w_ids)
        owner = np.repeat(np.arange(u_ids.size, dtype=np.int64), sizes)
        for endpoint in (v_ids, u_ids):
            keep = _members_of_sorted_mask(endpoint[owner] * n + candidates, edge_keys)
            owner, candidates = owner[keep], candidates[keep]

        return cls._from_structures(
            list(csr.vertex_labels),
            edge_u,
            edge_v,
            edge_probabilities,
            np.stack([u_ids, v_ids, w_ids], axis=1),
            np.stack([u_ids[owner], v_ids[owner], w_ids[owner], candidates], axis=1),
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
        ``(u, v)``.  Every column reference — the edge columns of triangles
        and 4-cliques, the four member triangles of each 4-clique — is
        resolved by binary search over composite keys, and the triangle →
        4-clique lists are the member triangles scattered by one stable
        argsort.
        """
        n = len(labels)

        def keys(rows: np.ndarray, columns: tuple) -> np.ndarray:
            """Composite keys ``(rows[:, c0]·n + rows[:, c1])·n + …`` of the columns."""
            key = rows.take(columns[0], axis=1)
            for column in columns[1:]:
                key = key * n + rows.take(column, axis=1)
            return key

        edge_keys = edge_u * n + edge_v
        clique_triangles = np.searchsorted(
            keys(triangles, (0, 1, 2)), keys(cliques, _CLIQUE_TRIANGLES)
        )
        member_rows = clique_triangles.ravel()
        counts = np.bincount(member_rows, minlength=triangles.shape[0])
        tri_clique_indptr = np.zeros(triangles.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=tri_clique_indptr[1:])
        clique_ids = np.repeat(np.arange(cliques.shape[0], dtype=np.int64), 4)
        return cls(
            labels=labels,
            edge_u=edge_u,
            edge_v=edge_v,
            edge_probabilities=edge_probabilities,
            triangles=triangles,
            triangle_edges=np.searchsorted(edge_keys, keys(triangles, _TRIANGLE_EDGES)),
            cliques=cliques,
            clique_edges=np.searchsorted(edge_keys, keys(cliques, _CLIQUE_EDGES)),
            clique_triangles=clique_triangles,
            tri_clique_indptr=tri_clique_indptr,
            tri_clique_indices=clique_ids[np.argsort(member_rows, kind="stable")],
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


def _instrumented_counts(model, impl, index, worlds, k) -> np.ndarray:
    """Run one verification batch inside a ``sampling.verify`` span.

    Records the batch's wall time into the per-model
    ``repro_sampling_verify_seconds`` histogram; only reached while telemetry
    is enabled (the disabled path calls the impl directly, untimed).
    """
    with span("sampling.verify", model=model, worlds=int(worlds.shape[0])):
        with timer() as t:
            counts = impl(index, worlds, k)
    obs_registry.histogram(
        "repro_sampling_verify_seconds",
        "Wall-clock seconds per Monte-Carlo world-verification batch.",
        model=model,
    ).observe(t.seconds)
    return counts


def global_triangle_counts(
    index: CandidateWorldIndex,
    worlds: np.ndarray,
    k: int,
    pool: "WorldShardPool | None" = None,
) -> np.ndarray:
    """Count, per triangle, the worlds that are k-nuclei *and* contain it.

    This is the quantity Algorithm 2 thresholds: dividing by the number of
    worlds gives the Monte-Carlo estimate of
    ``Pr[world is a k-nucleus ∧ △ ⊆ world]`` for every triangle at once.
    """
    check_level(k)
    if pool is not None:
        return pool.run(_global_counts_shard, index, worlds, k)
    if obs_config._ENABLED:
        return _instrumented_counts("global", _global_counts, index, worlds, k)
    return _global_counts(index, worlds, k)


def _global_counts(index: CandidateWorldIndex, worlds: np.ndarray, k: int) -> np.ndarray:
    presence = structure_presence(index, worlds)
    mask = nucleus_world_mask(index, worlds, k, presence=presence)
    return presence[0][mask].sum(axis=0, dtype=np.int64)


def _weak_counts(index: CandidateWorldIndex, worlds: np.ndarray, k: int) -> np.ndarray:
    """Count, per triangle, the worlds in which it lies in some k-nucleus.

    The k-nuclei of a world cover exactly its greatest fixed point of alive
    triangles: a 4-clique is alive iff it is present and its four triangles
    are alive; a triangle is alive iff it is present and lies in at least
    ``k`` alive 4-cliques.  Starting from the present triangles, all worlds
    are peeled together until no triangle dies; a world counts for the alive
    triangles that lie in an alive 4-clique.
    """
    alive, clique_present = structure_presence(index, worlds)
    while True:
        cliques = clique_present & alive[:, index.clique_triangles].all(axis=2)
        support = _clique_support(index, cliques)
        survivors = alive & (support >= k)
        if np.array_equal(survivors, alive):
            break
        alive = survivors
    return (alive & (support > 0)).sum(axis=0, dtype=np.int64)


def weak_membership_counts(
    index: CandidateWorldIndex,
    worlds: np.ndarray,
    k: int,
    pool: "WorldShardPool | None" = None,
) -> np.ndarray:
    """Count, per triangle, the worlds in which it belongs to some k-nucleus.

    The Algorithm 3 counting loop: dividing by the number of worlds gives the
    weak score estimate ``Pr(X_{H,△,w} ≥ k)`` of every candidate triangle.
    """
    check_level(k)
    if pool is not None:
        return pool.run(_weak_counts_shard, index, worlds, k)
    if obs_config._ENABLED:
        return _instrumented_counts("weak", _weak_counts, index, worlds, k)
    return _weak_counts(index, worlds, k)


# --------------------------------------------------------------------------- #
# multiprocessing shard pool
# --------------------------------------------------------------------------- #
def _global_counts_shard(payload: tuple[CandidateWorldIndex, np.ndarray, int]) -> np.ndarray:
    return global_triangle_counts(*payload)


def _weak_counts_shard(payload: tuple[CandidateWorldIndex, np.ndarray, int]) -> np.ndarray:
    return weak_membership_counts(*payload)


class WorldShardPool:
    """A pool of worker processes evaluating row shards of world blocks.

    The parent samples each world block with the engine RNG and splits it
    row-wise into ``n_jobs`` shards; workers compute additive per-triangle
    counts on their shard, and the parent sums the partials.  Because
    sampling never moves into the workers, every result is identical to the
    ``n_jobs=1`` computation for a fixed seed.

    Prefers the ``fork`` start method (the candidate indices are shared
    copy-on-write); falls back to the platform default elsewhere.  Usable as
    a context manager.
    """

    def __init__(self, n_jobs: int) -> None:
        _require_positive_int("n_jobs", n_jobs)
        import multiprocessing

        self.n_jobs = n_jobs
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        self._pool = context.Pool(processes=n_jobs)

    def run(
        self,
        shard_function,
        index: CandidateWorldIndex,
        worlds: np.ndarray,
        k: int,
    ):
        """Map ``shard_function`` over row blocks of ``worlds`` and sum the counts."""
        n_shards = min(self.n_jobs, worlds.shape[0])
        if n_shards <= 1:
            return shard_function((index, worlds, k))
        if obs_config._ENABLED:
            # Workers are separate processes: their registries are invisible
            # here, so the parent records the fan-out itself.
            obs_registry.counter(
                "repro_sampling_shards_total",
                "World-matrix row blocks dispatched to shard-pool workers.",
            ).inc(n_shards)
        # plan_shards replicates np.array_split block sizes, so the shard
        # boundaries (and therefore the summed counts) are unchanged.
        payloads = [
            (index, worlds[start:stop], k)
            for start, stop in plan_shards(worlds.shape[0], n_shards)
        ]
        partials = self._pool.map(shard_function, payloads)
        return np.sum(partials, axis=0)

    def close(self) -> None:
        """Shut the worker processes down."""
        self._pool.close()
        self._pool.join()

    def __enter__(self) -> "WorldShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
