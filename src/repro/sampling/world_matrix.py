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
2. :func:`sample_world_matrix` draws **all** ``n`` worlds with a single RNG
   call, as an ``(n_worlds, n_edges)`` boolean matrix — world ``i`` contains
   edge ``j`` iff ``worlds[i, j]``.
3. :func:`structure_presence`, :func:`nucleus_world_mask` and
   :func:`weak_membership_counts` evaluate the per-world structural
   predicates batch-wise: triangle/4-clique containment is a fancy-indexed
   ``all`` over edge columns, edge-coverage and 4-clique support are integer
   matmuls against the precompiled incidence matrices, and only the final
   4-clique-connectivity check (global model) or nucleusness peel (weak
   model) runs per world — on tiny pre-indexed integer structures, and only
   for the worlds that survive the vectorized filters.

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
An optional ``n_jobs`` dimension splits the world matrix row-wise across a
:class:`WorldShardPool` of ``multiprocessing`` workers.  The matrix is always
sampled *in the parent* with the single engine RNG and only then split, so
results are bit-identical for every ``n_jobs`` value; workers receive the
read-only :class:`CandidateWorldIndex` (shared copy-on-write under the
``fork`` start method) plus their row block, and return additive per-triangle
hit counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.deterministic.cliques import (
    Triangle,
    canonical_triangle,
    concatenated_rows,
    forward_adjacency_csr,
    triangle_arrays_csr,
)
from repro.deterministic.connectivity import UnionFind
from repro.exceptions import InvalidParameterError
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.spans import span
from repro.obs.timing import timer
from repro.kernels import record_dispatch, resolve_kernel
from repro.peeling import LazyMinHeap
from repro.sampling.sharding import plan_shards

__all__ = [
    "CandidateWorldIndex",
    "WorldShardPool",
    "as_numpy_generator",
    "sample_world_matrix",
    "structure_presence",
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
    """
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
    _clique_edge_incidence: np.ndarray | None = field(default=None, repr=False)
    _clique_tri_incidence: np.ndarray | None = field(default=None, repr=False)

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

    @property
    def clique_edge_incidence(self) -> np.ndarray:
        """``(num_cliques, num_edges)`` 0/1 matrix: which edges each clique uses."""
        if self._clique_edge_incidence is None:
            incidence = np.zeros((self.num_cliques, self.num_edges), dtype=np.int64)
            if self.num_cliques:
                rows = np.arange(self.num_cliques, dtype=np.int64)[:, None]
                incidence[rows, self.clique_edges] = 1
            self._clique_edge_incidence = incidence
        return self._clique_edge_incidence

    @property
    def clique_tri_incidence(self) -> np.ndarray:
        """``(num_cliques, num_triangles)`` 0/1 matrix: the four member triangles."""
        if self._clique_tri_incidence is None:
            incidence = np.zeros((self.num_cliques, self.num_triangles), dtype=np.int64)
            if self.num_cliques:
                rows = np.arange(self.num_cliques, dtype=np.int64)[:, None]
                incidence[rows, self.clique_triangles] = 1
            self._clique_tri_incidence = incidence
        return self._clique_tri_incidence

    def triangle_labels(self) -> list[Triangle]:
        """Return the canonical label-space tuple of every triangle row."""
        labels = self.labels
        return [
            canonical_triangle(labels[u], labels[v], labels[w])
            for u, v, w in self.triangles.tolist()
        ]

    @classmethod
    def from_graph(
        cls, graph: "ProbabilisticGraph | CSRProbabilisticGraph"
    ) -> "CandidateWorldIndex":
        """Compile a candidate subgraph into the flat verification index.

        Triangles come from the ordered-merge CSR enumeration
        (:func:`~repro.deterministic.cliques.triangle_arrays_csr`); 4-cliques
        are found by extending every triangle ``(u, v, w)`` with the forward
        neighbors of ``w`` that close both remaining edges — the same batched
        technique :mod:`repro.core.batch` uses — and scattered to their four
        member triangles by composite-key binary search.
        """
        csr = graph if isinstance(graph, CSRProbabilisticGraph) else graph.to_csr()
        n = csr.num_vertices
        edge_u, edge_v, edge_probabilities = csr.undirected_edge_arrays()
        # Composite keys u·n + v are globally sorted (rows ascend, neighbor
        # ids ascend within a row), so edge columns resolve by binary search.
        edge_keys = edge_u * n + edge_v

        def edge_columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return np.searchsorted(edge_keys, x * n + y)

        forward = forward_adjacency_csr(csr)
        u_ids, v_ids, w_ids = triangle_arrays_csr(csr, forward=forward)
        num_triangles = int(u_ids.size)
        if num_triangles:
            triangles = np.stack([u_ids, v_ids, w_ids], axis=1)
        else:
            triangles = np.empty((0, 3), dtype=np.int64)
        empty_int = np.empty(0, dtype=np.int64)
        if num_triangles == 0:
            return cls(
                labels=list(csr.vertex_labels),
                edge_u=edge_u,
                edge_v=edge_v,
                edge_probabilities=edge_probabilities,
                triangles=triangles,
                triangle_edges=np.empty((0, 3), dtype=np.int64),
                cliques=np.empty((0, 4), dtype=np.int64),
                clique_edges=np.empty((0, 6), dtype=np.int64),
                clique_triangles=np.empty((0, 4), dtype=np.int64),
                tri_clique_indptr=np.zeros(1, dtype=np.int64),
                tri_clique_indices=empty_int,
            )

        triangle_edges = np.stack(
            [
                edge_columns(u_ids, v_ids),
                edge_columns(u_ids, w_ids),
                edge_columns(v_ids, w_ids),
            ],
            axis=1,
        )

        # --- batched 4-clique enumeration (cf. repro.core.batch) ---------- #
        fptr, fidx = forward
        candidates, sizes = concatenated_rows(fptr, fidx, w_ids)
        if candidates.size:
            owner = np.repeat(np.arange(num_triangles, dtype=np.int64), sizes)
            for endpoint in (v_ids, u_ids):
                positions = np.searchsorted(edge_keys, endpoint[owner] * n + candidates)
                positions[positions == edge_keys.size] = edge_keys.size - 1
                keep = edge_keys[positions] == endpoint[owner] * n + candidates
                owner, candidates = owner[keep], candidates[keep]
        else:
            owner = candidates = empty_int

        num_cliques = int(owner.size)
        if num_cliques == 0:
            cliques = np.empty((0, 4), dtype=np.int64)
            clique_edges = np.empty((0, 6), dtype=np.int64)
            clique_triangles = np.empty((0, 4), dtype=np.int64)
            tri_clique_indptr = np.zeros(num_triangles + 1, dtype=np.int64)
            tri_clique_indices = empty_int
        else:
            a, b, c, d = u_ids[owner], v_ids[owner], w_ids[owner], candidates
            cliques = np.stack([a, b, c, d], axis=1)
            clique_edges = np.stack(
                [
                    edge_columns(a, b),
                    edge_columns(a, c),
                    edge_columns(a, d),
                    edge_columns(b, c),
                    edge_columns(b, d),
                    edge_columns(c, d),
                ],
                axis=1,
            )
            tri_keys = (u_ids * n + v_ids) * n + w_ids

            def triangle_rows(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
                return np.searchsorted(tri_keys, (x * n + y) * n + z)

            clique_triangles = np.stack(
                [
                    owner,
                    triangle_rows(a, b, d),
                    triangle_rows(a, c, d),
                    triangle_rows(b, c, d),
                ],
                axis=1,
            )
            member_rows = clique_triangles.ravel()
            clique_ids = np.repeat(np.arange(num_cliques, dtype=np.int64), 4)
            order = np.argsort(member_rows, kind="stable")
            counts = np.bincount(member_rows, minlength=num_triangles)
            tri_clique_indptr = np.zeros(num_triangles + 1, dtype=np.int64)
            np.cumsum(counts, out=tri_clique_indptr[1:])
            tri_clique_indices = clique_ids[order]

        return cls(
            labels=list(csr.vertex_labels),
            edge_u=edge_u,
            edge_v=edge_v,
            edge_probabilities=edge_probabilities,
            triangles=triangles,
            triangle_edges=triangle_edges,
            cliques=cliques,
            clique_edges=clique_edges,
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


def _connected_through_cliques(index: CandidateWorldIndex, clique_row: np.ndarray) -> bool:
    """Check that the structural triangles of one world form a single component.

    Union-find over triangle rows, merging the four member triangles of every
    present 4-clique; the structural triangles (those in at least one present
    clique) must share a root.  Runs only for worlds that already passed the
    vectorized coverage and support filters.
    """
    present = np.flatnonzero(clique_row)
    if present.size == 0:
        return False
    components = UnionFind(index.num_triangles)
    members = index.clique_triangles[present]
    for t0, t1, t2, t3 in members.tolist():
        components.union(t0, t1)
        components.union(t0, t2)
        components.union(t0, t3)
    roots = {components.find(int(t)) for t in np.unique(members)}
    return len(roots) == 1


def nucleus_world_mask(
    index: CandidateWorldIndex,
    worlds: np.ndarray,
    k: int,
    presence: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Decide, per world, whether the world is a deterministic k-(3,4)-nucleus.

    Batch-wise equivalent of mapping
    :func:`repro.deterministic.nucleus.is_k_nucleus` over the materialized
    worlds (the test-suite pins the equivalence row by row):

    * a world with no present 4-clique is never a nucleus;
    * every present edge must lie in a present 4-clique (edge coverage, one
      integer matmul);
    * every *structural* triangle (contained in ≥ 1 present clique) must be
      supported by ≥ k present cliques — incidental triangles are exempt;
    * all structural triangles must be 4-clique-connected (checked by
      union-find only on the worlds that survive the vectorized filters).
    """
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    n_worlds = worlds.shape[0]
    if index.num_cliques == 0:
        return np.zeros(n_worlds, dtype=bool)
    _, clique_present = structure_presence(index, worlds) if presence is None else presence
    clique_counts = clique_present.astype(np.int64)

    mask = clique_present.any(axis=1)
    if not mask.any():
        return mask

    # Condition 1: present edges covered by present cliques.
    edge_cover = clique_counts @ index.clique_edge_incidence
    mask &= ~(worlds & (edge_cover == 0)).any(axis=1)

    # Condition 2: structural triangles supported by at least k present cliques.
    support = clique_counts @ index.clique_tri_incidence
    mask &= ~((support >= 1) & (support < k)).any(axis=1)

    # Condition 3: 4-clique connectivity, per surviving world, deduplicated by
    # identical clique-presence patterns.
    survivors = np.flatnonzero(mask)
    if survivors.size:
        patterns, inverse = np.unique(clique_present[survivors], axis=0, return_inverse=True)
        inverse = np.asarray(inverse).ravel()  # numpy 2.0.0 returns it (n, 1)-shaped
        verdicts = np.fromiter(
            (_connected_through_cliques(index, pattern) for pattern in patterns),
            dtype=bool,
            count=patterns.shape[0],
        )
        mask[survivors] = verdicts[inverse]
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
    kernel: str = "numpy",
) -> np.ndarray:
    """Count, per triangle, the worlds that are k-nuclei *and* contain it.

    This is the quantity Algorithm 2 thresholds: dividing by the number of
    worlds gives the Monte-Carlo estimate of
    ``Pr[world is a k-nucleus ∧ △ ⊆ world]`` for every triangle at once.
    ``kernel="numba"`` dispatches to the compiled per-world verifier of
    :mod:`repro.kernels.worlds` — bit-identical counts for the same
    ``worlds`` matrix (it evaluates the same predicates without the dense
    incidence matmuls) — and degrades to the numpy path when numba is
    missing.
    """
    kernel = resolve_kernel(kernel)
    if pool is not None:
        return pool.run(_global_counts_shard, index, worlds, k, kernel=kernel)
    impl = _global_counts_numba if kernel == "numba" else _global_counts_impl
    record_dispatch("verify.global", kernel)
    if obs_config._ENABLED:
        return _instrumented_counts("global", impl, index, worlds, k)
    return impl(index, worlds, k)


def _global_counts_numba(
    index: CandidateWorldIndex, worlds: np.ndarray, k: int
) -> np.ndarray:
    from repro.kernels.worlds import global_counts

    return global_counts(index, worlds, k)


def _global_counts_impl(
    index: CandidateWorldIndex, worlds: np.ndarray, k: int
) -> np.ndarray:
    presence = structure_presence(index, worlds)
    tri_present, _ = presence
    mask = nucleus_world_mask(index, worlds, k, presence=presence)
    return tri_present[mask].sum(axis=0, dtype=np.int64)


def _world_weak_covered(
    index: CandidateWorldIndex,
    tri_row: np.ndarray,
    clique_row: np.ndarray,
    k: int,
    covered_out: np.ndarray,
) -> None:
    """Mark (into ``covered_out``) the triangles in some k-nucleus of one world.

    Runs the deterministic nucleusness peel of
    :func:`repro.deterministic.nucleus.nucleus_decomposition` on the world's
    *projected* structure — present triangles and present 4-cliques of the
    precompiled index, no graph rebuild, no re-enumeration — then applies the
    qualification rules of
    :func:`repro.deterministic.nucleus.k_nucleus_triangle_groups`.  The union
    of the returned groups is exactly the covered set, so component splitting
    is unnecessary for membership counting.
    """
    tri_ids = np.flatnonzero(tri_row)
    if tri_ids.size == 0:
        return
    indptr, indices = index.tri_clique_indptr, index.tri_clique_indices
    members_of = index.clique_triangles

    alive: set[int] = set(np.flatnonzero(clique_row).tolist())
    support: dict[int, int] = {}
    cliques_of: dict[int, list[int]] = {}
    for t in tri_ids.tolist():
        mine = [c for c in indices[indptr[t] : indptr[t + 1]].tolist() if c in alive]
        cliques_of[t] = mine
        support[t] = len(mine)

    heap = LazyMinHeap((s, t) for t, s in support.items())
    processed: set[int] = set()
    nucleusness: dict[int, int] = {}
    current_level = 0

    def current(triangle: int) -> int | None:
        return None if triangle in processed else support[triangle]

    while (entry := heap.pop(current)) is not None:
        _, triangle = entry
        current_level = max(current_level, support[triangle])
        nucleusness[triangle] = current_level
        processed.add(triangle)
        for clique in cliques_of[triangle]:
            if clique not in alive:
                continue
            alive.remove(clique)
            for other in members_of[clique].tolist():
                if other == triangle or other in processed:
                    continue
                if support[other] > current_level:
                    support[other] -= 1
                    heap.push(support[other], other)

    qualifying = {t for t, value in nucleusness.items() if value >= k}
    if not qualifying:
        return
    allowed = {
        c
        for c in np.flatnonzero(clique_row).tolist()
        if all(t in qualifying for t in members_of[c].tolist())
    }
    if not allowed:
        return
    for t in qualifying:
        if any(c in allowed for c in cliques_of[t]):
            covered_out[t] = True


def weak_membership_counts(
    index: CandidateWorldIndex,
    worlds: np.ndarray,
    k: int,
    pool: "WorldShardPool | None" = None,
    kernel: str = "numpy",
) -> np.ndarray:
    """Count, per triangle, the worlds in which it belongs to some k-nucleus.

    The Algorithm 3 counting loop: dividing by the number of worlds gives the
    weak score estimate ``Pr(X_{H,△,w} ≥ k)`` of every candidate triangle.
    ``kernel="numba"`` runs the compiled per-world peel of
    :mod:`repro.kernels.worlds` — bit-identical counts for the same worlds.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    kernel = resolve_kernel(kernel)
    if pool is not None:
        return pool.run(_weak_counts_shard, index, worlds, k, kernel=kernel)
    impl = _weak_counts_numba if kernel == "numba" else _weak_counts_impl
    record_dispatch("verify.weak", kernel)
    if obs_config._ENABLED:
        return _instrumented_counts("weak", impl, index, worlds, k)
    return impl(index, worlds, k)


def _weak_counts_numba(
    index: CandidateWorldIndex, worlds: np.ndarray, k: int
) -> np.ndarray:
    tri_present, clique_present = structure_presence(index, worlds)
    from repro.kernels.worlds import weak_counts_from_presence

    return weak_counts_from_presence(index, tri_present, clique_present, k)


def _weak_counts_impl(
    index: CandidateWorldIndex, worlds: np.ndarray, k: int
) -> np.ndarray:
    tri_present, clique_present = structure_presence(index, worlds)
    return _weak_counts_from_presence(index, tri_present, clique_present, k)


def _weak_counts_from_presence(
    index: CandidateWorldIndex,
    tri_present: np.ndarray,
    clique_present: np.ndarray,
    k: int,
) -> np.ndarray:
    """The weak counting loop over precomputed presence matrices.

    Shared by the monolithic path (which derives presence from a sampled
    worlds matrix) and the partitioned path of
    :mod:`repro.sampling.partitioned` (which accumulates presence one edge
    partition at a time and never materializes the worlds matrix).
    """
    counts = np.zeros(index.num_triangles, dtype=np.int64)
    if index.num_triangles == 0:
        return counts
    covered = np.zeros(index.num_triangles, dtype=bool)
    for i in range(tri_present.shape[0]):
        covered[:] = False
        _world_weak_covered(index, tri_present[i], clique_present[i], k, covered)
        counts += covered
    return counts


# --------------------------------------------------------------------------- #
# multiprocessing shard pool
# --------------------------------------------------------------------------- #
def _global_counts_shard(
    payload: tuple[CandidateWorldIndex, np.ndarray, int, str],
) -> np.ndarray:
    index, worlds, k, kernel = payload
    return global_triangle_counts(index, worlds, k, kernel=kernel)


def _weak_counts_shard(
    payload: tuple[CandidateWorldIndex, np.ndarray, int, str],
) -> np.ndarray:
    index, worlds, k, kernel = payload
    return weak_membership_counts(index, worlds, k, kernel=kernel)


class WorldShardPool:
    """A pool of worker processes evaluating row shards of world matrices.

    The parent samples each candidate's full world matrix with the engine RNG
    and splits it row-wise into ``n_jobs`` blocks; workers compute additive
    per-triangle counts on their block, and the parent sums the partials.
    Because sampling never moves into the workers, every result is identical
    to the ``n_jobs=1`` computation for a fixed seed.

    Prefers the ``fork`` start method (the candidate indices are shared
    copy-on-write); falls back to the platform default elsewhere.  Usable as
    a context manager.
    """

    def __init__(self, n_jobs: int) -> None:
        if n_jobs < 1:
            raise InvalidParameterError(f"n_jobs must be >= 1, got {n_jobs}")
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
        kernel: str = "numpy",
    ):
        """Map ``shard_function`` over row blocks of ``worlds`` and sum the counts."""
        n_shards = min(self.n_jobs, worlds.shape[0])
        if n_shards <= 1:
            return shard_function((index, worlds, k, kernel))
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
            (index, worlds[start:stop], k, kernel)
            for start, stop in plan_shards(worlds.shape[0], n_shards)
        ]
        partials = self._pool.map(shard_function, payloads)
        return np.sum(partials, axis=0)

    def map(self, function, payloads: list):
        """Map ``function`` over arbitrary payloads on the worker pool.

        Used by :mod:`repro.sampling.partitioned` to fan edge partitions —
        rather than world-row blocks — across the same worker processes.
        """
        return self._pool.map(function, payloads)

    def close(self) -> None:
        """Shut the worker processes down."""
        self._pool.close()
        self._pool.join()

    def __enter__(self) -> "WorldShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
