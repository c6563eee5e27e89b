"""Result containers for probabilistic nucleus decompositions.

The decomposition algorithms return rich result objects rather than bare
dictionaries so downstream code (experiments, metrics, examples) can ask for
derived artefacts — the maximal ℓ-(k, θ)-nuclei for any ``k``, the maximum
nucleus score, per-``k`` summaries — without re-running the peeling.

The ℓ-nuclei are grouped on the engine's arrays, every level in one sweep,
and come out in an order that depends on the graph alone: by smallest
triangle row, each subgraph's edges in ascending CSR-id order.  Two
disjoint K4s, the second added first:

>>> from itertools import combinations
>>> from repro import ProbabilisticGraph, local_nucleus_decomposition
>>> graph = ProbabilisticGraph()
>>> for group in ("wxyz", "abcd"):
...     for u, v in combinations(group, 2):
...         graph.add_edge(u, v, 0.9)
>>> result = local_nucleus_decomposition(graph, 0.5)
>>> [list(nucleus.vertices()) for nucleus in result.nuclei(1)]
[['a', 'b', 'c', 'd'], ['w', 'x', 'y', 'z']]
>>> [(u, v) for u, v, _ in result.nuclei(1)[0].subgraph.edges()]
[('a', 'b'), ('a', 'c'), ('a', 'd'), ('b', 'c'), ('b', 'd'), ('c', 'd')]
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.batch import CSRTriangleIndex, build_triangle_extension_index
from repro.core.components import _nucleus_level_groups
from repro.core.support_dp import NO_VALID_K
from repro.deterministic.cliques import (
    Triangle,
    canonical_triangle,
    distinct_per_owner,
    label_triangles,
)
from repro.deterministic.nucleus import k_nucleus_triangle_groups, triangles_to_edge_subgraph
from repro.exceptions import (
    TriangleNotFoundError,
    VertexNotFoundError,
    check_level,
)
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph, Vertex
from repro.obs.spans import span
from repro.sampling.world_matrix import CandidateWorldIndex

__all__ = ["LocalNucleusDecomposition", "ProbabilisticNucleus"]

#: Marks a triangle row that :attr:`LocalNucleusDecomposition.scores` lacks
#: while its scores are read onto the engine's rows; no score takes it.
_MISSING = np.iinfo(np.int64).min


@dataclass(frozen=True)
class ProbabilisticNucleus:
    """One µ-(k, θ)-nucleus: a subgraph plus the parameters that produced it.

    ``triangles`` is the set of triangles whose membership defines the
    nucleus; ``subgraph`` is the corresponding edge-induced probabilistic
    subgraph of the original graph.
    """

    k: int
    theta: float
    mode: str
    subgraph: ProbabilisticGraph
    triangles: frozenset[Triangle]

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the nucleus subgraph."""
        return self.subgraph.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges of the nucleus subgraph."""
        return self.subgraph.num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over the vertices of the nucleus subgraph."""
        return self.subgraph.vertices()

    def __len__(self) -> int:
        """The number of vertices of the nucleus."""
        return self.num_vertices

    def __contains__(self, vertex: Vertex) -> bool:
        """Return ``True`` when ``vertex`` belongs to the nucleus subgraph."""
        try:
            return vertex in self.subgraph
        except TypeError:  # unhashable probe can never be a vertex
            return False

    def __iter__(self) -> Iterator[Vertex]:
        """Iterate over the vertices of the nucleus (same order as :meth:`vertices`)."""
        return iter(self.subgraph)

    def __repr__(self) -> str:
        return (
            f"ProbabilisticNucleus(mode={self.mode!r}, k={self.k}, theta={self.theta}, "
            f"vertices={self.num_vertices}, edges={self.num_edges}, "
            f"triangles={len(self.triangles)})"
        )


def _labelled_groups(
    labels: Sequence[Vertex],
    triangles: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_p: np.ndarray,
    groups: list[np.ndarray],
) -> list[tuple[frozenset[Triangle], ProbabilisticGraph]]:
    """The label triangles and the edge subgraph of each group of triangle rows.

    ``triangles`` holds a graph's ``(T, 3)`` ascending vertex-id rows,
    ``labels[i]`` labels id ``i``, and ``edge_u`` / ``edge_v`` / ``edge_p``
    are its undirected edges in CSR-id order
    (:meth:`~repro.graph.csr.CSRProbabilisticGraph.undirected_edge_arrays`).
    All groups are translated together: one
    :func:`~repro.deterministic.cliques.label_triangles` call, and one
    :func:`~repro.deterministic.cliques.distinct_per_owner` sort of
    (group, edge id) keys, which lists each group's edges in ascending
    CSR-id order, that is as ``(u, v)`` id pairs with ``u < v`` sorted
    lexicographically.  :meth:`LocalNucleusDecomposition.nuclei` and
    :meth:`repro.index.NucleusIndex.component_nucleus` build their nuclei
    here, so both insert the same edges in the same order.
    """
    if not groups:
        return []
    sizes = [group.size for group in groups]
    rows = triangles[np.concatenate(groups)]
    labelled = label_triangles(rows, labels)

    n = len(labels)
    u, v, w = rows.T
    edge_ids = np.searchsorted(
        edge_u * n + edge_v, np.concatenate([u * n + v, u * n + w, v * n + w])
    )
    owners = np.tile(np.repeat(np.arange(len(groups)), sizes), 3)
    edges, edge_bounds = distinct_per_owner(owners, edge_ids, edge_u.size, len(groups))
    us = [labels[i] for i in edge_u[edges].tolist()]
    vs = [labels[i] for i in edge_v[edges].tolist()]
    ps = edge_p[edges].tolist()

    triangle_bounds = np.cumsum([0, *sizes]).tolist()
    edge_bounds = edge_bounds.tolist()
    return [
        (frozenset(labelled[a:b]), ProbabilisticGraph(zip(us[lo:hi], vs[lo:hi], ps[lo:hi])))
        for a, b, lo, hi in zip(
            triangle_bounds, triangle_bounds[1:], edge_bounds, edge_bounds[1:]
        )
    ]


class LocalNucleusDecomposition:
    """Output of the local (ℓ) nucleus decomposition (Algorithm 1).

    Attributes
    ----------
    graph:
        The probabilistic graph that was decomposed.
    theta:
        The probability threshold θ.
    scores:
        The nucleus score ν(△) of every triangle.  A score of ``-1`` marks a
        triangle whose own existence probability is below θ; such triangles
        belong to no ℓ-(k, θ)-nucleus.  Nuclei extraction and index
        snapshots read it once and cache what they derive, so mutating it
        afterwards changes neither.
    estimator_name:
        Name of the support estimator that produced the scores ("dp",
        "hybrid", "poisson", ...).
    estimator_selections:
        For the hybrid estimator, how many times each underlying
        approximation was chosen (empty otherwise).
    engine_index:
        The ``(csr, CSRTriangleIndex)`` pair the scores were peeled on, if at
        hand; see :attr:`engine_index`.
    """

    def __init__(
        self,
        graph: ProbabilisticGraph,
        theta: float,
        scores: dict[Triangle, int],
        estimator_name: str,
        estimator_selections: dict[str, int] | None = None,
        *,
        engine_index: tuple[CSRProbabilisticGraph, CSRTriangleIndex] | None = None,
    ) -> None:
        self.graph = graph
        self.theta = theta
        self.scores = scores
        self.estimator_name = estimator_name
        self.estimator_selections = dict(estimator_selections or {})
        self._engine_index = engine_index
        self._groups_cache: dict[int, list[frozenset[Triangle]]] = {}

    @property
    def engine_index(self) -> tuple[CSRProbabilisticGraph, CSRTriangleIndex]:
        """The CSR compile of :attr:`graph` and its triangle ⇄ 4-clique index.

        The peel's own pair when
        :func:`~repro.core.local.local_nucleus_decomposition` compiled
        :attr:`graph` itself; compiled from :attr:`graph` on first use for
        any other result (a CSR input's, a rehydrated or a hand-built one).
        """
        if self._engine_index is None:
            csr = self.graph.to_csr()
            self._engine_index = (csr, build_triangle_extension_index(csr))
        return self._engine_index

    @cached_property
    def world_index(self) -> CandidateWorldIndex:
        """The verifier's index of the whole graph, sharing :attr:`engine_index`'s
        incidence arrays; built on first use."""
        return CandidateWorldIndex.from_engine_index(*self.engine_index)

    @cached_property
    def _world_rows(self) -> dict[Triangle, int]:
        """Row of every triangle of :attr:`world_index`, by its label triangle."""
        return {t: row for row, t in enumerate(self.world_index.triangle_labels())}

    def candidate_index(self, triangles: Iterable[Triangle]) -> CandidateWorldIndex:
        """The world index of the edge subgraph spanned by label ``triangles``.

        :meth:`~repro.sampling.world_matrix.CandidateWorldIndex.restrict` of
        :attr:`world_index` to their edges: array for array
        :meth:`~repro.sampling.world_matrix.CandidateWorldIndex.from_graph` of
        that subgraph, so it draws the same worlds.
        """
        world = self.world_index
        rows = np.fromiter((self._world_rows[t] for t in triangles), dtype=np.int64)
        edge_mask = np.zeros(world.num_edges, dtype=bool)
        edge_mask[world.triangle_edges[rows]] = True
        return world.restrict(edge_mask)

    # ------------------------------------------------------------------ #
    # scalar summaries
    # ------------------------------------------------------------------ #
    @property
    def num_triangles(self) -> int:
        """Total number of triangles that were scored."""
        return len(self.scores)

    @property
    def max_score(self) -> int:
        """The maximum nucleus score over all triangles (−1 if there are none)."""
        return max(self.scores.values(), default=-1)

    def triangles_with_score_at_least(self, k: int) -> set[Triangle]:
        """Return the triangles whose nucleus score is at least ``k``."""
        return {t for t, score in self.scores.items() if score >= k}

    def score_of(self, u: Vertex, v: Vertex, w: Vertex) -> int:
        """Return the nucleus score ν of the triangle ``{u, v, w}``.

        The vertices may be given in any order.  Raises
        :class:`~repro.exceptions.TriangleNotFoundError` (not a bare
        ``KeyError``) when the triangle was never scored.
        """
        triangle = canonical_triangle(u, v, w)
        try:
            return self.scores[triangle]
        except KeyError:
            raise TriangleNotFoundError(triangle) from None

    def max_score_of(self, vertex: Vertex) -> int:
        """Return the maximum nucleus score over the triangles containing ``vertex``.

        ``-1`` when the vertex lies in no scored triangle.  Unknown vertices
        raise :class:`~repro.exceptions.VertexNotFoundError` (not a bare
        ``KeyError``).
        """
        if not self.graph.has_vertex(vertex):
            raise VertexNotFoundError(vertex)
        return max(
            (score for triangle, score in self.scores.items() if vertex in triangle),
            default=-1,
        )

    def score_histogram(self) -> dict[int, int]:
        """Return ``{score: number of triangles with that score}``."""
        histogram: dict[int, int] = {}
        for score in self.scores.values():
            histogram[score] = histogram.get(score, 0) + 1
        return dict(sorted(histogram.items()))

    # ------------------------------------------------------------------ #
    # nuclei extraction
    # ------------------------------------------------------------------ #
    @cached_property
    def _row_scores(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`scores` read onto the triangle rows of :attr:`engine_index`.

        Returns the ``int64`` score of every row, :data:`NO_VALID_K` where
        :attr:`scores` lacks the row's triangle, and those rows, ascending;
        both read-only, since index snapshots of this result share them.
        Keys of :attr:`scores` that the graph lacks are ignored, as the dict
        grouping (:func:`~repro.deterministic.nucleus.k_nucleus_triangle_groups`)
        ignores them.
        """
        csr, index = self.engine_index
        lookup = self.scores.get
        values = np.fromiter(
            (lookup(t, _MISSING) for t in label_triangles(index.triangles, csr.vertex_labels)),
            dtype=np.int64,
            count=index.num_triangles,
        )
        missing = np.flatnonzero(values == _MISSING)
        values[missing] = NO_VALID_K
        values.flags.writeable = missing.flags.writeable = False
        return values, missing

    @cached_property
    def _level_groups(self) -> dict[int, list[np.ndarray]]:
        """The member rows of every nucleus at every level ``0 … max ν``.

        One :func:`~repro.core.components._nucleus_level_groups` sweep over
        :attr:`engine_index`; each level's groups are ordered by smallest
        row, members ascending.  :meth:`nuclei` and the index snapshot
        (:meth:`repro.index.NucleusIndex.from_local_result`) share it.
        """
        return _nucleus_level_groups(self._row_scores[0], self.engine_index[1])

    def nuclei(self, k: int) -> list[ProbabilisticNucleus]:
        """Return the maximal ℓ-(k, θ)-nuclei for the given ``k``.

        Each nucleus is a maximal 4-clique-connected union of triangles with
        nucleus score at least ``k``, returned as a
        :class:`ProbabilisticNucleus` whose subgraph inherits the original
        edge probabilities.

        The first call groups every level on the arrays of
        :attr:`engine_index`; each call translates only level ``k``'s groups
        to labels.  The list, the triangle sets and the subgraphs depend on
        the graph alone: the nuclei come ordered by their smallest triangle
        row (rows sort by CSR ids, which follow
        :func:`~repro.graph.probabilistic_graph.sorted_labels`), and each
        subgraph's edges are inserted in ascending CSR-id order.  With
        telemetry on, each call runs in a ``local.nuclei`` span.
        """
        k = check_level(k)
        with span("local.nuclei", k=k) as nuclei_span:
            swept = "_level_groups" not in self.__dict__
            groups = self._level_groups.get(k, [])
            csr, index = self.engine_index
            nuclei = [
                ProbabilisticNucleus(
                    k=k, theta=self.theta, mode="local", subgraph=subgraph, triangles=triangles
                )
                for triangles, subgraph in _labelled_groups(
                    csr.vertex_labels, index.triangles, *csr.undirected_edge_arrays(), groups
                )
            ]
            nuclei_span.annotate(
                nuclei=len(nuclei), triangles=sum(group.size for group in groups), swept=swept
            )
        return nuclei

    def _dict_nuclei(self, k: int) -> list[ProbabilisticNucleus]:
        """The ℓ-(k, θ)-nuclei as Algorithms 2 and 3 take their candidates.

        The groups of :meth:`nuclei`, grouped in dict space instead
        (:func:`~repro.deterministic.nucleus.k_nucleus_triangle_groups`,
        cached per ``k``), listed in its component order and built by
        :func:`~repro.deterministic.nucleus.triangles_to_edge_subgraph`.
        Both decompositions verify their candidates on one shared generator
        in this order (Algorithm 2's seeds follow the union of these
        subgraphs), so the order fixes which worlds each candidate draws, and
        moving them onto :meth:`nuclei` would move sampled answers.  This
        accessor goes once they draw one world stream per component
        (ROADMAP.md, "Component world streams").
        """
        if k not in self._groups_cache:
            groups = k_nucleus_triangle_groups(self.graph, k, nucleusness=self.scores)
            self._groups_cache[k] = [frozenset(group) for group in groups]
        return [
            ProbabilisticNucleus(
                k=k,
                theta=self.theta,
                mode="local",
                subgraph=triangles_to_edge_subgraph(self.graph, group),
                triangles=group,
            )
            for group in self._groups_cache[k]
        ]

    def all_nuclei(self) -> dict[int, list[ProbabilisticNucleus]]:
        """Return the nuclei for every ``k`` from 0 to :attr:`max_score`.

        Values of ``k`` that yield no nuclei map to an empty list.  For a
        graph with no scored triangles the result is empty.
        """
        result: dict[int, list[ProbabilisticNucleus]] = {}
        for k in range(0, self.max_score + 1):
            result[k] = self.nuclei(k)
        return result

    def max_nucleus(self) -> list[ProbabilisticNucleus]:
        """Return the nuclei at the maximum score level (empty if no triangle qualifies)."""
        if self.max_score < 0:
            return []
        return self.nuclei(self.max_score)

    def build_index(self):
        """Snapshot this decomposition into a persistent serve-time index.

        Returns a :class:`repro.index.NucleusIndex` covering every level
        ``0 … max_score``; see :mod:`repro.index` for ``save()``/``load()``
        and :mod:`repro.query` for the query engine.
        """
        from repro.index.nucleus_index import NucleusIndex

        return NucleusIndex.from_local_result(self)

    def __repr__(self) -> str:
        return (
            f"LocalNucleusDecomposition(theta={self.theta}, "
            f"triangles={self.num_triangles}, max_score={self.max_score}, "
            f"estimator={self.estimator_name!r})"
        )
