"""Array-backed CSR representation of a probabilistic graph.

:class:`CSRProbabilisticGraph` stores the same undirected probabilistic graph
as :class:`~repro.graph.probabilistic_graph.ProbabilisticGraph`, but in
*compressed sparse row* form: vertices are relabelled to the contiguous
integers ``0 … n-1`` and the adjacency structure lives in three flat numpy
arrays —

``indptr``
    ``int64`` array of length ``n + 1``; the neighbors of vertex ``i`` occupy
    the half-open slice ``indptr[i]:indptr[i + 1]`` of the other two arrays.
``indices``
    ``int64`` array of length ``2·m``; the integer ids of the neighbors,
    sorted ascending within each row.
``probabilities``
    ``float64`` array parallel to ``indices`` holding the existence
    probability of each (directed copy of an) edge.

Because rows are sorted, neighborhood intersections — the work-horse of
triangle and 4-clique enumeration — become ordered-array merges instead of
hash-set operations, and per-edge probabilities can be gathered with binary
search.  The class is immutable by design: it is a *compiled* snapshot of a
:class:`ProbabilisticGraph`, produced by
:meth:`ProbabilisticGraph.to_csr() <repro.graph.probabilistic_graph.ProbabilisticGraph.to_csr>`
and converted back with :meth:`to_probabilistic`.

Example
-------
>>> from repro.graph import ProbabilisticGraph
>>> g = ProbabilisticGraph([("a", "b", 0.9), ("b", "c", 0.5), ("a", "c", 0.25)])
>>> csr = g.to_csr()
>>> csr.num_vertices, csr.num_edges
(3, 3)
>>> csr.vertex_labels
['a', 'b', 'c']
>>> csr.neighbor_ids(0).tolist()   # "a" is adjacent to "b" and "c"
[1, 2]
>>> csr.edge_probability("b", "c")
0.5
>>> csr.to_probabilistic() == g
True
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import EdgeNotFoundError, VertexNotFoundError
from repro.graph.probabilistic_graph import ProbabilisticGraph, Vertex, sorted_labels

__all__ = ["CSRProbabilisticGraph"]


class CSRProbabilisticGraph:
    """An immutable, int-indexed CSR snapshot of a probabilistic graph.

    Instances are normally built with :meth:`from_probabilistic` (or the
    equivalent :meth:`ProbabilisticGraph.to_csr()
    <repro.graph.probabilistic_graph.ProbabilisticGraph.to_csr>`); the raw
    constructor accepts prebuilt arrays and validates their shape invariants.

    Parameters
    ----------
    indptr, indices, probabilities:
        The CSR arrays described in the module docstring.
    vertex_labels:
        Original vertex label for every integer id; ``vertex_labels[i]`` is
        the label of CSR vertex ``i``.
    """

    __slots__ = ("indptr", "indices", "probabilities", "vertex_labels", "_index_of")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        probabilities: np.ndarray,
        vertex_labels: list,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        probabilities = np.ascontiguousarray(probabilities, dtype=np.float64)
        if indptr.ndim != 1 or indptr.size != len(vertex_labels) + 1:
            raise ValueError("indptr must have length num_vertices + 1")
        if indices.shape != probabilities.shape or indices.ndim != 1:
            raise ValueError("indices and probabilities must be parallel 1-d arrays")
        if indptr.size and (indptr[0] != 0 or indptr[-1] != indices.size):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self.indptr = indptr
        self.indices = indices
        self.probabilities = probabilities
        self.vertex_labels = list(vertex_labels)
        self._index_of = {label: i for i, label in enumerate(self.vertex_labels)}

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #
    @classmethod
    def from_probabilistic(cls, graph: ProbabilisticGraph) -> "CSRProbabilisticGraph":
        """Compile a :class:`ProbabilisticGraph` into CSR form.

        Vertices are relabelled to ``0 … n-1`` in the canonical label order
        (:func:`~repro.graph.probabilistic_graph.sorted_labels`), and each
        adjacency row is sorted by neighbor id, so the result is
        deterministic for a given graph.
        """
        labels = sorted_labels(graph.vertices())
        index_of = {label: i for i, label in enumerate(labels)}
        n = len(labels)
        degrees = np.fromiter(
            (graph.degree(v) for v in labels), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        probabilities = np.empty(nnz, dtype=np.float64)
        for i, v in enumerate(labels):
            nbrs = graph.neighbor_probabilities(v)
            start, stop = int(indptr[i]), int(indptr[i + 1])
            ids = np.fromiter(
                (index_of[w] for w in nbrs), dtype=np.int64, count=len(nbrs)
            )
            probs = np.fromiter(nbrs.values(), dtype=np.float64, count=len(nbrs))
            order = np.argsort(ids, kind="stable")
            indices[start:stop] = ids[order]
            probabilities[start:stop] = probs[order]
        return cls(indptr, indices, probabilities, labels)

    def to_probabilistic(self) -> ProbabilisticGraph:
        """Expand back to a dict-of-dicts :class:`ProbabilisticGraph`.

        The round-trip ``CSRProbabilisticGraph.from_probabilistic(g)
        .to_probabilistic() == g`` holds for every valid graph ``g``.
        """
        graph = ProbabilisticGraph()
        labels = self.vertex_labels
        for label in labels:
            graph.add_vertex(label)
        for i in range(self.num_vertices):
            start, stop = int(self.indptr[i]), int(self.indptr[i + 1])
            for pos in range(start, stop):
                j = int(self.indices[pos])
                if j > i:
                    graph.add_edge(
                        labels[i], labels[j], float(self.probabilities[pos])
                    )
        return graph

    # ------------------------------------------------------------------ #
    # vertex relabelling
    # ------------------------------------------------------------------ #
    def index_of(self, label: Vertex) -> int:
        """Return the integer id of an original vertex label.

        Raises
        ------
        VertexNotFoundError
            If the label is not a vertex of the graph.
        """
        try:
            return self._index_of[label]
        except KeyError:
            raise VertexNotFoundError(label) from None

    def label_of(self, index: int) -> Vertex:
        """Return the original label of CSR vertex ``index``."""
        if not 0 <= index < len(self.vertex_labels):
            raise VertexNotFoundError(index)
        return self.vertex_labels[index]

    # ------------------------------------------------------------------ #
    # queries (int-id space)
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """The number of vertices."""
        return len(self.vertex_labels)

    @property
    def num_edges(self) -> int:
        """The number of undirected edges."""
        return self.indices.size // 2

    def degree(self, index: int) -> int:
        """Return the degree of CSR vertex ``index``."""
        return int(self.indptr[index + 1] - self.indptr[index])

    def neighbor_ids(self, index: int) -> np.ndarray:
        """Return the sorted neighbor-id row of vertex ``index`` (a view)."""
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def neighbor_probabilities_row(self, index: int) -> np.ndarray:
        """Return the probability row parallel to :meth:`neighbor_ids` (a view)."""
        return self.probabilities[self.indptr[index]:self.indptr[index + 1]]

    def has_edge_ids(self, i: int, j: int) -> bool:
        """Return ``True`` if CSR vertices ``i`` and ``j`` are adjacent."""
        row = self.neighbor_ids(i)
        pos = int(np.searchsorted(row, j))
        return pos < row.size and int(row[pos]) == j

    def edge_probability_ids(self, i: int, j: int) -> float:
        """Return the probability of edge ``(i, j)`` in int-id space.

        Raises
        ------
        EdgeNotFoundError
            If the edge does not exist.
        """
        row = self.neighbor_ids(i)
        pos = int(np.searchsorted(row, j))
        if pos >= row.size or int(row[pos]) != j:
            raise EdgeNotFoundError(i, j)
        return float(self.neighbor_probabilities_row(i)[pos])

    # ------------------------------------------------------------------ #
    # flat edge arrays (consumed by the batched engines)
    # ------------------------------------------------------------------ #
    def directed_edge_owners(self) -> np.ndarray:
        """Return the owning row id of every directed edge copy.

        The result is parallel to :attr:`indices` / :attr:`probabilities`:
        entry ``j`` is the vertex whose adjacency row stores position ``j``.
        Because rows are stored in ascending order, the array is sorted, so
        composite keys ``owner·n + neighbor`` built from it are globally
        sorted too — the property every composite-key binary search in the
        batched engines (:mod:`repro.core.batch`,
        :mod:`repro.sampling.world_matrix`) relies on.
        """
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )

    def undirected_edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the undirected edges as ``(edge_u, edge_v, probabilities)``.

        One entry per undirected edge with ``edge_u < edge_v``, sorted
        lexicographically by ``(u, v)`` — the canonical edge-column order of
        the world-matrix sampler and the index file format.
        """
        owners = self.directed_edge_owners()
        upper = self.indices > owners
        return owners[upper], self.indices[upper], self.probabilities[upper]

    def with_edge_deltas(
        self,
        removed: np.ndarray,
        added: np.ndarray,
        added_probabilities: np.ndarray,
    ) -> "CSRProbabilisticGraph":
        """Return a new graph with a batch of edges removed and added (id space).

        ``removed`` and ``added`` are ``(k, 2)`` int64 arrays of undirected
        edges with ``u < v`` in this graph's integer id space;
        ``added_probabilities`` is parallel to ``added``.  A probability
        change is expressed as a remove + add of the same edge.  The vertex
        set (and therefore the id ↔ label mapping) is unchanged.

        The result's arrays are rebuilt from the surviving + added edge set
        with the same canonical ordering as :meth:`from_probabilistic`
        (rows sorted by neighbor id), so it is bit-identical to compiling the
        updated :class:`ProbabilisticGraph` from scratch.  The caller must
        ensure removed edges exist, added edges do not survive removal, and
        no edge appears twice.
        """
        removed = np.ascontiguousarray(removed, dtype=np.int64).reshape(-1, 2)
        added = np.ascontiguousarray(added, dtype=np.int64).reshape(-1, 2)
        added_probabilities = np.ascontiguousarray(
            added_probabilities, dtype=np.float64
        ).reshape(-1)
        if added.shape[0] != added_probabilities.size:
            raise ValueError("added and added_probabilities must be parallel")
        n = self.num_vertices
        # The directed adjacency stream is sorted by composite key
        # ``owner·n + neighbor`` — exactly the canonical order a from-scratch
        # compile produces — so the batch is applied as a sorted-sequence
        # patch (mask out deleted entries, merge-insert added ones) instead
        # of a full re-sort.  The resulting arrays are identical.
        keys = self.directed_edge_owners() * n + self.indices
        indices = self.indices
        probabilities = self.probabilities
        if removed.size:
            drop = np.concatenate(
                [removed[:, 0] * n + removed[:, 1], removed[:, 1] * n + removed[:, 0]]
            )
            keep = ~np.isin(keys, drop)
            keys, indices, probabilities = keys[keep], indices[keep], probabilities[keep]
        if added.size:
            add_keys = np.concatenate(
                [added[:, 0] * n + added[:, 1], added[:, 1] * n + added[:, 0]]
            )
            add_vals = np.concatenate([added[:, 1], added[:, 0]])
            add_probs = np.concatenate([added_probabilities, added_probabilities])
            order = np.argsort(add_keys)
            positions = np.searchsorted(keys, add_keys[order])
            indices = np.insert(indices, positions, add_vals[order])
            probabilities = np.insert(probabilities, positions, add_probs[order])
        degrees = np.diff(self.indptr)
        if removed.size or added.size:
            degrees = degrees.copy()
            if removed.size:
                np.subtract.at(degrees, removed.ravel(), 1)
            if added.size:
                np.add.at(degrees, added.ravel(), 1)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        # The arrays satisfy the constructor invariants by construction and
        # the vertex set is unchanged, so skip re-validation and share the
        # (immutable) label list and its index dict with the parent graph.
        clone = object.__new__(type(self))
        clone.indptr = indptr
        clone.indices = np.ascontiguousarray(indices)
        clone.probabilities = np.ascontiguousarray(probabilities)
        clone.vertex_labels = self.vertex_labels
        clone._index_of = self._index_of
        return clone

    # ------------------------------------------------------------------ #
    # queries (original-label space)
    # ------------------------------------------------------------------ #
    def has_vertex(self, label: Vertex) -> bool:
        """Return ``True`` if ``label`` is a vertex of the graph."""
        return label in self._index_of

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists (by label)."""
        if u not in self._index_of or v not in self._index_of:
            return False
        return self.has_edge_ids(self._index_of[u], self._index_of[v])

    def edge_probability(self, u: Vertex, v: Vertex) -> float:
        """Return the probability of edge ``(u, v)`` addressed by original labels."""
        return self.edge_probability_ids(self.index_of(u), self.index_of(v))

    def edges(self) -> Iterator[tuple[Vertex, Vertex, float]]:
        """Iterate over all undirected edges as ``(u, v, probability)`` label triples."""
        labels = self.vertex_labels
        for i in range(self.num_vertices):
            start, stop = int(self.indptr[i]), int(self.indptr[i + 1])
            for pos in range(start, stop):
                j = int(self.indices[pos])
                if j > i:
                    yield labels[i], labels[j], float(self.probabilities[pos])

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, label: Vertex) -> bool:
        return label in self._index_of

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
