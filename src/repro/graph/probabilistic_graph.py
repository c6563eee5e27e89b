"""Probabilistic (uncertain) graph data structure.

A probabilistic graph ``G = (V, E, p)`` is an undirected simple graph in which
every edge ``e`` carries an independent existence probability
``p(e) ∈ (0, 1]``.  This module provides :class:`ProbabilisticGraph`, the
central substrate of the library: every decomposition algorithm in
:mod:`repro.core`, every baseline in :mod:`repro.baselines`, and every metric
in :mod:`repro.metrics` consumes instances of this class.

The implementation stores the graph as a dictionary of dictionaries mapping a
vertex to ``{neighbor: probability}``.  Vertices may be any hashable object;
experiment code typically uses integers.  Edges are undirected, so the
probability is stored symmetrically under both endpoints.

Example
-------
>>> from repro.graph import ProbabilisticGraph
>>> g = ProbabilisticGraph()
>>> g.add_edge(1, 2, 0.9)
>>> g.add_edge(2, 3, 0.5)
>>> g.edge_probability(1, 2)
0.9
>>> sorted(g.neighbors(2))
[1, 3]
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Optional

from repro.exceptions import (
    EdgeNotFoundError,
    InvalidProbabilityError,
    VertexNotFoundError,
)

Vertex = Hashable
Edge = tuple[Vertex, Vertex]

__all__ = [
    "ProbabilisticGraph",
    "Vertex",
    "Edge",
    "canonical_edge",
    "label_sort_key",
    "sorted_labels",
]


def label_sort_key(v: Vertex) -> tuple[str, str]:
    """The ``(type name, str)`` key: total over any labels, ints in ``str`` order."""
    return (str(type(v)), str(v))


def sorted_labels(labels: Iterable[Vertex]) -> list[Vertex]:
    """Sort labels in the one label order of the library.

    Natural order when the labels compare, else :func:`label_sort_key`.
    CSR vertex ids, canonical edges, triangles and 4-cliques all follow it.

    >>> sorted_labels([10, 9])
    [9, 10]
    >>> sorted_labels([10, 9, "a"])
    [10, 9, 'a']
    >>> canonical_edge("1", 1) == canonical_edge(1, "1") == (1, "1")
    True
    """
    labels = list(labels)
    try:
        return sorted(labels)
    except TypeError:
        return sorted(labels, key=label_sort_key)


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Return an undirected edge with its endpoints in label order (:func:`sorted_labels`).

    Canonical edges are what the library uses as dictionary keys wherever a
    set of edges has to be deduplicated.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if label_sort_key(u) <= label_sort_key(v) else (v, u)


class ProbabilisticGraph:
    """An undirected graph whose edges carry independent existence probabilities.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v, p)`` triples used to populate the graph.

    Notes
    -----
    * Self-loops are rejected: cliques (the only structures the nucleus
      machinery cares about) never contain self-loops.
    * Probabilities must lie in ``(0, 1]``.  A probability of exactly ``1``
      models a certain edge; the class therefore also represents ordinary
      deterministic graphs (see :meth:`from_deterministic`).
    """

    def __init__(self, edges: Optional[Iterable[tuple[Vertex, Vertex, float]]] = None) -> None:
        self._adj: dict[Vertex, dict[Vertex, float]] = {}
        self._num_edges = 0
        if edges is not None:
            for u, v, p in edges:
                self.add_edge(u, v, p)

    # ------------------------------------------------------------------ #
    # construction / mutation
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (no-op if it already exists)."""
        if v not in self._adj:
            self._adj[v] = {}

    def add_edge(self, u: Vertex, v: Vertex, probability: float = 1.0) -> None:
        """Add an undirected edge with the given existence probability.

        If the edge already exists its probability is overwritten.

        Raises
        ------
        InvalidProbabilityError
            If ``probability`` is not in ``(0, 1]`` or is not finite.
        ValueError
            If ``u == v`` (self-loop).
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u!r})")
        if not isinstance(probability, (int, float)) or isinstance(probability, bool):
            raise InvalidProbabilityError(probability, context=f"edge ({u!r}, {v!r})")
        probability = float(probability)
        if not math.isfinite(probability) or not 0.0 < probability <= 1.0:
            raise InvalidProbabilityError(probability, context=f"edge ({u!r}, {v!r})")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = probability
        self._adj[v][u] = probability

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge does not exist.
        """
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove a vertex and all of its incident edges.

        Raises
        ------
        VertexNotFoundError
            If the vertex does not exist.
        """
        if v not in self._adj:
            raise VertexNotFoundError(v)
        for neighbor in list(self._adj[v]):
            self.remove_edge(v, neighbor)
        del self._adj[v]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def has_vertex(self, v: Vertex) -> bool:
        """Return ``True`` if ``v`` is a vertex of the graph."""
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        return u in self._adj and v in self._adj[u]

    def edge_probability(self, u: Vertex, v: Vertex) -> float:
        """Return the existence probability of edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge does not exist.
        """
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate over the neighbors of ``v``.

        Raises
        ------
        VertexNotFoundError
            If the vertex does not exist.
        """
        if v not in self._adj:
            raise VertexNotFoundError(v)
        return iter(self._adj[v])

    def neighbor_probabilities(self, v: Vertex) -> Mapping[Vertex, float]:
        """Return a read-only view of ``{neighbor: probability}`` for ``v``."""
        if v not in self._adj:
            raise VertexNotFoundError(v)
        return dict(self._adj[v])

    def degree(self, v: Vertex) -> int:
        """Return the deterministic degree (number of incident edges) of ``v``."""
        if v not in self._adj:
            raise VertexNotFoundError(v)
        return len(self._adj[v])

    def expected_degree(self, v: Vertex) -> float:
        """Return the expected degree of ``v``: the sum of incident edge probabilities."""
        if v not in self._adj:
            raise VertexNotFoundError(v)
        return sum(self._adj[v].values())

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[Vertex, Vertex, float]]:
        """Iterate over all edges as ``(u, v, probability)`` triples.

        Each undirected edge is yielded exactly once, in canonical order.
        """
        seen: set[Edge] = set()
        for u, nbrs in self._adj.items():
            for v, p in nbrs.items():
                key = canonical_edge(u, v)
                if key not in seen:
                    seen.add(key)
                    yield key[0], key[1], p

    @property
    def num_vertices(self) -> int:
        """The number of vertices."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """The number of (undirected) edges."""
        return self._num_edges

    def max_degree(self) -> int:
        """Return the maximum deterministic degree, or 0 for an empty graph."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def average_probability(self) -> float:
        """Return the mean edge probability, or 0.0 for an edgeless graph."""
        if self._num_edges == 0:
            return 0.0
        total = sum(p for _, _, p in self.edges())
        return total / self._num_edges

    def common_neighbors(self, *vertices: Vertex) -> set[Vertex]:
        """Return the set of vertices adjacent to every vertex in ``vertices``.

        This is the work-horse query used in triangle and 4-clique
        enumeration: the common neighbors of a triangle's three vertices are
        exactly the vertices that complete it to a 4-clique.
        """
        if not vertices:
            return set()
        for v in vertices:
            if v not in self._adj:
                raise VertexNotFoundError(v)
        ordered = sorted(vertices, key=lambda v: len(self._adj[v]))
        result = set(self._adj[ordered[0]])
        for v in ordered[1:]:
            result &= self._adj[v].keys()
        result.difference_update(vertices)
        return result

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def copy(self) -> "ProbabilisticGraph":
        """Return a deep copy of the graph."""
        clone = ProbabilisticGraph()
        clone._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    def subgraph(self, vertices: Iterable[Vertex]) -> "ProbabilisticGraph":
        """Return the subgraph induced by ``vertices``.

        Vertices not present in the graph are ignored.  Edge probabilities
        are preserved.
        """
        keep = {v for v in vertices if v in self._adj}
        sub = ProbabilisticGraph()
        for v in keep:
            sub.add_vertex(v)
        for v in keep:
            for w, p in self._adj[v].items():
                if w in keep and not sub.has_edge(v, w):
                    sub.add_edge(v, w, p)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "ProbabilisticGraph":
        """Return the subgraph containing exactly the given edges.

        Edges missing from the graph raise :class:`EdgeNotFoundError`.
        Probabilities are inherited from this graph.
        """
        sub = ProbabilisticGraph()
        for u, v in edges:
            sub.add_edge(u, v, self.edge_probability(u, v))
        return sub

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with a ``probability`` edge attribute."""
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(self._adj)
        nxg.add_weighted_edges_from(
            ((u, v, p) for u, v, p in self.edges()), weight="probability"
        )
        return nxg

    @classmethod
    def from_networkx(cls, nxg, probability_attribute: str = "probability",
                      default_probability: float = 1.0) -> "ProbabilisticGraph":
        """Build a probabilistic graph from a :class:`networkx.Graph`.

        Parameters
        ----------
        nxg:
            The source graph.  Directed or multi-graphs are rejected.
        probability_attribute:
            Name of the edge attribute holding the probability.
        default_probability:
            Probability used for edges lacking the attribute.
        """
        import networkx as nx

        if nxg.is_directed() or nxg.is_multigraph():
            raise ValueError("only undirected simple graphs are supported")
        graph = cls()
        for v in nxg.nodes:
            graph.add_vertex(v)
        for u, v, data in nxg.edges(data=True):
            graph.add_edge(u, v, data.get(probability_attribute, default_probability))
        return graph

    @classmethod
    def from_deterministic(cls, edges: Iterable[Edge]) -> "ProbabilisticGraph":
        """Build a graph where every listed edge exists with probability 1."""
        graph = cls()
        for u, v in edges:
            graph.add_edge(u, v, 1.0)
        return graph

    def to_csr(self):
        """Compile this graph into an int-indexed CSR snapshot.

        Returns a :class:`repro.graph.csr.CSRProbabilisticGraph`: contiguous
        numpy index/probability arrays with vertices relabelled to
        ``0 … n-1``.  The snapshot is immutable; convert back with
        :meth:`from_csr` (or ``csr.to_probabilistic()``).

        >>> g = ProbabilisticGraph([(1, 2, 0.9), (2, 3, 0.5)])
        >>> csr = g.to_csr()
        >>> ProbabilisticGraph.from_csr(csr) == g
        True
        """
        from repro.graph.csr import CSRProbabilisticGraph

        return CSRProbabilisticGraph.from_probabilistic(self)

    @classmethod
    def from_csr(cls, csr) -> "ProbabilisticGraph":
        """Expand a :class:`repro.graph.csr.CSRProbabilisticGraph` back to dict form."""
        return csr.to_probabilistic()

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
