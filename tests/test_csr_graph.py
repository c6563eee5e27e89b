"""Tests for the array-backed CSR graph engine (`repro.graph.csr`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import build_triangle_extension_index, clique_vertex_rows
from repro.deterministic.cliques import (
    enumerate_triangles,
    triangle_arrays_csr,
    triangle_clique_index,
)
from repro.exceptions import EdgeNotFoundError, VertexNotFoundError
from repro.graph.csr import CSRProbabilisticGraph
from graph_factories import small_er_graph
from repro.graph.generators import (
    overlapping_community_graph,
    planted_nucleus_graph,
    power_law_cluster_graph,
)
from repro.graph.probabilistic_graph import ProbabilisticGraph


def _random_graphs():
    """A spread of randomized topologies used by the round-trip property tests."""
    for seed in (0, 1, 7, 23):
        yield small_er_graph(25, 0.3, seed=seed)
    for seed in (3, 11):
        yield power_law_cluster_graph(60, attachment=3, seed=seed)
    yield planted_nucleus_graph(
        num_communities=2, community_size=5, background_vertices=10,
        background_density=0.2, bridges_per_community=2, seed=5,
    )
    yield overlapping_community_graph(num_communities=3, community_size=6,
                                      overlap=2, seed=13)


class TestRoundTrip:
    @pytest.mark.parametrize("index", range(8))
    def test_dict_csr_round_trip_property(self, index):
        """to_csr().to_probabilistic() is the identity on randomized graphs."""
        graph = list(_random_graphs())[index]
        csr = graph.to_csr()
        assert csr.to_probabilistic() == graph
        assert ProbabilisticGraph.from_csr(csr) == graph

    def test_round_trip_preserves_probabilities_exactly(self):
        graph = ProbabilisticGraph()
        graph.add_edge(1, 2, 0.123456789012345)
        graph.add_edge(2, 3, 1.0)
        graph.add_edge(1, 3, 1e-9)
        restored = graph.to_csr().to_probabilistic()
        for u, v, p in graph.edges():
            assert restored.edge_probability(u, v) == p

    def test_round_trip_keeps_isolated_vertices(self):
        graph = ProbabilisticGraph()
        graph.add_vertex("lonely")
        graph.add_edge("a", "b", 0.5)
        restored = graph.to_csr().to_probabilistic()
        assert restored == graph
        assert restored.has_vertex("lonely")

    def test_empty_graph(self, empty_graph):
        csr = empty_graph.to_csr()
        assert csr.num_vertices == 0
        assert csr.num_edges == 0
        assert csr.to_probabilistic() == empty_graph

    def test_string_labels(self):
        graph = ProbabilisticGraph([("x", "y", 0.4), ("y", "z", 0.9), ("x", "z", 0.6)])
        csr = graph.to_csr()
        assert csr.vertex_labels == ["x", "y", "z"]
        assert csr.to_probabilistic() == graph


class TestCSRStructure:
    def test_invariants(self, paper_figure1_graph):
        csr = paper_figure1_graph.to_csr()
        assert csr.indptr[0] == 0
        assert csr.indptr[-1] == csr.indices.size
        assert np.all(np.diff(csr.indptr) >= 0)
        assert csr.indices.size == 2 * paper_figure1_graph.num_edges
        for i in range(csr.num_vertices):
            row = csr.neighbor_ids(i)
            assert np.all(np.diff(row) > 0), "rows must be strictly sorted"

    def test_degree_and_probability_match_dict(self, paper_figure1_graph):
        csr = paper_figure1_graph.to_csr()
        for label in paper_figure1_graph.vertices():
            assert csr.degree(csr.index_of(label)) == paper_figure1_graph.degree(label)
        for u, v, p in paper_figure1_graph.edges():
            assert csr.edge_probability(u, v) == p
            assert csr.edge_probability(v, u) == p
            assert csr.has_edge(u, v)

    def test_edges_iteration_matches(self, planted_graph):
        csr = planted_graph.to_csr()
        assert sorted(csr.edges()) == sorted(planted_graph.edges())

    def test_relabeling_is_canonical_sorted(self):
        graph = ProbabilisticGraph([(9, 2, 0.5), (2, 5, 0.5), (9, 5, 0.5)])
        csr = graph.to_csr()
        assert csr.vertex_labels == [2, 5, 9]
        assert csr.label_of(0) == 2
        assert csr.index_of(9) == 2

    def test_errors(self, single_edge_graph):
        csr = single_edge_graph.to_csr()
        with pytest.raises(VertexNotFoundError):
            csr.index_of("missing")
        with pytest.raises(VertexNotFoundError):
            csr.label_of(99)
        with pytest.raises(EdgeNotFoundError):
            csr.edge_probability("a", "a")
        assert not csr.has_edge("a", "missing")
        assert "a" in csr and "missing" not in csr
        assert len(csr) == 2

    def test_constructor_validates_arrays(self):
        with pytest.raises(ValueError):
            CSRProbabilisticGraph(
                np.array([0, 1]), np.array([0, 1]), np.array([0.5]), ["a"]
            )
        with pytest.raises(ValueError):
            CSRProbabilisticGraph(
                np.array([0, 2]), np.array([1]), np.array([0.5]), ["a"]
            )


class TestCSRCliques:
    @pytest.mark.parametrize("index", range(8))
    def test_triangle_enumeration_matches_dict(self, index):
        graph = list(_random_graphs())[index]
        csr = graph.to_csr()
        labels = csr.vertex_labels
        from_csr = {
            tuple(sorted((labels[u], labels[v], labels[w])))
            for u, v, w in zip(*(ids.tolist() for ids in triangle_arrays_csr(csr)))
        }
        from_dict = set(enumerate_triangles(graph))
        assert from_csr == from_dict

    def test_clique_index_matches_dict(self, paper_figure1_graph):
        csr = paper_figure1_graph.to_csr()
        labels = csr.vertex_labels
        index = build_triangle_extension_index(csr)
        clique_rows = clique_vertex_rows(index).tolist()
        by_triangle, by_clique = triangle_clique_index(paper_figure1_graph)

        def relabel(ids):
            return tuple(labels[i] for i in ids)

        triangles = [relabel(t) for t in index.triangles]
        assert set(triangles) == set(by_triangle)
        indptr = index.tri_clique_indptr
        for row, triangle in enumerate(triangles):
            pairs = slice(indptr[row], indptr[row + 1])
            cliques = [relabel(clique_rows[c]) for c in index.tri_cliques[pairs].tolist()]
            assert sorted(cliques) == sorted(by_triangle[triangle])
            completing = {labels[z] for z in index.tri_completing[pairs].tolist()}
            assert completing == paper_figure1_graph.common_neighbors(*triangle)
        assert {relabel(c) for c in clique_rows} == set(by_clique)

    def test_common_neighbors_matches_dict(self, four_clique_graph):
        csr = four_clique_graph.to_csr()
        index = build_triangle_extension_index(csr)
        row = index.triangles.index((0, 1, 2))
        indptr = index.tri_clique_indptr
        completing = index.tri_completing[indptr[row]:indptr[row + 1]]
        assert completing.tolist() == [3]
        expected = four_clique_graph.common_neighbors(0, 1, 2)
        assert {csr.vertex_labels[z] for z in completing.tolist()} == expected

    def test_triangle_free_graph_has_no_triangles(self):
        path = ProbabilisticGraph([(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)])
        csr = path.to_csr()
        assert all(ids.size == 0 for ids in triangle_arrays_csr(csr))
        assert build_triangle_extension_index(csr).num_triangles == 0
