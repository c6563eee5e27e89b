"""Unit tests for the ProbabilisticGraph data structure."""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    EdgeNotFoundError,
    InvalidProbabilityError,
    VertexNotFoundError,
)
from repro.graph.possible_worlds import expected_edge_count, world_probability
from repro.graph.probabilistic_graph import ProbabilisticGraph, canonical_edge
from repro.sampling.reliability import exact_reliability

from oracle.possible_worlds import enumerate_worlds


class TestConstruction:
    def test_empty_graph_has_no_vertices_or_edges(self, empty_graph):
        assert empty_graph.num_vertices == 0
        assert empty_graph.num_edges == 0
        assert list(empty_graph.vertices()) == []
        assert list(empty_graph.edges()) == []

    def test_constructor_accepts_edge_triples(self):
        graph = ProbabilisticGraph([(1, 2, 0.5), (2, 3, 0.8)])
        assert graph.num_vertices == 3
        assert graph.num_edges == 2
        assert graph.edge_probability(1, 2) == 0.5

    def test_add_vertex_is_idempotent(self):
        graph = ProbabilisticGraph()
        graph.add_vertex("x")
        graph.add_vertex("x")
        assert graph.num_vertices == 1

    def test_add_edge_creates_missing_vertices(self):
        graph = ProbabilisticGraph()
        graph.add_edge(1, 2, 0.3)
        assert graph.has_vertex(1) and graph.has_vertex(2)

    def test_add_edge_overwrites_probability(self):
        graph = ProbabilisticGraph()
        graph.add_edge(1, 2, 0.3)
        graph.add_edge(2, 1, 0.7)
        assert graph.num_edges == 1
        assert graph.edge_probability(1, 2) == 0.7

    def test_self_loop_rejected(self):
        graph = ProbabilisticGraph()
        with pytest.raises(ValueError):
            graph.add_edge(1, 1, 0.5)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, float("nan"), float("inf")])
    def test_invalid_probability_rejected(self, bad):
        graph = ProbabilisticGraph()
        with pytest.raises(InvalidProbabilityError):
            graph.add_edge(1, 2, bad)

    def test_boolean_probability_rejected(self):
        graph = ProbabilisticGraph()
        with pytest.raises(InvalidProbabilityError):
            graph.add_edge(1, 2, True)

    def test_non_numeric_probability_rejected(self):
        graph = ProbabilisticGraph()
        with pytest.raises(InvalidProbabilityError):
            graph.add_edge(1, 2, "0.5")

    def test_probability_one_allowed(self):
        graph = ProbabilisticGraph()
        graph.add_edge(1, 2, 1.0)
        assert graph.edge_probability(1, 2) == 1.0


class TestQueries:
    def test_edge_is_symmetric(self, single_edge_graph):
        assert single_edge_graph.has_edge("a", "b")
        assert single_edge_graph.has_edge("b", "a")
        assert single_edge_graph.edge_probability("b", "a") == 0.5

    def test_missing_edge_raises(self, single_edge_graph):
        with pytest.raises(EdgeNotFoundError):
            single_edge_graph.edge_probability("a", "z")

    def test_missing_vertex_raises(self, single_edge_graph):
        with pytest.raises(VertexNotFoundError):
            list(single_edge_graph.neighbors("z"))
        with pytest.raises(VertexNotFoundError):
            single_edge_graph.degree("z")
        with pytest.raises(VertexNotFoundError):
            single_edge_graph.expected_degree("z")

    def test_degree_and_expected_degree(self, triangle_graph):
        assert triangle_graph.degree(0) == 2
        assert triangle_graph.expected_degree(0) == pytest.approx(0.9 + 0.7)

    def test_neighbors(self, triangle_graph):
        assert sorted(triangle_graph.neighbors(1)) == [0, 2]

    def test_neighbor_probabilities_is_a_copy(self, triangle_graph):
        probabilities = triangle_graph.neighbor_probabilities(0)
        probabilities[1] = 0.0
        assert triangle_graph.edge_probability(0, 1) == 0.9

    def test_edges_yield_each_edge_once(self, four_clique_graph):
        edges = list(four_clique_graph.edges())
        assert len(edges) == 6
        assert len({canonical_edge(u, v) for u, v, _ in edges}) == 6

    def test_max_degree(self, triangle_graph, empty_graph):
        assert triangle_graph.max_degree() == 2
        assert empty_graph.max_degree() == 0

    def test_average_probability(self, triangle_graph, empty_graph):
        assert triangle_graph.average_probability() == pytest.approx((0.9 + 0.8 + 0.7) / 3)
        assert empty_graph.average_probability() == 0.0

    def test_common_neighbors(self, four_clique_graph):
        assert four_clique_graph.common_neighbors(0, 1) == {2, 3}
        assert four_clique_graph.common_neighbors(0, 1, 2) == {3}
        assert four_clique_graph.common_neighbors() == set()

    def test_common_neighbors_missing_vertex(self, four_clique_graph):
        with pytest.raises(VertexNotFoundError):
            four_clique_graph.common_neighbors(0, 99)

    def test_dunder_protocol(self, triangle_graph):
        assert 0 in triangle_graph
        assert 99 not in triangle_graph
        assert len(triangle_graph) == 3
        assert set(iter(triangle_graph)) == {0, 1, 2}
        assert "num_vertices=3" in repr(triangle_graph)


class TestMutation:
    def test_remove_edge(self, triangle_graph):
        triangle_graph.remove_edge(0, 1)
        assert not triangle_graph.has_edge(0, 1)
        assert triangle_graph.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle_graph):
        with pytest.raises(EdgeNotFoundError):
            triangle_graph.remove_edge(0, 99)

    def test_remove_vertex_removes_incident_edges(self, triangle_graph):
        triangle_graph.remove_vertex(0)
        assert triangle_graph.num_vertices == 2
        assert triangle_graph.num_edges == 1

    def test_remove_missing_vertex_raises(self, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            triangle_graph.remove_vertex(99)


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.remove_edge(0, 1)
        assert triangle_graph.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_equality(self, triangle_graph):
        assert triangle_graph == triangle_graph.copy()
        assert triangle_graph != ProbabilisticGraph()
        assert triangle_graph.__eq__(42) is NotImplemented

    def test_subgraph_preserves_probabilities(self, four_clique_graph):
        sub = four_clique_graph.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3
        assert sub.edge_probability(0, 1) == 0.9

    def test_subgraph_ignores_unknown_vertices(self, four_clique_graph):
        sub = four_clique_graph.subgraph([0, 1, 42])
        assert sub.num_vertices == 2

    def test_edge_subgraph(self, four_clique_graph):
        sub = four_clique_graph.edge_subgraph([(0, 1), (2, 3)])
        assert sub.num_edges == 2
        assert sub.num_vertices == 4

    def test_edge_subgraph_missing_edge_raises(self, triangle_graph):
        with pytest.raises(EdgeNotFoundError):
            triangle_graph.edge_subgraph([(0, 99)])

    def test_networkx_round_trip(self, triangle_graph):
        nxg = triangle_graph.to_networkx()
        back = ProbabilisticGraph.from_networkx(nxg)
        assert back == triangle_graph

    def test_from_networkx_rejects_directed(self):
        import networkx as nx

        with pytest.raises(ValueError):
            ProbabilisticGraph.from_networkx(nx.DiGraph())

    def test_from_networkx_default_probability(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_edge(1, 2)
        graph = ProbabilisticGraph.from_networkx(nxg, default_probability=0.4)
        assert graph.edge_probability(1, 2) == 0.4

    def test_from_deterministic(self):
        graph = ProbabilisticGraph.from_deterministic([(1, 2), (2, 3)])
        assert graph.edge_probability(1, 2) == 1.0
        assert graph.num_edges == 2


class TestCanonicalEdge:
    def test_orders_comparable_values(self):
        assert canonical_edge(2, 1) == (1, 2)
        assert canonical_edge(1, 2) == (1, 2)

    def test_handles_incomparable_types(self):
        edge = canonical_edge("b", 1)
        assert set(edge) == {"b", 1}
        assert canonical_edge("b", 1) == canonical_edge(1, "b")

    def test_labels_with_equal_str_forms(self):
        # 1 and "1" have the same str form: the (type name, str) key still
        # orders them, so the edge has one canonical form.
        assert canonical_edge(1, "1") == canonical_edge("1", 1) == (1, "1")
        graph = ProbabilisticGraph([(1, "1", 0.5), ("1", 2, 0.5), (1, 2, 0.5)])
        edges = list(graph.edges())
        assert len(edges) == graph.num_edges == 3
        assert {(u, v) for u, v, _ in edges} == {(1, "1"), (2, "1"), (1, 2)}

    def test_possible_worlds_of_a_mixed_label_triangle(self):
        graph = ProbabilisticGraph([(1, "1", 0.5), ("1", 2, 0.5), (1, 2, 0.5)])
        worlds = list(enumerate_worlds(graph))
        assert len(worlds) == 8
        assert sum(p for _, p in worlds) == pytest.approx(1.0)
        assert world_probability(graph, [("1", 1)]) == pytest.approx(0.125)
        assert exact_reliability(graph) == pytest.approx(0.5)
        assert expected_edge_count(graph) == pytest.approx(1.5)


class TestPropertyBased:
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(0, 20),
                st.integers(0, 20),
                st.floats(0.01, 1.0),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_edge_count_matches_enumeration(self, edges):
        graph = ProbabilisticGraph()
        for u, v, p in edges:
            if u != v:
                graph.add_edge(u, v, p)
        listed = list(graph.edges())
        assert graph.num_edges == len(listed)
        # Symmetry and probability validity hold for every stored edge.
        for u, v, p in listed:
            assert graph.edge_probability(v, u) == p
            assert 0.0 < p <= 1.0

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15), st.floats(0.01, 1.0)),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_degree_sum_is_twice_edge_count(self, edges):
        graph = ProbabilisticGraph()
        for u, v, p in edges:
            if u != v:
                graph.add_edge(u, v, p)
        degree_sum = sum(graph.degree(v) for v in graph.vertices())
        assert degree_sum == 2 * graph.num_edges

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12), st.floats(0.01, 1.0)),
            max_size=30,
        ),
        keep=st.sets(st.integers(0, 12)),
    )
    @settings(max_examples=50, deadline=None)
    def test_subgraph_never_gains_edges(self, edges, keep):
        graph = ProbabilisticGraph()
        for u, v, p in edges:
            if u != v:
                graph.add_edge(u, v, p)
        sub = graph.subgraph(keep)
        assert sub.num_edges <= graph.num_edges
        for u, v, p in sub.edges():
            assert graph.edge_probability(u, v) == p
            assert u in keep and v in keep
