"""Tests for triangle / 4-clique enumeration, supports, and connectivity."""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deterministic.cliques import (
    canonical_four_clique,
    canonical_triangle,
    count_triangles,
    distinct_per_owner,
    enumerate_four_cliques,
    enumerate_triangles,
    triangle_clique_index,
    triangle_connected_components,
    triangles_of_clique,
)
from graph_factories import small_er_graph
from repro.graph.generators import clique_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph

from oracle.deterministic import (
    enumerate_k_cliques,
    four_cliques_containing_triangle,
    triangle_supports,
)


def _binomial(n: int, k: int) -> int:
    import math

    return math.comb(n, k)


class TestCanonicalisation:
    def test_triangle_is_sorted(self):
        assert canonical_triangle(3, 1, 2) == (1, 2, 3)

    def test_four_clique_is_sorted(self):
        assert canonical_four_clique(4, 3, 2, 1) == (1, 2, 3, 4)

    def test_mixed_types_are_stable(self):
        assert canonical_triangle("b", 1, "a") == canonical_triangle(1, "a", "b")

    def test_triangles_of_clique(self):
        triangles = triangles_of_clique((1, 2, 3, 4))
        assert len(triangles) == 4
        assert (1, 2, 3) in triangles and (2, 3, 4) in triangles


class TestEnumeration:
    def test_triangle_count_in_clique(self):
        for n in range(3, 8):
            graph = clique_graph(n)
            assert count_triangles(graph) == _binomial(n, 3)

    def test_four_clique_count_in_clique(self):
        for n in range(4, 8):
            graph = clique_graph(n)
            assert len(list(enumerate_four_cliques(graph))) == _binomial(n, 4)

    def test_no_triangles_in_a_path(self):
        graph = ProbabilisticGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert count_triangles(graph) == 0
        assert list(enumerate_four_cliques(graph)) == []

    def test_triangles_are_unique(self, planted_graph):
        triangles = list(enumerate_triangles(planted_graph))
        assert len(triangles) == len(set(triangles))

    def test_four_cliques_are_unique(self, planted_graph):
        cliques = list(enumerate_four_cliques(planted_graph))
        assert len(cliques) == len(set(cliques))

    def test_matches_networkx_triangle_count(self, planted_graph):
        import networkx as nx

        nxg = planted_graph.to_networkx()
        expected = sum(nx.triangles(nxg).values()) // 3
        assert count_triangles(planted_graph) == expected

    def test_k_clique_enumeration_matches_combinations(self):
        graph = clique_graph(6)
        for k in range(1, 7):
            cliques = list(enumerate_k_cliques(graph, k))
            assert len(cliques) == _binomial(6, k)
            assert len(set(cliques)) == len(cliques)

    def test_k_clique_enumeration_edge_cases(self, triangle_graph):
        assert list(enumerate_k_cliques(triangle_graph, 0)) == []
        assert len(list(enumerate_k_cliques(triangle_graph, 1))) == 3
        assert len(list(enumerate_k_cliques(triangle_graph, 3))) == 1
        assert list(enumerate_k_cliques(triangle_graph, 4)) == []


class TestSupports:
    def test_supports_in_five_clique(self, five_clique_graph):
        supports = triangle_supports(five_clique_graph)
        assert len(supports) == _binomial(5, 3)
        assert set(supports.values()) == {2}

    def test_supports_of_isolated_triangle(self, triangle_graph):
        supports = triangle_supports(triangle_graph)
        assert supports == {(0, 1, 2): 0}

    def test_four_cliques_containing_triangle(self, five_clique_graph):
        cliques = four_cliques_containing_triangle(five_clique_graph, (0, 1, 2))
        assert len(cliques) == 2
        assert all((0, 1, 2) != clique for clique in cliques)

    def test_triangle_clique_index_consistency(self, planted_graph):
        by_triangle, by_clique = triangle_clique_index(planted_graph)
        # every triangle referenced by a clique appears in the triangle map
        for clique, members in by_clique.items():
            assert len(members) == 4
            for triangle in members:
                assert clique in by_triangle[triangle]
        # supports computed both ways agree
        supports = triangle_supports(planted_graph)
        for triangle, cliques in by_triangle.items():
            assert supports[triangle] == len(cliques)


class TestTriangleConnectivity:
    def test_single_clique_is_one_component(self, five_clique_graph):
        by_triangle, _ = triangle_clique_index(five_clique_graph)
        components = triangle_connected_components(by_triangle.keys(), by_triangle)
        assert len(components) == 1

    def test_disjoint_cliques_are_separate_components(self):
        graph = ProbabilisticGraph()
        for offset in (0, 10):
            for u, v in itertools.combinations(range(offset, offset + 4), 2):
                graph.add_edge(u, v, 1.0)
        by_triangle, _ = triangle_clique_index(graph)
        components = triangle_connected_components(by_triangle.keys(), by_triangle)
        assert len(components) == 2

    def test_triangles_without_cliques_are_isolated(self, triangle_graph):
        by_triangle, _ = triangle_clique_index(triangle_graph)
        components = triangle_connected_components(by_triangle.keys(), by_triangle)
        assert components == [{(0, 1, 2)}]

    def test_allowed_cliques_restriction(self, five_clique_graph):
        by_triangle, by_clique = triangle_clique_index(five_clique_graph)
        components = triangle_connected_components(
            by_triangle.keys(), by_triangle, allowed_cliques=set()
        )
        # with no connector cliques every triangle is its own component
        assert len(components) == len(by_triangle)


class TestDistinctPerOwner:
    def test_each_owner_gets_np_unique_of_its_values(self):
        rng = np.random.default_rng(0)
        owners = rng.integers(0, 5, 300)
        values = rng.integers(0, 40, 300)
        # Owners 5 and 6 own nothing.
        distinct, bounds = distinct_per_owner(owners, values, 40, 7)
        assert bounds.size == 8 and bounds[-1] == distinct.size
        for owner in range(7):
            expected = np.unique(values[owners == owner])
            assert np.array_equal(distinct[bounds[owner] : bounds[owner + 1]], expected)

    def test_no_values(self):
        empty = np.zeros(0, dtype=np.int64)
        distinct, bounds = distinct_per_owner(empty, empty, 10, 2)
        assert distinct.size == 0 and bounds.tolist() == [0, 0, 0]


class TestPropertyBased:
    @given(seed=st.integers(0, 100), density=st.floats(0.1, 0.6))
    @settings(max_examples=25, deadline=None)
    def test_every_four_clique_contains_four_supported_triangles(self, seed, density):
        graph = small_er_graph(12, density, seed=seed)
        supports = triangle_supports(graph)
        for clique in enumerate_four_cliques(graph):
            for triangle in triangles_of_clique(clique):
                assert supports[triangle] >= 1

    @given(seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_support_sum_is_four_times_clique_count(self, seed):
        graph = small_er_graph(12, 0.4, seed=seed)
        supports = triangle_supports(graph)
        cliques = list(enumerate_four_cliques(graph))
        assert sum(supports.values()) == 4 * len(cliques)
