"""Tests for deterministic k-core, k-truss, (3,4)-nucleus, and connectivity.

The nucleus functions run on the engine (the local peel at p = 1 and θ = 1,
and the world-matrix predicate on the all-present world);
:class:`TestEngineMatchesTheDictOracle` pins them to the dict implementations
they replaced, which live in ``tests/oracle/deterministic.py``.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deterministic.connectivity import connected_components, is_connected, largest_component
from repro.deterministic.kcore import core_decomposition, degeneracy, k_core_subgraph
from repro.deterministic.ktruss import (
    edge_supports,
    k_truss_subgraph,
    max_truss_number,
    truss_decomposition,
)
from repro.deterministic.nucleus import (
    is_k_nucleus,
    k_nucleus_subgraphs,
    k_nucleus_triangle_groups,
    max_nucleus_number,
    nucleus_decomposition,
    triangles_to_edge_subgraph,
)
from repro.exceptions import InvalidParameterError
from graph_factories import bundled_graph, small_er_graph
from repro.experiments.datasets import DATASET_NAMES
from repro.graph.generators import clique_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph, sorted_labels

from oracle.deterministic import is_k_nucleus as dict_is_k_nucleus
from oracle.deterministic import nucleus_decomposition as dict_nucleus_decomposition
from oracle.deterministic import triangle_supports


class TestCoreDecomposition:
    def test_clique_core_numbers(self):
        for n in range(2, 8):
            graph = clique_graph(n)
            core = core_decomposition(graph)
            assert set(core.values()) == {n - 1}

    def test_path_core_numbers(self):
        graph = ProbabilisticGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        core = core_decomposition(graph)
        assert set(core.values()) == {1}

    def test_empty_graph(self, empty_graph):
        assert core_decomposition(empty_graph) == {}
        assert degeneracy(empty_graph) == 0

    def test_isolated_vertex_has_core_zero(self):
        graph = ProbabilisticGraph()
        graph.add_vertex("loner")
        graph.add_edge(1, 2, 1.0)
        core = core_decomposition(graph)
        assert core["loner"] == 0
        assert core[1] == 1

    def test_matches_networkx(self, planted_graph):
        import networkx as nx

        expected = nx.core_number(planted_graph.to_networkx())
        assert core_decomposition(planted_graph) == expected

    def test_k_core_subgraph_min_degree(self, planted_graph):
        k = degeneracy(planted_graph)
        sub = k_core_subgraph(planted_graph, k)
        assert sub.num_vertices > 0
        for v in sub.vertices():
            assert sub.degree(v) >= k

    def test_k_core_negative_k_rejected(self, planted_graph):
        with pytest.raises(InvalidParameterError):
            k_core_subgraph(planted_graph, -1)


class TestTrussDecomposition:
    def test_clique_truss_numbers(self):
        for n in range(3, 8):
            graph = clique_graph(n)
            truss = truss_decomposition(graph)
            assert set(truss.values()) == {n - 2}

    def test_edge_supports(self, five_clique_graph):
        supports = edge_supports(five_clique_graph)
        assert set(supports.values()) == {3}

    def test_triangle_free_graph(self):
        graph = ProbabilisticGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        truss = truss_decomposition(graph)
        assert set(truss.values()) == {0}
        assert max_truss_number(graph) == 0

    def test_k_truss_subgraph_support_invariant(self, planted_graph):
        k = max_truss_number(planted_graph)
        sub = k_truss_subgraph(planted_graph, k)
        assert sub.num_edges > 0
        for u, v, _ in sub.edges():
            assert len(sub.common_neighbors(u, v)) >= k

    def test_k_truss_negative_k_rejected(self, planted_graph):
        with pytest.raises(InvalidParameterError):
            k_truss_subgraph(planted_graph, -2)

    def test_two_attached_cliques(self):
        """Two 4-cliques sharing an edge: the shared edge gets the higher support but
        the truss number of every edge is 2 (each clique alone is a 2-truss)."""
        graph = ProbabilisticGraph()
        for u, v in itertools.combinations([0, 1, 2, 3], 2):
            graph.add_edge(u, v, 1.0)
        for u, v in itertools.combinations([2, 3, 4, 5], 2):
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, 1.0)
        truss = truss_decomposition(graph)
        assert set(truss.values()) == {2}


class TestNucleusDecomposition:
    def test_clique_nucleusness(self):
        """In an n-clique every triangle lies in exactly n-3 4-cliques."""
        for n in range(4, 8):
            graph = clique_graph(n)
            scores = nucleus_decomposition(graph)
            assert set(scores.values()) == {n - 3}
            assert max_nucleus_number(graph) == n - 3

    def test_triangle_without_cliques_scores_zero(self, triangle_graph):
        scores = nucleus_decomposition(triangle_graph)
        assert scores == {(0, 1, 2): 0}

    def test_empty_graph(self, empty_graph):
        assert nucleus_decomposition(empty_graph) == {}
        assert max_nucleus_number(empty_graph) == 0

    def test_two_cliques_sharing_a_triangle(self):
        """Two 5-cliques sharing 3 vertices: shared triangles see 4 cliques but
        peel to the per-clique level 2."""
        graph = ProbabilisticGraph()
        for u, v in itertools.combinations([0, 1, 2, 3, 4], 2):
            graph.add_edge(u, v, 1.0)
        for u, v in itertools.combinations([2, 3, 4, 5, 6], 2):
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, 1.0)
        scores = nucleus_decomposition(graph)
        assert max(scores.values()) == 2
        assert scores[(2, 3, 4)] == 2

    def test_k_nucleus_subgraphs_of_clique(self, five_clique_graph):
        subgraphs = k_nucleus_subgraphs(five_clique_graph, 2)
        assert len(subgraphs) == 1
        assert subgraphs[0].num_vertices == 5
        assert subgraphs[0].num_edges == 10

    def test_k_nucleus_groups_empty_when_k_too_large(self, five_clique_graph):
        assert k_nucleus_triangle_groups(five_clique_graph, 3) == []

    def test_k_nucleus_groups_disjoint_cliques(self):
        graph = ProbabilisticGraph()
        for offset in (0, 10):
            for u, v in itertools.combinations(range(offset, offset + 5), 2):
                graph.add_edge(u, v, 1.0)
        groups = k_nucleus_triangle_groups(graph, 2)
        assert len(groups) == 2

    def test_negative_k_rejected(self, five_clique_graph):
        with pytest.raises(InvalidParameterError):
            k_nucleus_triangle_groups(five_clique_graph, -1)
        with pytest.raises(InvalidParameterError):
            is_k_nucleus(five_clique_graph, -1)

    def test_triangles_to_edge_subgraph(self, five_clique_graph):
        sub = triangles_to_edge_subgraph(five_clique_graph, [(0, 1, 2)])
        assert sub.num_edges == 3
        assert sub.edge_probability(0, 1) == 1.0

    def test_planted_communities_recovered(self, planted_graph):
        """The planted 6-cliques should surface as nuclei at k = 3."""
        scores = nucleus_decomposition(planted_graph)
        assert max(scores.values()) == 3
        groups = k_nucleus_triangle_groups(planted_graph, 3, scores)
        assert len(groups) == 3
        for group in groups:
            vertices = {v for triangle in group for v in triangle}
            assert len(vertices) == 6


class TestIsKNucleus:
    def test_clique_is_nucleus_up_to_its_level(self, five_clique_graph):
        assert is_k_nucleus(five_clique_graph, 0)
        assert is_k_nucleus(five_clique_graph, 1)
        assert is_k_nucleus(five_clique_graph, 2)
        assert not is_k_nucleus(five_clique_graph, 3)

    def test_graph_with_uncovered_edge_is_not_nucleus(self):
        graph = clique_graph(4)
        graph.add_edge(0, 99, 1.0)
        assert not is_k_nucleus(graph, 0)

    def test_triangle_only_graph_is_not_nucleus(self, triangle_graph):
        # No 4-clique at all: not a union of 4-cliques.
        assert not is_k_nucleus(triangle_graph, 0)

    def test_empty_graph_is_not_nucleus(self, empty_graph):
        assert not is_k_nucleus(empty_graph, 0)

    def test_disconnected_cliques_are_not_one_nucleus(self):
        graph = ProbabilisticGraph()
        for offset in (0, 10):
            for u, v in itertools.combinations(range(offset, offset + 4), 2):
                graph.add_edge(u, v, 1.0)
        assert not is_k_nucleus(graph, 1)

    def test_isolated_vertices_are_tolerated(self):
        graph = clique_graph(4)
        graph.add_vertex("isolated")
        assert is_k_nucleus(graph, 1)

    def test_lemma3_small_cases(self):
        """Lemma 3: the only k-nucleus on k+3 vertices is the (k+3)-clique."""
        from repro.hardness.reductions import only_k_nucleus_on_k_plus_3_vertices_is_clique

        assert only_k_nucleus_on_k_plus_3_vertices_is_clique(1)
        assert only_k_nucleus_on_k_plus_3_vertices_is_clique(2)


#: Every bundled dataset at both bundled scales.
BUNDLED = [(name, scale) for scale in ("tiny", "small") for name in DATASET_NAMES]

#: The predicate levels every candidate is decided at.
LEVELS = range(5)


def _with_an_edge_dropped(graph: ProbabilisticGraph) -> ProbabilisticGraph:
    dropped = graph.copy()
    u, v, _ = next(iter(dropped.edges()))
    dropped.remove_edge(u, v)
    return dropped


def _mixed_k5() -> ProbabilisticGraph:
    labels = sorted_labels([0, 1, 2, "a", "b"])
    return ProbabilisticGraph((u, v, 0.9) for u, v in itertools.combinations(labels, 2))


class TestEngineMatchesTheDictOracle:
    """The engine-backed nucleusness and predicate equal the dict oracle's."""

    @pytest.mark.parametrize("name,scale", BUNDLED, ids=lambda x: x)
    def test_on_every_bundled_graph(self, name, scale):
        graph = bundled_graph(name, scale)
        expected = dict_nucleus_decomposition(graph)
        assert max(expected.values()) >= 2
        assert nucleus_decomposition(graph) == expected
        for k in LEVELS:
            assert is_k_nucleus(graph, k) == dict_is_k_nucleus(graph, k), k

    @pytest.mark.parametrize(
        "name,scale",
        [
            pytest.param(name, scale, marks=[pytest.mark.tier2] if scale == "small" else [])
            for name, scale in BUNDLED
        ],
        ids=lambda x: x,
    )
    def test_on_every_nucleus_subgraph_and_an_edge_dropped_copy(self, name, scale):
        # The maximal k-nuclei (k = 0–4) are nuclei at their own level and
        # fail above it; dropping an edge usually breaks them.
        graph = bundled_graph(name, scale)
        nucleusness = dict_nucleus_decomposition(graph)
        decided = []
        for level in LEVELS:
            for subgraph in k_nucleus_subgraphs(graph, level, nucleusness):
                for candidate in (subgraph, _with_an_edge_dropped(subgraph)):
                    expected = dict_nucleus_decomposition(candidate)
                    assert nucleus_decomposition(candidate) == expected, level
                    for k in LEVELS:
                        decision = is_k_nucleus(candidate, k)
                        assert decision == dict_is_k_nucleus(candidate, k), (level, k)
                        decided.append(decision)
        assert any(decided) and not all(decided)

    @pytest.mark.parametrize(
        "graph_builder",
        [
            lambda: ProbabilisticGraph(
                (f"v{u}" if u % 2 else u, f"v{v}" if v % 2 else v, p)
                for u, v, p in bundled_graph("krogan").edges()
            ),
            _mixed_k5,
            lambda: _with_an_edge_dropped(_mixed_k5()),
            lambda: clique_graph(5),
        ],
        ids=["mixed-krogan", "mixed-K5", "mixed-K5-dropped", "K5"],
    )
    def test_on_mixed_labels_and_an_isolated_vertex(self, graph_builder):
        graph = graph_builder()
        assert nucleus_decomposition(graph) == dict_nucleus_decomposition(graph)
        for k in LEVELS:
            assert is_k_nucleus(graph, k) == dict_is_k_nucleus(graph, k), k
        graph.add_vertex("isolated")
        for k in LEVELS:
            assert is_k_nucleus(graph, k) == dict_is_k_nucleus(graph, k), k

    def test_on_graphs_without_edges(self):
        lonely = ProbabilisticGraph()
        lonely.add_vertex(1)
        lonely.add_vertex("a")
        for graph in (ProbabilisticGraph(), lonely):
            assert nucleus_decomposition(graph) == dict_nucleus_decomposition(graph) == {}
            for k in LEVELS:
                assert is_k_nucleus(graph, k) is dict_is_k_nucleus(graph, k) is False


class TestConnectivity:
    def test_connected_components(self, disconnected_graph):
        components = connected_components(disconnected_graph)
        assert len(components) == 2
        assert {0, 1, 2} in components and {10, 11, 12} in components

    def test_is_connected(self, triangle_graph, disconnected_graph, empty_graph):
        assert is_connected(triangle_graph)
        assert not is_connected(disconnected_graph)
        assert not is_connected(empty_graph)

    def test_single_vertex_is_connected(self):
        graph = ProbabilisticGraph()
        graph.add_vertex(1)
        assert is_connected(graph)

    def test_largest_component(self, disconnected_graph, empty_graph):
        disconnected_graph.add_edge(0, 5, 0.5)
        largest = largest_component(disconnected_graph)
        assert set(largest.vertices()) == {0, 1, 2, 5}
        assert largest_component(empty_graph).num_vertices == 0


class TestHierarchyProperties:
    @given(seed=st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_nucleusness_bounded_by_truss_and_core(self, seed):
        """nucleus score of a triangle <= truss score of its edges <= core score of its vertices
        (up to the standard offsets), a containment the paper's Section 2 relies on."""
        graph = small_er_graph(14, 0.45, seed=seed)
        nucleus = nucleus_decomposition(graph)
        truss = truss_decomposition(graph)
        core = core_decomposition(graph)
        for (a, b, c), score in nucleus.items():
            for u, v in ((a, b), (a, c), (b, c)):
                edge = (u, v) if (u, v) in truss else (v, u)
                assert score <= truss[edge]
            for v in (a, b, c):
                assert score + 2 <= core[v]

    @given(seed=st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_k_nucleus_subgraph_triangles_have_enough_support(self, seed):
        graph = small_er_graph(13, 0.5, seed=seed)
        top = max_nucleus_number(graph)
        if top == 0:
            return
        for subgraph in k_nucleus_subgraphs(graph, top):
            # every triangle of the reported nucleus has support >= top inside it
            supports = triangle_supports(subgraph)
            covered = [s for s in supports.values() if s > 0]
            assert covered and min(covered) >= 0
            assert is_k_nucleus(subgraph, 0)
