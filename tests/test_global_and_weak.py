"""Tests for the global (Algorithm 2) and weakly-global (Algorithm 3) decompositions."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.global_nucleus import (
    candidate_closure,
    global_nucleus_decomposition,
    union_of_nuclei,
)
from repro.core.local import local_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.deterministic.cliques import triangle_clique_index
from repro.exceptions import InvalidParameterError
from repro.graph.generators import clique_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph, canonical_edge
from oracle import triangle_weak_scores


def two_certain_four_cliques() -> ProbabilisticGraph:
    """Two 4-cliques sharing an edge, all probabilities 1."""
    graph = ProbabilisticGraph()
    for u, v in itertools.combinations([0, 1, 2, 3], 2):
        graph.add_edge(u, v, 1.0)
    for u, v in itertools.combinations([2, 3, 4, 5], 2):
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, 1.0)
    return graph


class TestCandidateClosure:
    def test_closure_of_isolated_clique(self, four_clique_graph):
        by_triangle, _ = triangle_clique_index(four_clique_graph)
        cliques = candidate_closure(four_clique_graph, (0, 1, 2), 1, by_triangle)
        assert cliques == {(0, 1, 2, 3)}

    def test_closure_requires_non_negative_k(self, four_clique_graph):
        by_triangle, _ = triangle_clique_index(four_clique_graph)
        with pytest.raises(InvalidParameterError):
            candidate_closure(four_clique_graph, (0, 1, 2), -1, by_triangle)

    def test_closure_of_triangle_without_cliques_is_empty(self, triangle_graph):
        by_triangle, _ = triangle_clique_index(triangle_graph)
        assert candidate_closure(triangle_graph, (0, 1, 2), 1, by_triangle) == set()

    def test_closure_expands_to_cover_new_triangles(self):
        graph = two_certain_four_cliques()
        by_triangle, _ = triangle_clique_index(graph)
        # Seeding from a triangle of the first clique at k=1 keeps only that
        # clique: all its triangles are covered once.
        cliques = candidate_closure(graph, (0, 1, 2), 1, by_triangle)
        assert (0, 1, 2, 3) in cliques


class TestUnionOfNuclei:
    def test_union_merges_edges(self, planted_graph):
        local = local_nucleus_decomposition(planted_graph, theta=0.1)
        nuclei = local.nuclei(1)
        union = union_of_nuclei(nuclei)
        assert union.num_edges <= planted_graph.num_edges
        for u, v, p in union.edges():
            assert planted_graph.edge_probability(u, v) == p

    def test_empty_union(self):
        assert union_of_nuclei([]).num_edges == 0


class TestGlobalDecomposition:
    def test_deterministic_clique_is_global_nucleus(self, five_clique_graph):
        nuclei = global_nucleus_decomposition(
            five_clique_graph, k=2, theta=0.9, n_samples=40, seed=1
        )
        assert len(nuclei) == 1
        assert set(nuclei[0].subgraph.vertices()) == {0, 1, 2, 3, 4}
        assert nuclei[0].mode == "global"

    def test_low_probability_graph_has_no_global_nucleus_at_high_theta(self):
        graph = clique_graph(4, probability=0.5)
        nuclei = global_nucleus_decomposition(graph, k=1, theta=0.9, n_samples=60, seed=2)
        assert nuclei == []

    def test_paper_example1_global_nucleus(self):
        """Figure 3a: the 4-clique {1,2,3,5} with one 0.5-edge is a g-(1, 0.42)-nucleus
        (its only nucleus world, the complete clique, has probability 0.5 >= 0.42)."""
        graph = ProbabilisticGraph()
        edges = [(1, 2, 1.0), (1, 3, 1.0), (1, 5, 1.0), (2, 3, 1.0), (2, 5, 1.0), (3, 5, 0.5)]
        for u, v, p in edges:
            graph.add_edge(u, v, p)
        nuclei = global_nucleus_decomposition(graph, k=1, theta=0.42, n_samples=400, seed=3)
        assert len(nuclei) == 1
        assert set(nuclei[0].subgraph.vertices()) == {1, 2, 3, 5}

    def test_invalid_parameters(self, four_clique_graph):
        with pytest.raises(InvalidParameterError):
            global_nucleus_decomposition(four_clique_graph, k=-1, theta=0.5)
        with pytest.raises(InvalidParameterError):
            global_nucleus_decomposition(four_clique_graph, k=1, theta=1.5)

    def test_reuses_precomputed_local_result(self, planted_graph):
        local = local_nucleus_decomposition(planted_graph, theta=0.05)
        nuclei = global_nucleus_decomposition(
            planted_graph, k=1, theta=0.05, n_samples=30, local_result=local, seed=4
        )
        for nucleus in nuclei:
            assert nucleus.k == 1
            assert nucleus.num_edges > 0

    def test_solutions_are_maximal(self, planted_graph):
        nuclei = global_nucleus_decomposition(
            planted_graph, k=1, theta=0.01, n_samples=30, seed=5
        )
        for a in nuclei:
            for b in nuclei:
                if a is not b:
                    assert not a.triangles < b.triangles

    def test_empty_when_no_local_nuclei(self):
        graph = clique_graph(4, probability=0.2)
        nuclei = global_nucleus_decomposition(graph, k=1, theta=0.9, n_samples=20, seed=6)
        assert nuclei == []


class TestWeakScores:
    def test_scores_of_certain_clique(self, five_clique_graph):
        rng = random.Random(0)
        scores = triangle_weak_scores(five_clique_graph, k=2, n_samples=20, rng=rng)
        assert all(score == 1.0 for score in scores.values())

    def test_invalid_sample_count(self, five_clique_graph):
        with pytest.raises(InvalidParameterError):
            triangle_weak_scores(five_clique_graph, 1, 0, random.Random(0))

    def test_scores_between_zero_and_one(self, planted_graph):
        rng = random.Random(1)
        scores = triangle_weak_scores(planted_graph, k=1, n_samples=25, rng=rng)
        assert scores and all(0.0 <= s <= 1.0 for s in scores.values())


class TestWeakDecomposition:
    def test_deterministic_clique_is_weak_nucleus(self, five_clique_graph):
        nuclei = weak_nucleus_decomposition(
            five_clique_graph, k=2, theta=0.9, n_samples=40, seed=1
        )
        assert len(nuclei) == 1
        assert nuclei[0].mode == "weakly-global"
        assert set(nuclei[0].subgraph.vertices()) == {0, 1, 2, 3, 4}

    def test_paper_example2_is_not_weak_nucleus(self, paper_example2_graph):
        """Example 2: the graph of Figure 3c is an ℓ-(2, 0.01)-nucleus but NOT a
        w-(2, 0.01)-nucleus (its only 2-nucleus world has probability ~0.006)."""
        from repro.hardness.reductions import weak_indicator_probability

        # Exact check: the weak indicator probability of any triangle is the
        # probability of the complete clique, 0.6**10 < 0.01.
        probability = weak_indicator_probability(paper_example2_graph, (1, 2, 3), k=2)
        assert probability == pytest.approx(0.6 ** 10, rel=1e-9)
        assert probability < 0.01

        # The Monte-Carlo algorithm reaches the same conclusion once the sample
        # is large enough to resolve a 0.6% event against the 1% threshold.
        nuclei = weak_nucleus_decomposition(
            paper_example2_graph, k=2, theta=0.01, n_samples=2000, seed=7
        )
        assert nuclei == []

    def test_weak_contains_global_vertices(self, planted_graph):
        """Every g-(k,θ)-nucleus is contained in some w-(k,θ)-nucleus (paper's remark)."""
        theta, k = 0.05, 1
        local = local_nucleus_decomposition(planted_graph, theta)
        global_nuclei = global_nucleus_decomposition(
            planted_graph, k=k, theta=theta, n_samples=80, local_result=local, seed=11
        )
        weak_nuclei = weak_nucleus_decomposition(
            planted_graph, k=k, theta=theta, n_samples=80, local_result=local, seed=11
        )
        weak_triangle_sets = [set(n.triangles) for n in weak_nuclei]
        for g in global_nuclei:
            # Global candidates may merge several weak components; every global
            # triangle must still be covered by the weak solution as a whole.
            covered = set().union(*weak_triangle_sets) if weak_triangle_sets else set()
            assert set(g.triangles) <= covered or not weak_triangle_sets

    def test_invalid_parameters(self, four_clique_graph):
        with pytest.raises(InvalidParameterError):
            weak_nucleus_decomposition(four_clique_graph, k=-1, theta=0.5)
        with pytest.raises(InvalidParameterError):
            weak_nucleus_decomposition(four_clique_graph, k=1, theta=-0.1)

    def test_weak_nuclei_triangles_meet_threshold(self, planted_graph):
        theta, k = 0.1, 1
        nuclei = weak_nucleus_decomposition(
            planted_graph, k=k, theta=theta, n_samples=60, seed=3
        )
        for nucleus in nuclei:
            assert nucleus.num_edges >= 6  # at least one 4-clique
            assert nucleus.k == k


@pytest.mark.parametrize(
    "decomposition", [global_nucleus_decomposition, weak_nucleus_decomposition]
)
def test_csr_graph_input_matches_dict_graph_input(decomposition):
    graph = clique_graph(5, probability=0.9)

    def edge_sets(nuclei):
        return [
            frozenset(canonical_edge(u, v) for u, v, _ in n.subgraph.edges())
            for n in nuclei
        ]

    expected = decomposition(graph, k=1, theta=0.3, n_samples=40, seed=9)
    actual = decomposition(graph.to_csr(), k=1, theta=0.3, n_samples=40, seed=9)
    assert expected and edge_sets(actual) == edge_sets(expected)


@pytest.mark.parametrize(
    "decomposition", [global_nucleus_decomposition, weak_nucleus_decomposition]
)
def test_local_result_must_match_the_call(decomposition):
    graph = clique_graph(5, probability=0.9)
    local = local_nucleus_decomposition(graph, theta=0.3)
    # The same graph, an equal copy and its CSR compilation all match.
    for same in (graph, graph.copy(), graph.to_csr()):
        assert decomposition(same, k=1, theta=0.3, n_samples=20, seed=9, local_result=local)
    with pytest.raises(InvalidParameterError, match="local_result was computed at theta=0.3"):
        decomposition(graph, k=1, theta=0.4, n_samples=20, seed=9, local_result=local)
    other = clique_graph(6, probability=0.9)
    with pytest.raises(InvalidParameterError, match="local_result .* different graph"):
        decomposition(other, k=1, theta=0.3, n_samples=20, seed=9, local_result=local)


class TestModeContainments:
    def test_local_weak_global_containment_on_certain_graph(self):
        """On a deterministic graph all three decompositions coincide."""
        graph = two_certain_four_cliques()
        theta, k = 0.9, 1
        local = local_nucleus_decomposition(graph, theta)
        local_vertices = {
            v for nucleus in local.nuclei(k) for v in nucleus.subgraph.vertices()
        }
        weak = weak_nucleus_decomposition(graph, k, theta, n_samples=30, seed=0)
        weak_vertices = {v for n in weak for v in n.subgraph.vertices()}
        global_ = global_nucleus_decomposition(graph, k, theta, n_samples=30, seed=0)
        global_vertices = {v for n in global_ for v in n.subgraph.vertices()}
        assert local_vertices == weak_vertices == global_vertices == set(range(6))
