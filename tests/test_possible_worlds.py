"""Unit and property tests for possible-world semantics (Equation 1).

The enumeration tests pin the test oracle's ``enumerate_worlds``, the dict
reference that the exact evaluators are summed against.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.graph.possible_worlds import expected_edge_count, sample_world, world_probability
from repro.graph.probabilistic_graph import ProbabilisticGraph

from oracle.possible_worlds import enumerate_worlds


class TestWorldProbability:
    def test_full_world_probability(self, triangle_graph):
        probability = world_probability(triangle_graph, [(0, 1), (1, 2), (0, 2)])
        assert probability == pytest.approx(0.9 * 0.8 * 0.7)

    def test_empty_world_probability(self, triangle_graph):
        probability = world_probability(triangle_graph, [])
        assert probability == pytest.approx(0.1 * 0.2 * 0.3)

    def test_paper_figure1_world(self, paper_figure1_graph):
        """The paper states the world of Figure 1b (missing (1,7) and (2,4)) has probability 0.01152."""
        present = [
            (u, v)
            for u, v, _ in paper_figure1_graph.edges()
            if {u, v} not in ({1, 7}, {2, 4})
        ]
        probability = world_probability(paper_figure1_graph, present)
        assert probability == pytest.approx(0.01152, rel=1e-6)


class TestEnumeration:
    def test_enumeration_covers_all_worlds(self, triangle_graph):
        worlds = list(enumerate_worlds(triangle_graph))
        assert len(worlds) == 2 ** 3

    def test_enumeration_probabilities_sum_to_one(self, triangle_graph):
        total = sum(p for _, p in enumerate_worlds(triangle_graph))
        assert total == pytest.approx(1.0)

    def test_enumeration_respects_edge_limit(self):
        graph = ProbabilisticGraph(
            [(i, i + 1, 0.5) for i in range(30)]
        )
        with pytest.raises(InvalidParameterError):
            list(enumerate_worlds(graph, max_edges=10))

    def test_worlds_preserve_vertex_set(self, triangle_graph):
        for world, _ in enumerate_worlds(triangle_graph):
            assert set(world.vertices()) == set(triangle_graph.vertices())

    def test_world_edges_are_certain(self, triangle_graph):
        for world, _ in enumerate_worlds(triangle_graph):
            for _, _, p in world.edges():
                assert p == 1.0


class TestSampling:
    def test_certain_edges_always_present(self):
        graph = ProbabilisticGraph([(1, 2, 1.0), (2, 3, 1.0)])
        world = sample_world(graph, seed=3)
        assert world.has_edge(1, 2) and world.has_edge(2, 3)

    def test_sampling_is_reproducible_with_seed(self, paper_figure1_graph):
        first = sample_world(paper_figure1_graph, seed=5)
        second = sample_world(paper_figure1_graph, seed=5)
        assert first == second

    def test_sample_frequency_tracks_probability(self):
        graph = ProbabilisticGraph([(1, 2, 0.25)])
        rng = random.Random(11)
        hits = sum(
            1 for _ in range(2000) if sample_world(graph, rng=rng).has_edge(1, 2)
        )
        assert 0.2 < hits / 2000 < 0.3

    def test_expected_edge_count(self, triangle_graph):
        assert expected_edge_count(triangle_graph) == pytest.approx(2.4)


class TestPropertyBased:
    @given(
        probabilities=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_enumeration_total_probability_is_one(self, probabilities, seed):
        graph = ProbabilisticGraph()
        for i, p in enumerate(probabilities):
            graph.add_edge(i, i + 1, p)
        total = sum(p for _, p in enumerate_worlds(graph))
        assert total == pytest.approx(1.0)

    @given(probabilities=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_sampled_world_is_subset_of_graph(self, probabilities):
        graph = ProbabilisticGraph()
        for i, p in enumerate(probabilities):
            graph.add_edge(i, i + 1, p)
        world = sample_world(graph, seed=0)
        for u, v, _ in world.edges():
            assert graph.has_edge(u, v)
