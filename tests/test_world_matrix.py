"""Tests for the vectorized possible-world sampling engine.

Three layers of guarantees:

1. **Exact verification parity** — for any boolean world-matrix row, the
   batched predicates agree with the dict-backed reference predicates
   (:func:`is_k_nucleus`, :func:`k_nucleus_triangle_groups`) on the
   materialized world, world by world.
2. **Statistical sampling parity** — the dict sampler and the matrix sampler
   draw from the same distribution, so their per-triangle probability
   estimates agree within the Hoeffding bound (and, on graphs small enough
   to enumerate, with the exact probability).
3. **Sharding invariance** — ``n_jobs > 1`` returns results bit-identical to
   ``n_jobs = 1`` for a fixed seed, because the matrix is sampled before it
   is split.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.weak_nucleus import (
    triangle_weak_scores_matrix,
    weak_nucleus_decomposition,
)
from repro.deterministic.cliques import triangle_clique_index
from repro.deterministic.nucleus import is_k_nucleus, k_nucleus_triangle_groups
from repro.exceptions import InvalidParameterError
from repro.graph.generators import clique_graph, planted_nucleus_graph
from repro.graph.possible_worlds import enumerate_worlds, sample_world
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.sampling.monte_carlo import hoeffding_error_bound
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    WorldShardPool,
    as_numpy_generator,
    global_triangle_counts,
    nucleus_world_mask,
    sample_world_matrix,
    weak_membership_counts,
    world_from_row,
)

import oracle


def figure3a_graph() -> ProbabilisticGraph:
    """Figure 3a: the 4-clique {1, 2, 3, 5} with one 0.5-probability edge."""
    graph = ProbabilisticGraph()
    edges = [(1, 2, 1.0), (1, 3, 1.0), (1, 5, 1.0), (2, 3, 1.0), (2, 5, 1.0), (3, 5, 0.5)]
    for u, v, p in edges:
        graph.add_edge(u, v, p)
    return graph


@pytest.fixture
def paper_example1_graph() -> ProbabilisticGraph:
    return figure3a_graph()


def two_cliques_sharing_an_edge() -> ProbabilisticGraph:
    """4-cliques {0, 1, 2, 3} and {2, 3, 4, 5}: 11 edges, one shared.

    Every edge is covered and every triangle supported, but the cliques
    share no triangle, so the full world is not 4-clique-connected.
    """
    graph = ProbabilisticGraph()
    for clique in ((0, 1, 2, 3), (2, 3, 4, 5)):
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v, 0.5)
    return graph


def all_worlds(num_edges: int) -> np.ndarray:
    """Every possible world of ``num_edges`` edges, one per row (2^m rows)."""
    codes = np.arange(2**num_edges)[:, None]
    return (codes >> np.arange(num_edges)) & 1 == 1


def small_planted() -> ProbabilisticGraph:
    return planted_nucleus_graph(
        num_communities=2,
        community_size=5,
        intra_density=1.0,
        background_vertices=6,
        background_density=0.2,
        bridges_per_community=2,
        seed=9,
    )


class TestSampleWorldMatrix:
    def test_shape_and_dtype(self, four_clique_graph):
        index = CandidateWorldIndex.from_graph(four_clique_graph)
        worlds = index.sample(50, seed=0)
        assert worlds.shape == (50, index.num_edges)
        assert worlds.dtype == np.bool_

    def test_marginals_match_edge_probabilities(self):
        graph = ProbabilisticGraph([("a", "b", 0.9), ("b", "c", 0.5), ("a", "c", 0.1)])
        index = CandidateWorldIndex.from_graph(graph)
        worlds = sample_world_matrix(index.edge_probabilities, 4000, seed=3)
        frequencies = worlds.mean(axis=0)
        epsilon = hoeffding_error_bound(4000, delta=0.01)
        for frequency, probability in zip(frequencies, index.edge_probabilities):
            assert abs(frequency - probability) <= epsilon

    def test_certain_edges_always_present(self):
        graph = ProbabilisticGraph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 0.5)])
        index = CandidateWorldIndex.from_graph(graph)
        worlds = index.sample(64, seed=1)
        certain_columns = np.flatnonzero(index.edge_probabilities == 1.0)
        assert certain_columns.size == 2
        assert worlds[:, certain_columns].all()

    def test_rejects_non_positive_world_count(self, four_clique_graph):
        index = CandidateWorldIndex.from_graph(four_clique_graph)
        with pytest.raises(InvalidParameterError):
            index.sample(0)

    def test_generator_conversions(self):
        assert isinstance(as_numpy_generator(seed=3), np.random.Generator)
        generator = np.random.default_rng(5)
        assert as_numpy_generator(generator) is generator
        # A seeded random.Random converts deterministically.
        first = as_numpy_generator(random.Random(11)).random()
        second = as_numpy_generator(random.Random(11)).random()
        assert first == second
        with pytest.raises(InvalidParameterError):
            as_numpy_generator(rng="not an rng")


class TestCandidateWorldIndex:
    def test_structure_counts_match_dict_enumeration(self):
        graph = small_planted()
        index = CandidateWorldIndex.from_graph(graph)
        by_triangle, by_clique = triangle_clique_index(graph)
        assert index.num_triangles == len(by_triangle)
        assert index.num_cliques == len(by_clique)
        assert set(index.triangle_labels()) == set(by_triangle)

    def test_triangle_edges_are_consistent(self, five_clique_graph):
        index = CandidateWorldIndex.from_graph(five_clique_graph)
        for row, (u, v, w) in zip(index.triangle_edges, index.triangles):
            endpoints = {
                (int(index.edge_u[column]), int(index.edge_v[column])) for column in row
            }
            assert endpoints == {(int(u), int(v)), (int(u), int(w)), (int(v), int(w))}

    def test_world_from_row_round_trip(self, four_clique_graph):
        index = CandidateWorldIndex.from_graph(four_clique_graph)
        worlds = index.sample(10, seed=2)
        for i in range(10):
            world = world_from_row(index, worlds[i])
            assert world.num_edges == int(worlds[i].sum())
            assert set(world.vertices()) == set(four_clique_graph.vertices())

    def test_triangle_free_graph_has_empty_index(self):
        graph = ProbabilisticGraph([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
        index = CandidateWorldIndex.from_graph(graph)
        assert index.num_triangles == 0 and index.num_cliques == 0
        worlds = index.sample(8, seed=0)
        assert not nucleus_world_mask(index, worlds, 1).any()
        assert weak_membership_counts(index, worlds, 1).size == 0


class TestExactVerificationParity:
    """The batched predicates agree with the dict predicates world-by-world."""

    @pytest.mark.parametrize(
        "graph_builder,k",
        [
            (lambda: clique_graph(4, probability=0.8), 1),
            (lambda: clique_graph(5, probability=0.7), 2),
            (lambda: clique_graph(6, probability=0.6), 1),
            (small_planted, 1),
        ],
    )
    def test_nucleus_mask_matches_is_k_nucleus(self, graph_builder, k):
        index = CandidateWorldIndex.from_graph(graph_builder())
        worlds = index.sample(150, seed=13)
        mask = nucleus_world_mask(index, worlds, k)
        for i in range(worlds.shape[0]):
            world = world_from_row(index, worlds[i])
            assert bool(mask[i]) == is_k_nucleus(world, k), f"world {i}"

    @pytest.mark.parametrize(
        "graph_builder,k",
        [
            (lambda: clique_graph(5, probability=0.7), 1),
            (lambda: clique_graph(5, probability=0.7), 2),
            (small_planted, 1),
        ],
    )
    def test_weak_membership_matches_triangle_groups(self, graph_builder, k):
        index = CandidateWorldIndex.from_graph(graph_builder())
        worlds = index.sample(120, seed=17)
        labels = index.triangle_labels()
        counts = np.zeros(index.num_triangles, dtype=np.int64)
        for i in range(worlds.shape[0]):
            world = world_from_row(index, worlds[i])
            groups = k_nucleus_triangle_groups(world, k)
            for group in groups:
                for triangle in group:
                    counts[labels.index(triangle)] += 1
        batched = weak_membership_counts(index, worlds, k)
        assert batched.tolist() == counts.tolist()

    @pytest.mark.parametrize(
        "graph_builder",
        [
            lambda: clique_graph(4, probability=0.5),
            lambda: clique_graph(5, probability=0.5),
            figure3a_graph,
            two_cliques_sharing_an_edge,
        ],
        ids=["K4", "K5", "figure3a", "two-cliques-one-edge"],
    )
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_every_possible_world(self, graph_builder, k):
        index = CandidateWorldIndex.from_graph(graph_builder())
        assert index.num_edges <= 11
        worlds = all_worlds(index.num_edges)
        position = {triangle: t for t, triangle in enumerate(index.triangle_labels())}
        mask = nucleus_world_mask(index, worlds, k)
        members = np.zeros((worlds.shape[0], index.num_triangles), dtype=np.int64)
        for i in range(worlds.shape[0]):
            world = world_from_row(index, worlds[i])
            assert bool(mask[i]) == is_k_nucleus(world, k), f"world {i}"
            for group in k_nucleus_triangle_groups(world, k):
                members[i, [position[t] for t in group]] = 1
            row = worlds[i : i + 1]
            assert weak_membership_counts(index, row, k).tolist() == members[i].tolist()
        batched = weak_membership_counts(index, worlds, k)
        assert batched.tolist() == members.sum(axis=0).tolist()

    def test_counts_threshold_reproduces_dict_decision(self, paper_example1_graph):
        index = CandidateWorldIndex.from_graph(paper_example1_graph)
        worlds = index.sample(400, seed=3)
        counts = global_triangle_counts(index, worlds, 1)
        # The only nucleus world is the full clique (probability 0.5), so
        # every triangle's estimate must clear θ = 0.42 comfortably.
        assert np.all(counts / 400 >= 0.42)


def _contains_triangle(world: ProbabilisticGraph, triangle) -> bool:
    u, v, w = triangle
    return world.has_edge(u, v) and world.has_edge(u, w) and world.has_edge(v, w)


class TestStatisticalParity:
    """Dict sampling and matrix sampling agree within the Hoeffding bound."""

    def test_global_estimates_within_hoeffding_of_exact(self):
        graph = clique_graph(4, probability=0.8)
        k, n_samples, delta = 1, 2000, 0.01
        epsilon = hoeffding_error_bound(n_samples, delta)

        index = CandidateWorldIndex.from_graph(graph)
        labels = index.triangle_labels()

        # Exact per-triangle probability by exhaustive world enumeration.
        exact = dict.fromkeys(labels, 0.0)
        for world, probability in enumerate_worlds(graph):
            if not is_k_nucleus(world, k):
                continue
            for triangle in labels:
                if _contains_triangle(world, triangle):
                    exact[triangle] += probability

        # Matrix estimate.
        worlds = index.sample(n_samples, seed=29)
        matrix_estimates = dict(
            zip(labels, (global_triangle_counts(index, worlds, k) / n_samples).tolist())
        )

        # Dict estimate with the reference one-world-at-a-time sampler.
        rng = random.Random(31)
        dict_counts = dict.fromkeys(labels, 0)
        for _ in range(n_samples):
            world = sample_world(graph, rng=rng)
            if not is_k_nucleus(world, k):
                continue
            for triangle in labels:
                if _contains_triangle(world, triangle):
                    dict_counts[triangle] += 1

        for triangle in labels:
            dict_estimate = dict_counts[triangle] / n_samples
            assert abs(matrix_estimates[triangle] - exact[triangle]) <= epsilon
            assert abs(dict_estimate - exact[triangle]) <= epsilon
            assert abs(matrix_estimates[triangle] - dict_estimate) <= 2 * epsilon

    def test_weak_scores_within_hoeffding(self):
        graph = clique_graph(5, probability=0.7)
        k, n_samples, delta = 1, 1500, 0.01
        epsilon = hoeffding_error_bound(n_samples, delta)
        dict_scores = oracle.triangle_weak_scores(graph, k, n_samples, random.Random(23))
        matrix_scores = triangle_weak_scores_matrix(graph, k, n_samples, seed=37)
        assert set(dict_scores) == set(matrix_scores)
        for triangle, score in dict_scores.items():
            assert abs(score - matrix_scores[triangle]) <= 2 * epsilon


class TestSharding:
    def test_global_n_jobs_identical_to_serial(self):
        graph = small_planted()
        kwargs = dict(k=1, theta=0.1, n_samples=120, seed=5)
        serial = global_nucleus_decomposition(graph, **kwargs, n_jobs=1)
        sharded = global_nucleus_decomposition(graph, **kwargs, n_jobs=2)
        assert [n.triangles for n in serial] == [n.triangles for n in sharded]

    def test_weak_n_jobs_identical_to_serial(self):
        graph = small_planted()
        kwargs = dict(k=1, theta=0.1, n_samples=120, seed=5)
        serial = weak_nucleus_decomposition(graph, **kwargs, n_jobs=1)
        sharded = weak_nucleus_decomposition(graph, **kwargs, n_jobs=3)
        assert [n.triangles for n in serial] == [n.triangles for n in sharded]

    def test_pool_counts_match_serial_counts(self):
        index = CandidateWorldIndex.from_graph(clique_graph(5, probability=0.7))
        worlds = index.sample(90, seed=41)
        serial = global_triangle_counts(index, worlds, 1)
        with WorldShardPool(2) as pool:
            sharded = global_triangle_counts(index, worlds, 1, pool=pool)
            weak_serial = weak_membership_counts(index, worlds, 1)
            weak_sharded = weak_membership_counts(index, worlds, 1, pool=pool)
        assert serial.tolist() == sharded.tolist()
        assert weak_serial.tolist() == weak_sharded.tolist()

    def test_invalid_n_jobs(self):
        with pytest.raises(InvalidParameterError):
            WorldShardPool(0)


class TestBackendEndToEnd:
    def test_paper_example1_global_nucleus_csr_backend(self, paper_example1_graph):
        nuclei = global_nucleus_decomposition(
            paper_example1_graph, k=1, theta=0.42, n_samples=400, seed=3
        )
        assert len(nuclei) == 1
        assert set(nuclei[0].subgraph.vertices()) == {1, 2, 3, 5}
        assert nuclei[0].mode == "global"

    def test_numpy_generator_accepted_by_dict_backend(self, five_clique_graph):
        # A numpy Generator is converted to the dict oracle's random.Random.
        nuclei = oracle.global_nucleus_decomposition(
            five_clique_graph,
            k=2,
            theta=0.9,
            n_samples=30,
            rng=np.random.default_rng(8),
        )
        assert len(nuclei) == 1

    def test_random_random_accepted_by_csr_backend(self, five_clique_graph):
        nuclei = weak_nucleus_decomposition(
            five_clique_graph,
            k=2,
            theta=0.9,
            n_samples=30,
            rng=random.Random(4),
        )
        assert len(nuclei) == 1
