"""Tests for the array-native peel engine (repro.core.peel) and its helpers.

Pins the tentpole guarantees: the bucket-queue engine produces exactly the
dict oracle's scores on every edge case (empty graph, triangle-free graph,
θ = 1, θ → 0, all-sentinel graphs), the :class:`KappaRepair` hooks plug
interchangeably into the same loop, and the shared
:class:`~repro.peeling.LazyMinHeap` implements the lazy-deletion protocol
the dict-based loops rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import batched_initial_kappas, build_triangle_extension_index
from repro.core.local import local_nucleus_decomposition
from repro.core.peel import (
    EstimatorKappaRepair,
    KappaRepair,
    MonteCarloKappaRepair,
    peel_kappa_scores,
)
from repro.core.approximations import DynamicProgrammingEstimator
from repro.core.support_dp import NO_VALID_K
from repro.deterministic.nucleus import nucleus_decomposition
from repro.exceptions import InvalidParameterError
from repro.graph.generators import clique_graph, planted_nucleus_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.peeling import LazyMinHeap

import oracle

#: The dict oracle and the production engine, keyed as the retired backends.
ENGINES = {
    "dict": oracle.local_nucleus_decomposition,
    "csr": local_nucleus_decomposition,
}


def engine_scores(graph: ProbabilisticGraph, theta: float, repair=None) -> dict:
    """Run the engine directly on the flat arrays and map scores to labels."""
    csr = graph.to_csr()
    index = build_triangle_extension_index(csr)
    estimator = DynamicProgrammingEstimator()
    kappas = batched_initial_kappas(index, theta, estimator)
    if repair is None:
        repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, theta)
    scores = peel_kappa_scores(index, kappas, repair)
    labels = csr.vertex_labels
    return {
        (labels[u], labels[v], labels[w]): score
        for (u, v, w), score in zip(index.triangles, scores.tolist())
    }


class TestLazyMinHeap:
    def test_pops_in_value_order(self):
        heap = LazyMinHeap([(3, "c"), (1, "a"), (2, "b")])
        values = {"a": 1, "b": 2, "c": 3}
        popped = []
        while (entry := heap.pop(values.get)) is not None:
            popped.append(entry)
        assert popped == [(1, "a"), (2, "b"), (3, "c")]

    def test_stale_entries_are_refreshed(self):
        heap = LazyMinHeap([(5, "x"), (2, "y")])
        values = {"x": 3, "y": 2}  # "x" decreased after insertion
        assert heap.pop(values.get) == (2, "y")
        # The stale (5, "x") entry is re-pushed with the fresh value and
        # returned once it is current.
        assert heap.pop(values.get) == (3, "x")
        assert heap.pop(values.get) is None

    def test_dead_items_are_dropped(self):
        heap = LazyMinHeap([(1, "dead"), (2, "alive")])
        current = lambda item: None if item == "dead" else 2  # noqa: E731
        assert heap.pop(current) == (2, "alive")
        assert not heap

    def test_push_during_drain(self):
        heap = LazyMinHeap([(1, "a")])
        values = {"a": 1, "b": 0}
        assert heap.pop(values.get) == (1, "a")
        heap.push(0, "b")
        assert len(heap) == 1
        assert heap.pop(values.get) == (0, "b")


class TestEngineMatchesDictBackend:
    """The bucket-queue engine reproduces the dict peel exactly."""

    @pytest.mark.parametrize("theta", [0.01, 0.3, 0.7])
    def test_fixture_scores(self, paper_figure1_graph, theta):
        expected = local_nucleus_decomposition(paper_figure1_graph, theta).scores
        assert engine_scores(paper_figure1_graph, theta) == expected

    def test_planted_scores(self, planted_graph):
        expected = local_nucleus_decomposition(planted_graph, 0.2).scores
        assert engine_scores(planted_graph, 0.2) == expected

    def test_scores_are_parallel_to_index_rows(self, four_clique_graph):
        csr = four_clique_graph.to_csr()
        index = build_triangle_extension_index(csr)
        estimator = DynamicProgrammingEstimator()
        kappas = batched_initial_kappas(index, 0.3, estimator)
        repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, 0.3)
        scores = peel_kappa_scores(index, kappas, repair)
        assert scores.shape == (len(index.triangles),)
        assert scores.dtype == np.int64

    def test_rejects_mismatched_kappas(self, four_clique_graph):
        index = build_triangle_extension_index(four_clique_graph.to_csr())
        estimator = DynamicProgrammingEstimator()
        repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, 0.3)
        with pytest.raises(InvalidParameterError):
            peel_kappa_scores(index, np.zeros(99, dtype=np.int64), repair)


class TestEdgeCases:
    """Empty, triangle-free, θ = 1, θ → 0, and all-sentinel inputs."""

    @pytest.mark.parametrize("backend", ENGINES)
    def test_empty_graph(self, empty_graph, backend):
        result = ENGINES[backend](empty_graph, 0.5)
        assert result.scores == {}
        assert result.max_score == -1

    @pytest.mark.parametrize("backend", ENGINES)
    def test_triangle_free_graph(self, backend):
        path = ProbabilisticGraph([(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)])
        result = ENGINES[backend](path, 0.2)
        assert result.scores == {}

    @pytest.mark.parametrize("backend", ENGINES)
    def test_theta_one_probabilistic_graph_is_all_sentinel(
        self, four_clique_graph, backend
    ):
        # p = 0.9 edges cannot reach θ = 1, so every triangle gets −1.
        result = ENGINES[backend](four_clique_graph, 1.0)
        assert set(result.scores.values()) == {NO_VALID_K}

    @pytest.mark.parametrize("backend", ENGINES)
    def test_theta_one_certain_graph_keeps_full_support(
        self, five_clique_graph, backend
    ):
        # All-certain edges survive θ = 1; every triangle has support 2.
        result = ENGINES[backend](five_clique_graph, 1.0)
        assert set(result.scores.values()) == {2}

    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("theta", [0.0, 1e-12])
    def test_theta_to_zero_reduces_to_deterministic_nucleusness(self, backend, theta):
        # With θ → 0 every κ equals the residual support count, so the peel
        # is exactly the deterministic nucleus decomposition.
        graph = planted_nucleus_graph(
            num_communities=2,
            community_size=5,
            intra_density=1.0,
            background_vertices=6,
            background_density=0.2,
            bridges_per_community=2,
            seed=9,
        )
        result = ENGINES[backend](graph, theta)
        assert result.scores == nucleus_decomposition(graph)

    @pytest.mark.parametrize("backend", ENGINES)
    def test_every_triangle_sentinel(self, disconnected_graph, backend):
        # Triangle probabilities are 0.9³ ≈ 0.73 and 0.8³ ≈ 0.51, both < 0.8.
        result = ENGINES[backend](disconnected_graph, 0.8)
        assert len(result.scores) == 2
        assert set(result.scores.values()) == {NO_VALID_K}
        assert result.nuclei(0) == []

    def test_backends_agree_on_all_edge_cases(self, empty_graph, disconnected_graph):
        for graph, theta in [
            (empty_graph, 0.4),
            (disconnected_graph, 0.8),
            (clique_graph(4, probability=0.5), 1.0),
            (clique_graph(6, probability=1.0), 0.0),
        ]:
            expected = oracle.local_nucleus_decomposition(graph, theta)
            actual = local_nucleus_decomposition(graph, theta)
            assert actual.scores == expected.scores


class TestKappaRepairHooks:
    def test_estimator_repair_name_follows_estimator(self):
        probs = np.asarray([0.5])
        repair = EstimatorKappaRepair(DynamicProgrammingEstimator(), probs, 0.3)
        assert repair.name == "dp"
        assert repair.recompute(0, [1.0, 1.0]) == 2
        assert repair.recompute(0, []) == 0

    def test_monte_carlo_exact_on_certain_extensions(self, five_clique_graph):
        # With all-certain edges the sampled tail is exact, so the MC hook
        # reproduces the DP scores bit for bit.
        expected = local_nucleus_decomposition(five_clique_graph, 0.5).scores
        csr = five_clique_graph.to_csr()
        index = build_triangle_extension_index(csr)
        repair = MonteCarloKappaRepair(
            index.triangle_probabilities, 0.5, n_samples=64, seed=7
        )
        assert engine_scores(five_clique_graph, 0.5, repair=repair) == expected

    def test_monte_carlo_close_to_dp_on_probabilistic_graph(self, planted_graph):
        exact = local_nucleus_decomposition(planted_graph, 0.2).scores
        csr = planted_graph.to_csr()
        index = build_triangle_extension_index(csr)
        repair = MonteCarloKappaRepair(
            index.triangle_probabilities, 0.2, n_samples=4000, seed=11
        )
        approximate = engine_scores(planted_graph, 0.2, repair=repair)
        assert set(approximate) == set(exact)
        for triangle, score in exact.items():
            assert abs(approximate[triangle] - score) <= 1

    def test_monte_carlo_validates_sample_count(self):
        with pytest.raises(InvalidParameterError):
            MonteCarloKappaRepair(np.asarray([0.5]), 0.3, n_samples=0)

    def test_custom_repair_plugs_into_the_loop(self, four_clique_graph):
        class SupportCountRepair(KappaRepair):
            """κ = number of surviving cliques — the θ→0 limit."""

            name = "support-count"

            def recompute(self, triangle, surviving_probabilities):
                return len(surviving_probabilities)

        csr = four_clique_graph.to_csr()
        index = build_triangle_extension_index(csr)
        sizes = np.diff(index.tri_clique_indptr)
        scores = peel_kappa_scores(index, sizes.astype(np.int64), SupportCountRepair())
        assert scores.tolist() == [
            nucleus_decomposition(four_clique_graph)[triangle]
            for triangle in sorted(nucleus_decomposition(four_clique_graph))
        ]
