"""Engine-parity tests: the CSR engine must reproduce the dict oracle exactly.

The CSR engine re-implements triangle/4-clique indexing with ordered-array
merges and initialises κ-scores through the vectorized batched estimators, so
these tests pin the acceptance guarantee against the seed-era dict engine
kept in ``tests/oracle/``: identical nucleus scores, nuclei, and
weakly-global output on every seed fixture, for every support estimator.
"""

from __future__ import annotations

import random

import pytest

from repro.core.approximations import (
    BinomialEstimator,
    DynamicProgrammingEstimator,
    NormalEstimator,
    PoissonEstimator,
    TranslatedPoissonEstimator,
)
from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.hybrid import HybridEstimator
from repro.core.local import local_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.exceptions import InvalidParameterError
from repro.experiments.datasets import DATASET_NAMES
from graph_factories import bundled_graph, small_er_graph
from repro.graph.generators import clique_graph
from repro.graph.possible_worlds import sample_world
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.sampling.verification import weak_scores
from repro.sampling.monte_carlo import hoeffding_error_bound
from repro.sampling.world_matrix import CandidateWorldIndex, global_triangle_counts

import oracle
from oracle.deterministic import is_k_nucleus

ESTIMATORS = [
    DynamicProgrammingEstimator,
    HybridEstimator,
    PoissonEstimator,
    TranslatedPoissonEstimator,
    NormalEstimator,
    BinomialEstimator,
]

FIXTURE_NAMES = [
    "empty_graph",
    "single_edge_graph",
    "triangle_graph",
    "four_clique_graph",
    "five_clique_graph",
    "paper_figure1_graph",
    "paper_example1_nucleus_graph",
    "paper_example2_graph",
    "planted_graph",
    "disconnected_graph",
    "mixed_label_graph",
]


@pytest.fixture(params=FIXTURE_NAMES)
def fixture_graph(request):
    return request.getfixturevalue(request.param)


class TestLocalParity:
    @pytest.mark.parametrize("theta", [0.01, 0.3, 0.7])
    def test_scores_identical_on_seed_fixtures(self, fixture_graph, theta):
        for estimator_cls in ESTIMATORS:
            expected = oracle.local_nucleus_decomposition(
                fixture_graph, theta, estimator=estimator_cls()
            )
            actual = local_nucleus_decomposition(
                fixture_graph, theta, estimator=estimator_cls()
            )
            assert actual.scores == expected.scores, estimator_cls.__name__
            assert actual.max_score == expected.max_score

    @pytest.mark.parametrize("theta", [0.1, 0.3, 0.6])
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_exact_peel_matches_oracle_on_bundled_datasets(self, name, theta):
        graph = bundled_graph(name, scale="tiny")
        expected = oracle.local_nucleus_decomposition(graph, theta)
        assert local_nucleus_decomposition(graph, theta).scores == expected.scores

    def test_nuclei_identical(self, paper_figure1_graph):
        theta = 0.42
        expected = oracle.local_nucleus_decomposition(paper_figure1_graph, theta)
        actual = local_nucleus_decomposition(paper_figure1_graph, theta)
        for k in range(expected.max_score + 1):
            expected_groups = {n.triangles for n in expected.nuclei(k)}
            actual_groups = {n.triangles for n in actual.nuclei(k)}
            assert actual_groups == expected_groups

    def test_default_estimator_parity(self, planted_graph):
        expected = oracle.local_nucleus_decomposition(planted_graph, 0.2)
        actual = local_nucleus_decomposition(planted_graph, 0.2)
        assert actual.scores == expected.scores
        assert actual.estimator_name == expected.estimator_name == "dp"

    def test_csr_graph_input_implies_csr_backend(self, paper_figure1_graph):
        csr = paper_figure1_graph.to_csr()
        expected = oracle.local_nucleus_decomposition(paper_figure1_graph, 0.42)
        actual = local_nucleus_decomposition(csr, 0.42)
        assert actual.scores == expected.scores
        # The result graph is expanded back to dict form for post-processing.
        assert actual.graph == paper_figure1_graph

    def test_unknown_backend_rejected(self, triangle_graph):
        with pytest.raises(InvalidParameterError):
            local_nucleus_decomposition(triangle_graph, 0.5, backend="sparse")

    def test_custom_estimator_falls_back_to_scalar(self, four_clique_graph):
        class TailOverride(DynamicProgrammingEstimator):
            """A subclass unknown to the kernel registry."""

            name = "custom"

        expected = oracle.local_nucleus_decomposition(
            four_clique_graph, 0.3, estimator=TailOverride()
        )
        actual = local_nucleus_decomposition(
            four_clique_graph, 0.3, estimator=TailOverride()
        )
        assert actual.scores == expected.scores


class TestWeakParity:
    """Weak-decomposition parity against the dict oracle.

    The world-matrix engine samples its worlds from a numpy stream instead of
    the oracle's ``random.Random`` stream, so the two agree *in distribution*
    rather than draw-for-draw.
    On graphs whose edges are all certain there is only one possible world and
    the outputs must still be identical; the statistical agreement on
    probabilistic graphs is pinned by tests/test_world_matrix.py.
    """

    @pytest.mark.parametrize("k", [1, 2])
    def test_weak_nuclei_identical_on_deterministic_graph(self, k):
        graph = clique_graph(6, probability=1.0)
        expected = oracle.weak_nucleus_decomposition(
            graph, k=k, theta=0.9, n_samples=40, seed=7
        )
        actual = weak_nucleus_decomposition(
            graph, k=k, theta=0.9, n_samples=40, seed=7
        )
        assert {n.triangles for n in actual} == {n.triangles for n in expected}
        assert [n.mode for n in actual] == [n.mode for n in expected]

    def test_weak_on_certain_core_of_paper_fixture(self, paper_example1_nucleus_graph):
        # Raising every probability to 1 makes sampling irrelevant, so the
        # engine and the oracle must return exactly the same weakly-global nuclei.
        graph = ProbabilisticGraph(
            (u, v, 1.0) for u, v, _ in paper_example1_nucleus_graph.edges()
        )
        expected = oracle.weak_nucleus_decomposition(
            graph, k=1, theta=0.4, n_samples=60, seed=11
        )
        actual = weak_nucleus_decomposition(
            graph, k=1, theta=0.4, n_samples=60, seed=11
        )
        assert {n.triangles for n in actual} == {n.triangles for n in expected}
        assert actual and expected


class TestRandomizedParitySweep:
    """Seeded Erdős–Rényi sweep: the dict oracle and the CSR engine must agree.

    The local decomposition (which runs on the peel engine) is compared
    exactly; the Monte-Carlo global and weak estimates are compared within
    Hoeffding bounds, since the engine and the oracle draw their worlds from
    different (identically distributed) random streams.
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("theta", [0.05, 0.35])
    def test_local_scores_and_nuclei_exact(self, seed, theta):
        graph = small_er_graph(26, 0.28, seed=seed)
        expected = oracle.local_nucleus_decomposition(graph, theta)
        actual = local_nucleus_decomposition(graph, theta)
        assert actual.scores == expected.scores
        for k in range(expected.max_score + 1):
            expected_groups = {n.triangles for n in expected.nuclei(k)}
            actual_groups = {n.triangles for n in actual.nuclei(k)}
            assert actual_groups == expected_groups, (seed, theta, k)

    @pytest.mark.parametrize("estimator_cls", ESTIMATORS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_local_parity_on_dense_graphs_for_every_estimator(
        self, estimator_cls, seed
    ):
        # Dense 4-clique-rich instances where the peel repairs many scores:
        # the approximated tails are not monotone under clique removal (a
        # death can *raise* the Normal estimator's κ), so the engine must
        # follow the reference loop's per-clique repair schedule exactly —
        # this sweep caught a repair-coalescing regression once.
        graph = small_er_graph(14, 0.68, seed=seed, probabilities=(0.3, 1.0))
        for theta in (0.2, 0.5):
            expected = oracle.local_nucleus_decomposition(
                graph, theta, estimator=estimator_cls()
            )
            actual = local_nucleus_decomposition(
                graph, theta, estimator=estimator_cls()
            )
            assert actual.scores == expected.scores, (estimator_cls.__name__, theta)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_weak_scores_within_hoeffding(self, seed):
        graph = small_er_graph(9, 0.6, seed=seed)
        k, n_samples, delta = 1, 1500, 1e-4
        epsilon = hoeffding_error_bound(n_samples, delta)
        dict_scores = oracle.triangle_weak_scores(graph, k, n_samples, random.Random(seed))
        index = CandidateWorldIndex.from_graph(graph)
        estimates, _ = weak_scores(index, k, 1.0, n_samples, seed=seed + 1)
        matrix_scores = dict(zip(index.triangle_labels(), estimates.tolist()))
        assert set(dict_scores) == set(matrix_scores)
        for triangle, score in dict_scores.items():
            assert abs(score - matrix_scores[triangle]) <= 2 * epsilon

    @pytest.mark.parametrize("seed", [5, 17])
    def test_global_counts_within_hoeffding(self, seed):
        graph = small_er_graph(8, 0.7, seed=seed)
        k, n_samples, delta = 1, 1500, 1e-4
        epsilon = hoeffding_error_bound(n_samples, delta)

        index = CandidateWorldIndex.from_graph(graph)
        labels = index.triangle_labels()
        worlds = index.sample(n_samples, seed=seed + 1)
        matrix_estimates = dict(
            zip(labels, (global_triangle_counts(index, worlds, k) / n_samples).tolist())
        )

        rng = random.Random(seed)
        dict_counts = dict.fromkeys(labels, 0)
        for _ in range(n_samples):
            world = sample_world(graph, rng=rng)
            if not is_k_nucleus(world, k):
                continue
            for triangle in labels:
                u, v, w = triangle
                if (
                    world.has_edge(u, v)
                    and world.has_edge(u, w)
                    and world.has_edge(v, w)
                ):
                    dict_counts[triangle] += 1

        for triangle in labels:
            dict_estimate = dict_counts[triangle] / n_samples
            assert abs(matrix_estimates[triangle] - dict_estimate) <= 2 * epsilon

    @pytest.mark.parametrize("seed", [2, 7])
    def test_global_and_weak_decompositions_on_certain_er_graph(self, seed):
        # Forcing every probability to 1 collapses the sampling noise, so
        # the full Algorithm 2/3 pipelines must agree with the oracle even
        # though they route through different peel and sampling engines.
        topology = small_er_graph(12, 0.55, seed=seed)
        graph = ProbabilisticGraph((u, v, 1.0) for u, v, _ in topology.edges())
        for decomposition, reference in (
            (global_nucleus_decomposition, oracle.global_nucleus_decomposition),
            (weak_nucleus_decomposition, oracle.weak_nucleus_decomposition),
        ):
            expected = reference(graph, k=1, theta=0.9, n_samples=30, seed=seed)
            actual = decomposition(
                graph, k=1, theta=0.9, n_samples=30, seed=seed
            )
            assert {n.triangles for n in actual} == {n.triangles for n in expected}


class TestGlobalParity:
    @pytest.mark.parametrize("k", [1, 2])
    def test_global_nuclei_identical_on_deterministic_graph(self, k):
        graph = clique_graph(6, probability=1.0)
        expected = oracle.global_nucleus_decomposition(
            graph, k=k, theta=0.9, n_samples=30, seed=5
        )
        actual = global_nucleus_decomposition(
            graph, k=k, theta=0.9, n_samples=30, seed=5
        )
        assert {n.triangles for n in actual} == {n.triangles for n in expected}
        assert [n.mode for n in actual] == [n.mode for n in expected]

    def test_global_backend_validation(self, triangle_graph):
        with pytest.raises(InvalidParameterError):
            global_nucleus_decomposition(triangle_graph, k=1, theta=0.5, backend="sparse")
        with pytest.raises(InvalidParameterError):
            global_nucleus_decomposition(triangle_graph, k=1, theta=0.5, n_jobs=0)
