"""Tests for the local probabilistic nucleus decomposition (Algorithm 1).

Includes brute-force verification of the κ-score definition against explicit
possible-world enumeration, the paper's worked examples, peeling invariants,
and property-based checks on random graphs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximations import DynamicProgrammingEstimator
from repro.core.hybrid import HybridEstimator
from repro.core.local import local_nucleus_decomposition
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.core.support_dp import NO_VALID_K
from repro.deterministic.cliques import enumerate_triangles
from repro.exceptions import InvalidParameterError
from graph_factories import bundled_graph, small_er_graph
from repro.experiments.datasets import DATASET_NAMES
from repro.graph.generators import clique_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index.builders import build_local_index, local_result_from_index
from oracle.deterministic import (
    four_cliques_containing_triangle,
    nucleus_decomposition,
    triangle_supports,
)
from oracle.local import (
    canonical_nuclei,
    clique_extension_probability,
    triangle_existence_probability,
)
from oracle.possible_worlds import enumerate_worlds


def brute_force_initial_kappa(graph: ProbabilisticGraph, triangle, theta: float) -> int:
    """Exact maximum k with Pr(X_{G,tri,local} >= k) >= theta via world enumeration."""
    u, v, w = triangle
    best = NO_VALID_K
    support_values = []
    for world, probability in enumerate_worlds(graph):
        if not (world.has_edge(u, v) and world.has_edge(u, w) and world.has_edge(v, w)):
            support_values.append((None, probability))
            continue
        support = len(world.common_neighbors(u, v, w))
        support_values.append((support, probability))
    max_support = max((s for s, _ in support_values if s is not None), default=0)
    for k in range(0, max_support + 1):
        tail = sum(p for s, p in support_values if s is not None and s >= k)
        if tail >= theta:
            best = k
    return best


class TestProbabilityHelpers:
    def test_triangle_existence_probability(self, triangle_graph):
        assert triangle_existence_probability(triangle_graph, (0, 1, 2)) == pytest.approx(
            0.9 * 0.8 * 0.7
        )

    def test_clique_extension_probability(self, four_clique_graph):
        probability = clique_extension_probability(four_clique_graph, (0, 1, 2), (0, 1, 2, 3))
        assert probability == pytest.approx(0.9 ** 3)

    def test_clique_extension_requires_containment(self, four_clique_graph):
        with pytest.raises(InvalidParameterError):
            clique_extension_probability(four_clique_graph, (0, 1, 2), (0, 1, 98, 99))


class TestPaperExamples:
    def test_example1_local_nucleus(self, paper_example1_nucleus_graph):
        """Example 1: the 4-clique {1,2,3,5} is an ℓ-(1, 0.42)-nucleus."""
        result = local_nucleus_decomposition(paper_example1_nucleus_graph, theta=0.42)
        assert result.max_score == 1
        assert set(result.scores.values()) == {1}
        nuclei = result.nuclei(1)
        assert len(nuclei) == 1
        assert set(nuclei[0].subgraph.vertices()) == {1, 2, 3, 5}

    def test_example1_higher_threshold_drops_nucleus(self, paper_example1_nucleus_graph):
        """At theta > 0.5 the 4-clique through the 0.5-edge no longer qualifies for k=1."""
        result = local_nucleus_decomposition(paper_example1_nucleus_graph, theta=0.6)
        assert result.max_score <= 0

    def test_example2_local_scores(self, paper_example2_graph):
        """Example 2 (Figure 3c): every triangle has at least two 4-cliques with
        probability above 0.01, so the graph is an ℓ-(2, 0.01)-nucleus."""
        result = local_nucleus_decomposition(paper_example2_graph, theta=0.01)
        assert result.max_score == 2
        nuclei = result.nuclei(2)
        assert len(nuclei) == 1
        assert set(nuclei[0].subgraph.vertices()) == {1, 2, 3, 4, 5}

    def test_figure1_graph_theta_042(self, paper_figure1_graph):
        """On the full Figure 1 graph the triangles of the {1,2,3,5} 4-clique
        keep nucleus score 1 at theta = 0.42."""
        result = local_nucleus_decomposition(paper_figure1_graph, theta=0.42)
        assert result.scores[(1, 2, 3)] >= 1
        assert result.scores[(1, 2, 5)] >= 1
        vertices = set()
        for nucleus in result.nuclei(1):
            vertices |= set(nucleus.subgraph.vertices())
        assert {1, 2, 3, 5} <= vertices


class TestInitialScores:
    """The initial κ of every triangle matches exhaustive possible-world enumeration."""

    @pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, 0.9])
    def test_four_clique(self, four_clique_graph, theta):
        for triangle in enumerate_triangles(four_clique_graph):
            expected = brute_force_initial_kappa(four_clique_graph, triangle, theta)
            probability = triangle_existence_probability(four_clique_graph, triangle)
            cliques = four_cliques_containing_triangle(four_clique_graph, triangle)
            profile = [
                clique_extension_probability(four_clique_graph, triangle, c) for c in cliques
            ]
            actual = DynamicProgrammingEstimator().max_k(probability, profile, theta)
            assert actual == expected

    @pytest.mark.parametrize("theta", [0.05, 0.2, 0.5])
    def test_random_small_graph(self, theta):
        graph = small_er_graph(7, 0.7, seed=3)
        if graph.num_edges > 20:
            graph = graph.subgraph(list(graph.vertices())[:6])
        for triangle in enumerate_triangles(graph):
            expected = brute_force_initial_kappa(graph, triangle, theta)
            probability = triangle_existence_probability(graph, triangle)
            cliques = four_cliques_containing_triangle(graph, triangle)
            profile = [clique_extension_probability(graph, triangle, c) for c in cliques]
            actual = DynamicProgrammingEstimator().max_k(probability, profile, theta)
            assert actual == expected


class TestDecompositionBehaviour:
    def test_invalid_theta_rejected(self, four_clique_graph):
        with pytest.raises(InvalidParameterError):
            local_nucleus_decomposition(four_clique_graph, theta=1.2)

    def test_empty_graph(self, empty_graph):
        result = local_nucleus_decomposition(empty_graph, theta=0.5)
        assert result.scores == {}
        assert result.max_score == -1
        assert result.all_nuclei() == {}
        assert result.max_nucleus() == []

    def test_triangle_free_graph(self):
        graph = ProbabilisticGraph([(0, 1, 0.9), (1, 2, 0.9)])
        result = local_nucleus_decomposition(graph, theta=0.5)
        assert result.scores == {}

    def test_every_triangle_receives_a_score(self, planted_graph):
        result = local_nucleus_decomposition(planted_graph, theta=0.2)
        triangles = set(enumerate_triangles(planted_graph))
        assert set(result.scores) == triangles

    def test_scores_never_exceed_deterministic_nucleusness(self, planted_graph):
        """Probabilistic nucleus scores are bounded by the deterministic ones
        (setting all probabilities to 1 can only help)."""
        result = local_nucleus_decomposition(planted_graph, theta=0.2)
        deterministic = nucleus_decomposition(planted_graph)
        for triangle, score in result.scores.items():
            assert score <= deterministic[triangle]

    def test_theta_zero_matches_deterministic(self, planted_graph):
        """At theta = 0 every possible world qualifies, so the decomposition
        coincides with the deterministic nucleus decomposition."""
        result = local_nucleus_decomposition(planted_graph, theta=0.0)
        deterministic = nucleus_decomposition(planted_graph)
        assert result.scores == deterministic

    def test_scores_monotone_in_theta(self, planted_graph):
        low = local_nucleus_decomposition(planted_graph, theta=0.1)
        high = local_nucleus_decomposition(planted_graph, theta=0.6)
        for triangle in low.scores:
            assert high.scores[triangle] <= low.scores[triangle]

    def test_low_probability_triangles_get_sentinel(self):
        graph = clique_graph(4, probability=0.3)
        result = local_nucleus_decomposition(graph, theta=0.9)
        assert set(result.scores.values()) == {NO_VALID_K}
        assert result.nuclei(0) == []

    def test_deterministic_clique_matches_closed_form(self):
        for n in range(4, 8):
            graph = clique_graph(n, probability=1.0)
            result = local_nucleus_decomposition(graph, theta=0.99)
            assert set(result.scores.values()) == {n - 3}

    def test_estimator_name_recorded(self, four_clique_graph):
        dp = local_nucleus_decomposition(four_clique_graph, 0.3)
        ap = local_nucleus_decomposition(four_clique_graph, 0.3, estimator=HybridEstimator())
        assert dp.estimator_name == "dp"
        assert ap.estimator_name == "hybrid"
        assert ap.estimator_selections  # the hybrid recorded its choices

    def test_repr(self, four_clique_graph):
        result = local_nucleus_decomposition(four_clique_graph, 0.3)
        assert "LocalNucleusDecomposition" in repr(result)
        nuclei = result.nuclei(result.max_score)
        assert "ProbabilisticNucleus" in repr(nuclei[0])


class TestNucleiExtraction:
    def test_nuclei_are_nested_across_k(self, planted_graph):
        """Every (k+1)-nucleus is contained in some k-nucleus (hierarchy property)."""
        result = local_nucleus_decomposition(planted_graph, theta=0.1)
        for k in range(0, max(result.max_score, 0)):
            lower = result.nuclei(k)
            higher = result.nuclei(k + 1)
            for high in higher:
                assert any(high.triangles <= low.triangles for low in lower)

    def test_all_nuclei_keys(self, planted_graph):
        result = local_nucleus_decomposition(planted_graph, theta=0.1)
        nuclei_by_k = result.all_nuclei()
        assert set(nuclei_by_k) == set(range(0, result.max_score + 1))

    def test_score_histogram_totals(self, planted_graph):
        result = local_nucleus_decomposition(planted_graph, theta=0.2)
        histogram = result.score_histogram()
        assert sum(histogram.values()) == result.num_triangles

    def test_triangles_with_score_at_least(self, planted_graph):
        result = local_nucleus_decomposition(planted_graph, theta=0.2)
        top = result.triangles_with_score_at_least(result.max_score)
        assert top and all(result.scores[t] == result.max_score for t in top)

    def test_negative_k_rejected(self, planted_graph):
        result = local_nucleus_decomposition(planted_graph, theta=0.2)
        with pytest.raises(InvalidParameterError):
            result.nuclei(-1)

    def test_nucleus_objects_carry_metadata(self, planted_graph):
        result = local_nucleus_decomposition(planted_graph, theta=0.2)
        for nucleus in result.nuclei(1):
            assert isinstance(nucleus, ProbabilisticNucleus)
            assert nucleus.mode == "local"
            assert nucleus.k == 1
            assert nucleus.theta == 0.2
            assert nucleus.num_vertices == nucleus.subgraph.num_vertices
            assert nucleus.num_edges == nucleus.subgraph.num_edges

    def test_nucleus_triangles_meet_threshold_condition(self, planted_graph):
        """Definition 5: every triangle of an ℓ-(k, θ)-nucleus satisfies
        Pr(X >= k) >= θ *within the nucleus subgraph*."""
        theta = 0.2
        result = local_nucleus_decomposition(planted_graph, theta=theta)
        k = result.max_score
        for nucleus in result.nuclei(k):
            sub = nucleus.subgraph
            for triangle in nucleus.triangles:
                probability = triangle_existence_probability(sub, triangle)
                cliques = four_cliques_containing_triangle(sub, triangle)
                profile = [
                    clique_extension_probability(sub, triangle, c) for c in cliques
                ]
                kappa = DynamicProgrammingEstimator().max_k(probability, profile, theta)
                assert kappa >= k


def _listing(nuclei) -> list[tuple]:
    """Each nucleus as (its triangles, its subgraph's vertices and edges in
    insertion order)."""
    return [
        (n.triangles, list(n.subgraph.vertices()), list(n.subgraph.edges())) for n in nuclei
    ]


def _mixed(graph: ProbabilisticGraph) -> ProbabilisticGraph:
    """``graph`` with its odd vertices relabelled to strings."""
    label = {v: f"v{v}" if v % 2 else v for v in graph.vertices()}
    return ProbabilisticGraph((label[u], label[v], p) for u, v, p in graph.edges())


def _local_result(kind: str, graph: ProbabilisticGraph, theta: float):
    """A local result of ``graph``: fresh (with the peel's engine index), or one
    that compiles its engine index from its graph on first use."""
    if kind == "fresh":
        return local_nucleus_decomposition(graph, theta)
    if kind == "from-index":
        return local_result_from_index(build_local_index(graph, theta))
    if kind == "hand-built":
        scores = dict(local_nucleus_decomposition(graph, theta).scores)
        return LocalNucleusDecomposition(graph, theta, scores, "dp")
    if kind == "csr-input":
        return local_nucleus_decomposition(graph.to_csr(), theta)
    # Scores that omit every third triangle and name one the graph lacks, with
    # a score above every real one.
    scores = dict(list(local_nucleus_decomposition(graph, theta).scores.items())[::3])
    scores[("x", "y", "z")] = max(scores.values()) + 2
    return LocalNucleusDecomposition(graph, theta, scores, "dp")


class TestArrayGrouping:
    """``nuclei(k)`` groups on the engine arrays; the oracle groups in dict space.

    The oracle (:func:`oracle.local.canonical_nuclei`) lists the
    :func:`~repro.deterministic.nucleus.k_nucleus_triangle_groups` sets by
    smallest triangle row, each subgraph's edges in CSR-id order, so the two
    must agree nucleus for nucleus, down to the insertion order of every
    subgraph.
    """

    KINDS = ("fresh", "from-index", "hand-built", "csr-input", "partial-scores")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", DATASET_NAMES + ("krogan-mixed",))
    def test_nuclei_are_the_dict_groups(self, name, kind):
        if name == "krogan-mixed":
            graph = _mixed(bundled_graph("krogan"))
        else:
            graph = bundled_graph(name)
        result = _local_result(kind, graph, 0.1)
        every = result.all_nuclei()
        assert sorted(every) == list(range(result.max_score + 1))
        for k in range(result.max_score + 2):
            expected = [
                (triangles, list(sub.vertices()), list(sub.edges()))
                for triangles, sub in canonical_nuclei(graph, k, result.scores)
            ]
            nuclei = result.nuclei(k)
            assert _listing(nuclei) == expected, k
            assert all(
                (n.k, n.theta, n.mode) == (k, 0.1, "local") for n in nuclei
            )
            if k in every:
                assert _listing(every[k]) == expected, k
        assert _listing(result.max_nucleus()) == _listing(result.nuclei(result.max_score))
        if kind == "partial-scores":
            assert result.nuclei(result.max_score) == []
        else:
            assert result.max_nucleus()

    def test_no_scored_triangle_gives_no_nuclei(self):
        result = LocalNucleusDecomposition(clique_graph(5, probability=0.9), 0.3, {}, "dp")
        assert result.max_nucleus() == [] and result.all_nuclei() == {}
        assert result.nuclei(0) == []

    def test_nuclei_do_not_depend_on_the_hash_seed(self):
        # String labels make the dict grouping's set order follow the hash
        # seed; the array grouping's list, triangle sets and subgraphs must
        # come out identical in every process.
        script = textwrap.dedent(
            """
            import hashlib
            from repro.core.local import local_nucleus_decomposition
            from repro.experiments.datasets import load_dataset
            from repro.graph.probabilistic_graph import ProbabilisticGraph

            dblp = load_dataset("dblp", scale="tiny")
            graph = ProbabilisticGraph((f"v{u}", f"v{v}", p) for u, v, p in dblp.edges())
            result = local_nucleus_decomposition(graph, 0.1)
            for k in range(result.max_score + 1):
                listing = [
                    (sorted(n.triangles), list(n.subgraph.vertices()), list(n.subgraph.edges()))
                    for n in result.nuclei(k)
                ]
                print(k, len(listing), hashlib.sha256(repr(listing).encode()).hexdigest())
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout.splitlines())
        assert max(int(line.split()[1]) for line in outputs[0]) >= 3
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestPropertyBased:
    @given(seed=st.integers(0, 50), theta=st.floats(0.05, 0.8))
    @settings(max_examples=20, deadline=None)
    def test_scores_bounded_by_support(self, seed, theta):
        graph = small_er_graph(12, 0.5, seed=seed)
        result = local_nucleus_decomposition(graph, theta)
        supports = triangle_supports(graph)
        for triangle, score in result.scores.items():
            assert NO_VALID_K <= score <= supports[triangle]

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_dp_and_hybrid_close_on_random_graphs(self, seed):
        graph = small_er_graph(12, 0.5, seed=seed)
        dp = local_nucleus_decomposition(graph, 0.3)
        ap = local_nucleus_decomposition(graph, 0.3, estimator=HybridEstimator())
        for triangle in dp.scores:
            assert abs(dp.scores[triangle] - ap.scores[triangle]) <= 1
