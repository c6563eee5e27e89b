"""Tests for Monte-Carlo machinery, network reliability, and the hardness reductions.

The exact evaluator (:func:`repro.sampling.verification.exact_probabilities`) is
pinned to closed forms and to the oracle's dict predicates summed over its
``enumerate_worlds``, and it is the oracle of the decision pins: on graphs
whose triangles share one exact probability ``p``, the fixed-``n``
verification loop must decide ``p ≥ θ`` at ``θ = p ± 0.3`` in both models.
"""

from __future__ import annotations

import itertools
import random
import re

import numpy as np
import pytest
from graph_factories import figure3a_graph, small_er_graph, two_cliques_sharing_an_edge
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sampling.verification as verification
from repro.deterministic.cliques import enumerate_triangles
from repro.deterministic.connectivity import is_connected
from repro.deterministic.nucleus import k_nucleus_triangle_groups
from repro.exceptions import InvalidParameterError, VertexNotFoundError
from repro.graph.generators import clique_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.hardness.reductions import (
    global_indicator_probability,
    reduce_clique_to_weak_nucleus,
    reduce_reliability_to_global_nucleus,
    weak_indicator_probability,
)
from repro.sampling.verification import exact_probabilities, global_verify, weak_scores
from repro.sampling.monte_carlo import (
    hoeffding_error_bound,
    hoeffding_sample_size,
)
from repro.sampling.reliability import (
    binary_search_reliability,
    estimate_reliability,
    exact_reliability,
    reliability_decision,
)
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    global_membership,
    weak_membership,
    world_from_row,
)

from oracle import reliability as oracle_reliability
from oracle.deterministic import is_k_nucleus, nucleus_decomposition
from oracle.possible_worlds import enumerate_worlds


class TestHoeffding:
    def test_paper_setting(self):
        """With epsilon = delta = 0.1 the bound gives 150 samples (paper rounds to 200)."""
        assert hoeffding_sample_size(0.1, 0.1) == 150

    def test_sample_size_monotone_in_epsilon(self):
        assert hoeffding_sample_size(0.05, 0.1) > hoeffding_sample_size(0.1, 0.1)

    def test_error_bound_is_inverse_of_sample_size(self):
        n = hoeffding_sample_size(0.1, 0.1)
        assert hoeffding_error_bound(n, 0.1) <= 0.1 + 1e-9

    @pytest.mark.parametrize("epsilon,delta", [(0.0, 0.1), (0.1, 0.0), (1.5, 0.1), (0.1, 2.0)])
    def test_invalid_parameters(self, epsilon, delta):
        with pytest.raises(InvalidParameterError):
            hoeffding_sample_size(epsilon, delta)

    def test_error_bound_invalid(self):
        with pytest.raises(InvalidParameterError):
            hoeffding_error_bound(0, 0.1)


#: Lemma 2's instances: the original graphs of ``TestReliabilityReduction``.
LEMMA2_EDGES = [
    [(0, 1, 0.5)],
    [(0, 1, 0.5), (1, 2, 0.7)],
    [(0, 1, 0.5), (1, 2, 0.7), (0, 2, 0.9)],
    [(0, 1, 0.6), (1, 2, 0.6), (2, 3, 0.6), (0, 3, 0.6)],
]

#: Graphs on which the batched exact reliability is pinned to the dict loop:
#: K4–K6, seeded ER graphs (some with isolated vertices), and the Lemma 2
#: instances with their augmented graphs.
RELIABILITY_GRAPHS = {
    **{
        f"K{size}-{p}": (lambda size=size, p=p: clique_graph(size, probability=p))
        for size in (4, 5, 6)
        for p in (0.5, 0.9)
    },
    **{
        f"er-{seed}": (lambda seed=seed: small_er_graph(7, 0.55, seed=seed))
        for seed in range(6)
    },
    **{
        f"lemma2-{i}": (lambda edges=edges: ProbabilisticGraph(edges))
        for i, edges in enumerate(LEMMA2_EDGES)
    },
    **{
        f"lemma2-{i}-augmented": (
            lambda edges=edges: reduce_reliability_to_global_nucleus(
                ProbabilisticGraph(edges), anchor=0
            ).graph
        )
        for i, edges in enumerate(LEMMA2_EDGES)
    },
}


class TestReliability:
    def test_single_certain_edge(self):
        graph = ProbabilisticGraph([(0, 1, 1.0)])
        assert exact_reliability(graph) == pytest.approx(1.0)

    def test_single_uncertain_edge(self):
        graph = ProbabilisticGraph([(0, 1, 0.3)])
        assert exact_reliability(graph) == pytest.approx(0.3)

    def test_triangle_reliability_closed_form(self):
        """A triangle with edge probability p is connected iff at least two edges exist."""
        p = 0.6
        graph = ProbabilisticGraph([(0, 1, p), (1, 2, p), (0, 2, p)])
        expected = p ** 3 + 3 * p * p * (1 - p)
        assert exact_reliability(graph) == pytest.approx(expected)

    def test_disconnected_graph_reliability_zero(self, disconnected_graph):
        assert exact_reliability(disconnected_graph) == 0.0

    def test_empty_graph(self, empty_graph):
        assert exact_reliability(empty_graph) == 0.0

    @pytest.mark.parametrize("name", sorted(RELIABILITY_GRAPHS))
    def test_batched_worlds_equal_the_dict_loop(self, name):
        graph = RELIABILITY_GRAPHS[name]()
        expected = oracle_reliability.exact_reliability(graph)
        assert abs(exact_reliability(graph) - expected) <= 1e-12

    def test_single_vertex_and_isolated_vertex(self):
        single = ProbabilisticGraph()
        single.add_vertex("x")
        assert exact_reliability(single) == 1.0
        isolated = ProbabilisticGraph([(0, 1, 0.5), (1, 2, 0.5)])
        isolated.add_vertex(7)
        assert exact_reliability(isolated) == 0.0
        for graph in (single, isolated):
            assert oracle_reliability.exact_reliability(graph) == exact_reliability(graph)

    def test_too_many_edges_are_refused_before_any_world(self, monkeypatch):
        graph = clique_graph(7, probability=0.9)  # 21 edges
        monkeypatch.setattr(
            CandidateWorldIndex, "from_graph", lambda *args: pytest.fail("compiled the graph")
        )
        with pytest.raises(InvalidParameterError, match=re.escape("2**21 possible worlds")):
            exact_reliability(graph)
        assert exact_reliability(ProbabilisticGraph()) == 0.0  # no edges to refuse

    def test_estimate_close_to_exact(self):
        p = 0.5
        graph = ProbabilisticGraph([(0, 1, p), (1, 2, p), (0, 2, p)])
        estimate = estimate_reliability(graph, n_samples=4000, seed=3)
        assert abs(float(estimate) - exact_reliability(graph)) < 0.05

    @pytest.mark.parametrize("name", ["K5-0.5", "er-3", "lemma2-3-augmented"])
    def test_estimate_counts_the_connected_sampled_worlds(self, name, monkeypatch):
        # The same worlds, materialized one by one and tested by the dict
        # connectivity check; one-world blocks move neither the estimate
        # nor the stream.
        graph = RELIABILITY_GRAPHS[name]()
        index = CandidateWorldIndex.from_graph(graph)
        worlds = index.sample(300, seed=5)
        connected = sum(is_connected(world_from_row(index, row)) for row in worlds)
        estimate = estimate_reliability(graph, n_samples=300, seed=5)
        assert float(estimate) == connected / 300
        assert estimate.n_samples == 300
        assert estimate.epsilon == hoeffding_error_bound(300, 0.1)
        monkeypatch.setattr(verification, "WORLD_BLOCK_BYTES", 1)
        assert estimate_reliability(graph, n_samples=300, seed=5) == estimate

    def test_estimate_takes_a_random_generator_and_the_hoeffding_budget(self):
        graph = clique_graph(4, probability=0.5)
        first = estimate_reliability(graph, epsilon=0.2, delta=0.2, rng=random.Random(4))
        again = estimate_reliability(graph, epsilon=0.2, delta=0.2, rng=random.Random(4))
        assert first == again
        assert first.n_samples == hoeffding_sample_size(0.2, 0.2)

    def test_estimate_of_no_vertex_one_vertex_and_an_isolated_vertex(self):
        single = ProbabilisticGraph()
        single.add_vertex("x")
        isolated = ProbabilisticGraph([(0, 1, 1.0)])
        isolated.add_vertex(7)
        assert estimate_reliability(ProbabilisticGraph(), n_samples=5, seed=0) == 0.0
        assert estimate_reliability(single, n_samples=5, seed=0) == 1.0
        assert estimate_reliability(isolated, n_samples=5, seed=0) == 0.0

    def test_decision_version(self):
        graph = ProbabilisticGraph([(0, 1, 0.3)])
        assert reliability_decision(graph, 0.2)
        assert not reliability_decision(graph, 0.5)
        with pytest.raises(InvalidParameterError):
            reliability_decision(graph, 1.5)

    def test_binary_search_recovers_reliability(self):
        graph = ProbabilisticGraph([(0, 1, 0.3), (1, 2, 0.8), (0, 2, 0.5)])
        exact = exact_reliability(graph)
        recovered = binary_search_reliability(lambda theta: exact >= theta, precision=1e-9)
        assert recovered == pytest.approx(exact, abs=1e-6)

    def test_binary_search_invalid_precision(self):
        with pytest.raises(InvalidParameterError):
            binary_search_reliability(lambda theta: True, precision=0.0)


#: Sample counts that are not positive integers, and the error they raise.
BAD_SAMPLE_COUNTS = [True, 2.5, "3"]
BAD_COUNT = "n_samples must be a positive integer"


class TestMonteCarloKnobValidation:
    """Every Monte-Carlo helper rejects a bad knob with an error naming it."""

    @pytest.mark.parametrize("n_samples", BAD_SAMPLE_COUNTS, ids=repr)
    def test_estimate_reliability_names_n_samples(self, triangle_graph, n_samples):
        with pytest.raises(InvalidParameterError, match=BAD_COUNT):
            estimate_reliability(triangle_graph, n_samples=n_samples, seed=0)

    @pytest.mark.parametrize("n_samples", BAD_SAMPLE_COUNTS, ids=repr)
    def test_hoeffding_error_bound_names_n_samples(self, n_samples):
        with pytest.raises(InvalidParameterError, match=BAD_COUNT):
            hoeffding_error_bound(n_samples, 0.1)

    @pytest.mark.parametrize("delta", ["0.1", None, True], ids=repr)
    def test_hoeffding_error_bound_names_delta(self, delta):
        with pytest.raises(InvalidParameterError, match="delta must be a finite number"):
            hoeffding_error_bound(10, delta)

    @pytest.mark.parametrize("precision", [float("nan"), float("inf"), "1e-6", True], ids=repr)
    def test_binary_search_names_precision(self, precision):
        with pytest.raises(InvalidParameterError, match="precision must be a finite number"):
            binary_search_reliability(lambda theta: True, precision=precision)

    @pytest.mark.parametrize("n_samples", [np.int64(3), np.int32(3), np.uint8(3)], ids=repr)
    def test_numpy_sample_counts_still_run(self, n_samples):
        certain = ProbabilisticGraph([(0, 1, 1.0), (1, 2, 1.0)])
        estimate = estimate_reliability(certain, n_samples=n_samples, seed=0)
        assert float(estimate) == 1.0
        assert type(estimate.n_samples) is int and estimate.n_samples == 3
        assert hoeffding_error_bound(n_samples, 0.1) == hoeffding_error_bound(3, 0.1)


class TestReliabilityReduction:
    """Lemma 2: Pr(X_{F,tri,g} >= 0) equals the reliability of the original graph."""

    def test_gadget_structure(self, triangle_graph):
        reduction = reduce_reliability_to_global_nucleus(triangle_graph, anchor=0)
        assert reduction.anchor == 0
        u, w = reduction.dummies
        assert reduction.graph.edge_probability(u, w) == 1.0
        assert reduction.graph.edge_probability(u, 0) == 1.0
        assert reduction.graph.num_edges == triangle_graph.num_edges + 3

    def test_unknown_anchor_rejected(self, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            reduce_reliability_to_global_nucleus(triangle_graph, anchor=99)

    def test_empty_graph_rejected(self, empty_graph):
        with pytest.raises(InvalidParameterError):
            reduce_reliability_to_global_nucleus(empty_graph)

    @pytest.mark.parametrize("edges", LEMMA2_EDGES)
    def test_correspondence_with_connectivity_indicator(self, edges):
        """Lemma 2 with connectivity as the k = 0 nucleus: the gadget's triangle is
        certain, so a world of the augmented graph contains it and is connected
        exactly when the original world is connected."""
        graph = ProbabilisticGraph(edges)
        reduction = reduce_reliability_to_global_nucleus(graph, anchor=0)
        assert exact_reliability(reduction.graph) == pytest.approx(
            exact_reliability(graph), abs=1e-12
        )

    def test_decision_reduction(self):
        graph = ProbabilisticGraph([(0, 1, 0.5), (1, 2, 0.7), (0, 2, 0.9)])
        reduction = reduce_reliability_to_global_nucleus(graph, anchor=0)
        reliability = exact_reliability(graph)
        probability = exact_reliability(reduction.graph)
        for theta in (reliability - 0.05, reliability + 0.05):
            assert (probability >= theta) == (reliability >= theta)


class TestCliqueReduction:
    """Theorem 4.2: G has a (k+3)-clique iff the reduced graph has a w-(k, θ)-nucleus."""

    def test_parameters(self):
        graph = clique_graph(4)
        reduction = reduce_clique_to_weak_nucleus(graph, clique_size=4)
        m = graph.num_edges
        assert reduction.k == 1
        assert reduction.edge_probability == pytest.approx(1.0 / 2 ** (2 * m + 1))
        assert reduction.theta == pytest.approx(reduction.edge_probability ** 6)

    def test_too_small_clique_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            reduce_clique_to_weak_nucleus(clique_graph(4), clique_size=3)

    def test_positive_instance(self):
        """A graph containing a 4-clique: some triangle reaches the weak threshold."""
        graph = clique_graph(4)
        graph.add_edge(0, 9, 1.0)
        reduction = reduce_clique_to_weak_nucleus(graph, clique_size=4)
        probability = weak_indicator_probability(reduction.graph, (0, 1, 2), reduction.k)
        assert probability >= reduction.theta

    def test_negative_instance(self):
        """A triangle-free-of-4-cliques graph: no triangle reaches the weak threshold."""
        graph = ProbabilisticGraph(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0)]
        )
        reduction = reduce_clique_to_weak_nucleus(graph, clique_size=4)
        for triangle in [(0, 1, 2), (2, 3, 4)]:
            probability = weak_indicator_probability(reduction.graph, triangle, reduction.k)
            assert probability < reduction.theta


#: The two models: their membership matrix and their indicator function.
MODELS = {
    "global": (global_membership, global_indicator_probability),
    "weak": (weak_membership, weak_indicator_probability),
}

#: name: (graph, k, the global and the weak probability every triangle
#: shares, tolerance).  The K5 and K6 values at k = 1 are rounded to six
#: decimals; the others are closed forms.
EXACT_PINS = {
    "K4-p0.8-k1": (lambda: clique_graph(4, probability=0.8), 1, 0.8**6, 0.8**6, 1e-15),
    "K5-p0.9-k2": (lambda: clique_graph(5, probability=0.9), 2, 0.9**10, 0.9**10, 1e-15),
    "figure3a-k1": (figure3a_graph, 1, 0.5, 0.5, 1e-15),
    "two-cliques-k1": (two_cliques_sharing_an_edge, 1, 0.5**11, 0.5**6, 1e-15),
    "K5-p0.9-k1": (lambda: clique_graph(5, probability=0.9), 1, 0.619979, 0.675462, 5e-7),
    "K6-p0.9-k1": (lambda: clique_graph(6, probability=0.9), 1, 0.676437, 0.714491, 5e-7),
}


def _contains(world: ProbabilisticGraph, triangle) -> bool:
    return all(world.has_edge(u, v) for u, v in itertools.combinations(triangle, 2))


def dict_probabilities(graph: ProbabilisticGraph, k: int) -> dict[str, dict]:
    """The reference: each model's dict predicate of the oracle summed over
    the oracle's ``enumerate_worlds``."""
    triangles = list(enumerate_triangles(graph))
    sums = {model: dict.fromkeys(triangles, 0.0) for model in MODELS}
    for world, probability in enumerate_worlds(graph):
        nucleus = is_k_nucleus(world, k)
        nucleusness = nucleus_decomposition(world)
        members = set().union(*k_nucleus_triangle_groups(world, k, nucleusness))
        for triangle in triangles:
            if nucleus and _contains(world, triangle):
                sums["global"][triangle] += probability
            if triangle in members:
                sums["weak"][triangle] += probability
    return sums


class TestExactEvaluator:
    """Closed forms, the dict sum over every world, and the indicator functions."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("name", EXACT_PINS)
    def test_pinned_probability_of_every_triangle(self, name, model):
        make_graph, k, global_pin, weak_pin, tolerance = EXACT_PINS[name]
        index = CandidateWorldIndex.from_graph(make_graph())
        probabilities = exact_probabilities(MODELS[model][0], index, k).tolist()
        pin = global_pin if model == "global" else weak_pin
        assert probabilities == pytest.approx([pin] * index.num_triangles, abs=tolerance)

    @pytest.mark.parametrize(
        "name", [name for name, pin in EXACT_PINS.items() if pin[0]().num_edges <= 11]
    )
    def test_equals_the_dict_sum_over_every_world(self, name):
        make_graph, k = EXACT_PINS[name][:2]
        graph = make_graph()
        index = CandidateWorldIndex.from_graph(graph)
        for model, reference in dict_probabilities(graph, k).items():
            membership, indicator = MODELS[model]
            probabilities = exact_probabilities(membership, index, k)
            expected = [reference[t] for t in index.triangle_labels()]
            assert probabilities.tolist() == pytest.approx(expected, abs=1e-12), model
            for triangle, probability in reference.items():
                assert indicator(graph, triangle, k) == pytest.approx(probability, abs=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_every_vertex_order_names_the_same_triangle(self, model):
        graph = clique_graph(4, probability=0.8)
        indicator = MODELS[model][1]
        values = {indicator(graph, order, 1) for order in itertools.permutations((0, 1, 2))}
        assert len(values) == 1
        assert values.pop() == pytest.approx(0.8**6, abs=1e-15)

    @pytest.mark.parametrize("k", [0, 1])
    def test_weak_model_on_the_mixed_label_lemma2_gadget(self, k):
        # Ints and tuple labels: the gadget's triangle lies in no 4-clique.
        graph = ProbabilisticGraph([(0, 1, 0.5), (1, 2, 0.7), (0, 2, 0.9)])
        gadget = reduce_reliability_to_global_nucleus(graph, anchor=0).graph
        reference = dict_probabilities(gadget, k)["weak"]
        assert len(reference) == 2
        for triangle, expected in reference.items():
            assert weak_indicator_probability(gadget, triangle, k) == expected == 0.0

    @pytest.mark.parametrize("model", MODELS)
    def test_too_many_edges_raise_like_enumerate_worlds(self, model):
        graph = clique_graph(5, probability=0.9)
        with pytest.raises(InvalidParameterError) as refused:
            next(enumerate_worlds(graph, max_edges=9))
        message = re.escape(str(refused.value))
        with pytest.raises(InvalidParameterError, match=message):
            MODELS[model][1](graph, (0, 1, 2), 1, max_edges=9)

        def membership(*_):
            raise AssertionError("a world was built")

        index = CandidateWorldIndex.from_graph(graph)
        with pytest.raises(InvalidParameterError, match=message):
            exact_probabilities(membership, index, 1, max_edges=9)

    @pytest.mark.parametrize("model", MODELS)
    def test_a_triangle_not_in_the_graph_has_probability_zero(self, model):
        graph = clique_graph(4, probability=0.8)
        graph.add_edge(0, 9, 0.8)
        indicator = MODELS[model][1]
        assert indicator(graph, (0, 1, 9), 1) == 0.0
        assert indicator(graph, (0, 1, 7), 1) == 0.0


class TestDecisionPins:
    """The verification loop decides ``p ≥ θ`` at a margin of 3ε.

    At ε = 0.1 the margin is 0.3, so by Hoeffding a wrong decision has
    probability below 2·e⁻²⁷ per triangle at n = 150 worlds.  Every listed
    graph gives all its triangles one p, so a candidate's decision is each
    triangle's.
    """

    @pytest.mark.parametrize("name", EXACT_PINS)
    def test_decisions_follow_the_exact_probability(self, name):
        make_graph, k, global_pin, weak_pin, _ = EXACT_PINS[name]
        index = CandidateWorldIndex.from_graph(make_graph())
        for model, p in (("global", global_pin), ("weak", weak_pin)):
            for theta in (p + 0.3, p - 0.3):
                if not 0.0 <= theta <= 1.0:
                    continue
                for seed in range(20):
                    if model == "global":
                        decisions = [global_verify(index, k, theta, 150, seed=seed)]
                    else:
                        decisions = weak_scores(index, k, theta, 150, seed=seed)[1].tolist()
                    assert set(decisions) == {p >= theta}, (model, theta, seed)


class TestMonteCarloProperties:
    @given(p=st.floats(0.1, 0.9), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_reliability_estimate_within_hoeffding_band(self, p, seed):
        graph = ProbabilisticGraph([(0, 1, p), (1, 2, p), (0, 2, p)])
        n = 500
        estimate = estimate_reliability(graph, n_samples=n, seed=seed)
        # With delta = 0.001 the band is wide; violations would indicate bias.
        epsilon = hoeffding_error_bound(n, 0.001)
        assert abs(float(estimate) - exact_reliability(graph)) <= epsilon
