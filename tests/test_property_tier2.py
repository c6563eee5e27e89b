"""Tier-2 property tests: CSR graph invariants and peel-engine invariants.

Hypothesis generates arbitrary small probabilistic graphs (not just the
seeded ER topologies of the tier-1 suite) and checks structural invariants
that must hold for *every* input:

* the CSR compilation round-trips the edge set losslessly (edge arrays,
  degree sums) and agrees with a brute-force triangle enumeration;
* the exact-DP peel's ν-scores are bounded by 4-clique support, flag
  exactly the sub-θ triangles with ``-1``, and are monotone non-increasing
  in θ;
* a random single-edge update maintained incrementally is bit-identical to
  rebuilding the index from scratch (the differential-parity property, in
  miniature — the wide chained-batch version lives in
  ``tests/test_incremental_sweep.py``).

Run explicitly with ``pytest -m tier2``; the default marker expression
(``-m "not tier2"``, see ``pyproject.toml``) keeps these out of tier 1.
On failure hypothesis prints the falsifying example and a ``@reproduce_failure``
/ ``@seed`` line — paste it onto the failing test to replay locally.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.approximations import DynamicProgrammingEstimator
from repro.core.local import local_nucleus_decomposition
from repro.deterministic.cliques import (
    four_cliques_containing_triangle,
    triangle_arrays_csr,
)
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index import EdgeUpdate, apply_updates, build_local_index

pytestmark = pytest.mark.tier2

COMMON_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def probabilistic_graphs(draw, min_vertices=3, max_vertices=9):
    """An arbitrary small probabilistic graph (any topology, any weights)."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    probabilities = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    graph = ProbabilisticGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
    for (u, v), p in zip(chosen, probabilities):
        graph.add_edge(u, v, p)
    return graph


def _edge_table(graph) -> dict:
    return {frozenset((u, v)): p for u, v, p in graph.edges()}


# --------------------------------------------------------------------------- #
# CSR graph invariants
# --------------------------------------------------------------------------- #
class TestCSRInvariants:
    @settings(max_examples=80, **COMMON_SETTINGS)
    @given(graph=probabilistic_graphs())
    def test_edge_arrays_round_trip(self, graph):
        """to_csr() preserves the edge set, weights and vertex set exactly."""
        csr = graph.to_csr()
        edge_u, edge_v, edge_prob = csr.undirected_edge_arrays()
        expected = _edge_table(graph)
        assert edge_u.shape == edge_v.shape == edge_prob.shape
        assert edge_u.size == len(expected) == graph.num_edges
        labels = csr.vertex_labels
        rebuilt = {
            frozenset((labels[i], labels[j])): p
            for i, j, p in zip(edge_u.tolist(), edge_v.tolist(), edge_prob.tolist())
        }
        assert rebuilt == expected
        assert set(csr.to_probabilistic().vertices()) == set(graph.vertices())

    @settings(max_examples=80, **COMMON_SETTINGS)
    @given(graph=probabilistic_graphs())
    def test_degree_sums(self, graph):
        """indptr encodes exactly the undirected degrees; they sum to 2|E|."""
        csr = graph.to_csr()
        degrees = np.diff(csr.indptr)
        assert int(degrees.sum()) == 2 * graph.num_edges
        by_vertex = {label: 0 for label in graph.vertices()}
        for u, v, _ in graph.edges():
            by_vertex[u] += 1
            by_vertex[v] += 1
        for i, label in enumerate(csr.vertex_labels):
            assert int(degrees[i]) == by_vertex[label]

    @settings(max_examples=60, **COMMON_SETTINGS)
    @given(graph=probabilistic_graphs())
    def test_triangle_count_matches_brute_force(self, graph):
        csr = graph.to_csr()
        edges = set(_edge_table(graph))
        brute = sum(
            1
            for a, b, c in itertools.combinations(sorted(graph.vertices()), 3)
            if {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))} <= edges
        )
        assert all(ids.size == brute for ids in triangle_arrays_csr(csr))


# --------------------------------------------------------------------------- #
# peel-engine invariants (exact DP oracle)
# --------------------------------------------------------------------------- #
class TestPeelInvariants:
    @settings(max_examples=30, **COMMON_SETTINGS)
    @given(graph=probabilistic_graphs(max_vertices=8), theta=st.floats(0.01, 0.9))
    def test_scores_bounded_by_support_and_theta(self, graph, theta):
        """-1 flags exactly the sub-θ triangles; κ never exceeds 4-clique support."""
        result = local_nucleus_decomposition(
            graph, theta, estimator=DynamicProgrammingEstimator()
        )
        edges = _edge_table(graph)
        for triangle, score in result.scores.items():
            a, b, c = triangle
            probability = (
                edges[frozenset((a, b))]
                * edges[frozenset((a, c))]
                * edges[frozenset((b, c))]
            )
            support = len(four_cliques_containing_triangle(graph, triangle))
            if probability < theta:
                assert score == -1, (triangle, probability, theta)
            else:
                assert 0 <= score <= support, (triangle, score, support)

    @settings(max_examples=25, **COMMON_SETTINGS)
    @given(
        graph=probabilistic_graphs(max_vertices=8),
        thetas=st.tuples(st.floats(0.01, 0.9), st.floats(0.01, 0.9)),
    )
    def test_scores_monotone_in_theta(self, graph, thetas):
        """Raising θ can only lower a triangle's ν-score (exact oracle)."""
        low, high = sorted(thetas)
        loose = local_nucleus_decomposition(
            graph, low, estimator=DynamicProgrammingEstimator()
        )
        strict = local_nucleus_decomposition(
            graph, high, estimator=DynamicProgrammingEstimator()
        )
        assert set(loose.scores) == set(strict.scores)
        for triangle, score in strict.scores.items():
            assert score <= loose.scores[triangle], (triangle, low, high)


# --------------------------------------------------------------------------- #
# differential parity of a random single-edge update
# --------------------------------------------------------------------------- #
class TestIncrementalProperty:
    @settings(max_examples=30, **COMMON_SETTINGS)
    @given(
        graph=probabilistic_graphs(min_vertices=4, max_vertices=8),
        choice=st.integers(0, 2**30),
        probability=st.floats(0.05, 1.0, allow_nan=False),
    )
    def test_single_update_matches_rebuild(self, graph, choice, probability):
        edges = {tuple(sorted((u, v))): p for u, v, p in graph.edges()}
        labels = sorted(graph.vertices())
        all_pairs = list(itertools.combinations(labels, 2))
        missing = [pair for pair in all_pairs if pair not in edges]
        ops = ["change", "delete"] + (["insert"] if missing else [])
        op = ops[choice % len(ops)]
        if op == "insert":
            u, v = missing[choice % len(missing)]
            update = EdgeUpdate("insert", u, v, probability)
            edges[(u, v)] = probability
        else:
            u, v = list(edges)[choice % len(edges)]
            if op == "delete":
                update = EdgeUpdate("delete", u, v)
                del edges[(u, v)]
            else:
                update = EdgeUpdate("change", u, v, probability)
                edges[(u, v)] = probability

        index = build_local_index(graph, 0.05)
        updated = apply_updates(index, [update])

        reference_graph = ProbabilisticGraph([(u, v, p) for (u, v), p in edges.items()])
        for label in labels:
            reference_graph.add_vertex(label)
        rebuilt = build_local_index(reference_graph, 0.05)

        assert updated.fingerprint == rebuilt.fingerprint, update
        for name, want in rebuilt.arrays.items():
            assert updated.arrays[name].tobytes() == want.tobytes(), (name, update)
        assert updated.revision == 1
