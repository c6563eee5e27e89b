"""Shared fixtures for the test-suite.

The fixtures provide the small, hand-analysable graphs used throughout the
tests, including the running example of the paper (Figure 1) whose nucleus
structure is worked out in the paper's Examples 1 and 2.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import settings as hypothesis_settings

from repro.graph.generators import clique_graph, planted_nucleus_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph

# The tier-2 CI job selects this profile (--hypothesis-profile=ci) so a
# failing property test prints its @reproduce_failure blob — paste the blob
# onto the test to replay the exact falsifying example locally.
hypothesis_settings.register_profile("ci", print_blob=True)


@pytest.fixture
def empty_graph() -> ProbabilisticGraph:
    """A graph with no vertices and no edges."""
    return ProbabilisticGraph()


@pytest.fixture
def single_edge_graph() -> ProbabilisticGraph:
    """Two vertices joined by one edge of probability 0.5."""
    graph = ProbabilisticGraph()
    graph.add_edge("a", "b", 0.5)
    return graph


@pytest.fixture
def triangle_graph() -> ProbabilisticGraph:
    """A single triangle with heterogeneous probabilities."""
    graph = ProbabilisticGraph()
    graph.add_edge(0, 1, 0.9)
    graph.add_edge(1, 2, 0.8)
    graph.add_edge(0, 2, 0.7)
    return graph


@pytest.fixture
def four_clique_graph() -> ProbabilisticGraph:
    """A 4-clique whose edges all have probability 0.9."""
    return clique_graph(4, probability=0.9)


@pytest.fixture
def five_clique_graph() -> ProbabilisticGraph:
    """A deterministic 5-clique (all probabilities 1)."""
    return clique_graph(5, probability=1.0)


@pytest.fixture
def paper_figure1_graph() -> ProbabilisticGraph:
    """The probabilistic graph of Figure 1a of the paper.

    Vertices 1–7.  Edge probabilities are read off the figure: the 4-clique
    on {1, 2, 3, 5} has five certain edges and edge (3, 5) with probability
    0.5; the 4-clique on {1, 2, 3, 4} adds edges (3, 4) with 0.6, (2, 4) with
    0.7 and a certain edge (1, 4); the fringe vertices 6 and 7 hang off the
    core with probabilities 0.8 and 1.0 / 0.8.
    """
    graph = ProbabilisticGraph()
    edges = [
        (1, 2, 1.0),
        (1, 3, 1.0),
        (1, 5, 1.0),
        (2, 3, 1.0),
        (2, 5, 1.0),
        (3, 5, 0.5),
        (1, 4, 1.0),
        (2, 4, 0.7),
        (3, 4, 0.6),
        (4, 6, 0.8),
        (3, 6, 0.8),
        (1, 7, 0.8),
    ]
    for u, v, p in edges:
        graph.add_edge(u, v, p)
    return graph


@pytest.fixture
def paper_example1_nucleus_graph() -> ProbabilisticGraph:
    """The ℓ-(1, 0.42)-nucleus of Example 1 (Figure 2a): the 4-clique {1, 2, 3, 5}."""
    graph = ProbabilisticGraph()
    edges = [
        (1, 2, 1.0),
        (1, 3, 1.0),
        (1, 5, 1.0),
        (2, 3, 1.0),
        (2, 5, 1.0),
        (3, 5, 0.5),
    ]
    for u, v, p in edges:
        graph.add_edge(u, v, p)
    return graph


@pytest.fixture
def paper_example2_graph() -> ProbabilisticGraph:
    """The graph of Example 2 (Figure 3c): a 5-clique whose edges all have probability 0.6.

    Every triangle lies in exactly two 4-cliques with probability
    0.216³ ≈ 0.0101 ≥ 0.01, so the graph is an ℓ-(2, 0.01)-nucleus, but the
    only possible world that is a deterministic 2-nucleus is the complete
    clique, whose probability 0.6¹⁰ ≈ 0.006 falls below 0.01 — hence it is
    not a w-(2, 0.01)-nucleus.
    """
    graph = ProbabilisticGraph()
    import itertools

    for u, v in itertools.combinations([1, 2, 3, 4, 5], 2):
        graph.add_edge(u, v, 0.6)
    return graph


@pytest.fixture
def planted_graph() -> ProbabilisticGraph:
    """A small planted-community graph with known dense structure."""
    return planted_nucleus_graph(
        num_communities=3,
        community_size=6,
        intra_density=1.0,
        background_vertices=12,
        background_density=0.1,
        bridges_per_community=2,
        seed=42,
    )


@pytest.fixture
def disconnected_graph() -> ProbabilisticGraph:
    """Two disjoint triangles."""
    graph = ProbabilisticGraph()
    graph.add_edge(0, 1, 0.9)
    graph.add_edge(1, 2, 0.9)
    graph.add_edge(0, 2, 0.9)
    graph.add_edge(10, 11, 0.8)
    graph.add_edge(11, 12, 0.8)
    graph.add_edge(10, 12, 0.8)
    return graph


@pytest.fixture
def mixed_label_graph() -> ProbabilisticGraph:
    """K5 over the vertices 0, 1, 2, "a" and "b", whose labels do not compare.

    The edges at "b" have probability 0.7, the others 0.9, so the peel meets
    both tied and distinct κ-scores.
    """
    graph = ProbabilisticGraph()
    for u, v in itertools.combinations([0, 1, 2, "a", "b"], 2):
        graph.add_edge(u, v, 0.7 if "b" in (u, v) else 0.9)
    return graph


from graph_factories import (  # noqa: E402 (re-export for REPL convenience)
    PATHOLOGICAL_KINDS,
    bundled_graph,
    pathological_graph,
    small_er_graph,
)

# Re-exported so fixtures and ad-hoc REPL sessions can reach the shared
# builders through the conftest they already know; test modules import them
# from ``graph_factories`` directly (the module name ``conftest`` is claimed
# by whichever conftest.py pytest loads first when benchmarks/ is also on
# the path).
__all__ = [
    "PATHOLOGICAL_KINDS",
    "bundled_graph",
    "pathological_graph",
    "small_er_graph",
]
