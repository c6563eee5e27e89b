"""Shared graph factories for the test-suite.

Plain functions rather than fixtures so parametrized sweeps can call them
with their own seeds.  The per-module copies these replace drifted apart in
their magic numbers; new randomized tests should build graphs through these.
The one shared assertion, :func:`assert_same_triangle_index`, lives here too.

This lives outside ``conftest.py`` because the bare module name ``conftest``
is ambiguous at import time: pytest loads ``benchmarks/conftest.py`` too,
and whichever is imported first claims the name in ``sys.modules``.
"""

from __future__ import annotations

import dataclasses
import random

from repro.graph.generators import (
    beta_probability,
    clique_graph,
    confidence_probability,
    planted_nucleus_graph,
)
from repro.graph.probabilistic_graph import ProbabilisticGraph


def small_er_graph(num_vertices=12, edge_fraction=0.5, *, seed=0, probabilities=None):
    """Seeded Erdős–Rényi test graph.

    ``probabilities=(low, high)`` draws edge probabilities uniformly from
    that interval; otherwise the generator's default model applies.
    """
    from repro.graph.generators import erdos_renyi_graph, uniform_probability

    kwargs = {}
    if probabilities is not None:
        kwargs["probability_model"] = uniform_probability(*probabilities)
    return erdos_renyi_graph(num_vertices, edge_fraction, seed=seed, **kwargs)


def bundled_graph(name="krogan", scale="tiny"):
    """One of the bundled dataset analogues (``repro.experiments.datasets``)."""
    from repro.experiments.datasets import load_dataset

    return load_dataset(name, scale=scale)


#: ``planted_nucleus_graph`` arguments of the full-size verify graphs of the
#: repo benchmark (``perfbench/inputs.py``).
PERFBENCH = {
    "perfbench-flickr": dict(
        community_sizes=[16, 13, 11, 9, 8, 7, 6, 6, 5, 5],
        background_vertices=180,
        background_density=0.04,
        bridges_per_community=5,
        seed=37,
    ),
    "perfbench-dense": dict(
        community_sizes=[9, 8, 7, 6],
        background_vertices=30,
        background_density=0.05,
        bridges_per_community=3,
        seed=3,
    ),
}


#: ``planted_nucleus_graph`` arguments of the benchmark's local-index graph
#: (``perfbench/inputs.py``'s ``planted_graph``), which no verify sweep runs.
PERFBENCH_PLANTED = dict(
    community_sizes=[9, 7, 13, 8, 20, 19, 20, 17, 11, 8, 20, 5, 17, 18, 5, 19, 13, 12, 8, 15],
    background_vertices=800,
    background_density=6 / 800,
    bridges_per_community=5,
    seed=1,
)


def perfbench_graph(name: str) -> ProbabilisticGraph:
    """A benchmark graph under the benchmark's seed-1 vertex permutation:
    a verify graph of :data:`PERFBENCH`, or ``"perfbench-planted"``."""
    base = planted_nucleus_graph(
        intra_density=0.95,
        probability_model=confidence_probability(mode=0.9, concentration=20.0),
        background_probability_model=beta_probability(alpha=1.2, beta=9.0),
        **(PERFBENCH_PLANTED if name == "perfbench-planted" else PERFBENCH[name]),
    )
    vertices = sorted(base.vertices())
    images = random.Random(1).sample(range(len(vertices)), len(vertices))
    mapping = dict(zip(vertices, images))
    graph = ProbabilisticGraph()
    for v in vertices:
        graph.add_vertex(mapping[v])
    for u, v, p in base.edges():
        graph.add_edge(mapping[u], mapping[v], p)
    return graph


def figure3a_graph() -> ProbabilisticGraph:
    """Figure 3a: the 4-clique {1, 2, 3, 5} with one 0.5-probability edge."""
    graph = ProbabilisticGraph()
    edges = [(1, 2, 1.0), (1, 3, 1.0), (1, 5, 1.0), (2, 3, 1.0), (2, 5, 1.0), (3, 5, 0.5)]
    for u, v, p in edges:
        graph.add_edge(u, v, p)
    return graph


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


#: Edge-case topologies accepted by :func:`pathological_graph`.
PATHOLOGICAL_KINDS = (
    "empty",
    "isolated_vertices",
    "single_edge",
    "triangle_free_path",
    "two_triangles_shared_edge",
    "certain_five_clique",
    "near_zero_probabilities",
)


def pathological_graph(kind: str) -> ProbabilisticGraph:
    """Named boundary-condition topologies shared across the suite."""
    graph = ProbabilisticGraph()
    if kind == "empty":
        return graph
    if kind == "isolated_vertices":
        for label in range(4):
            graph.add_vertex(label)
        return graph
    if kind == "single_edge":
        graph.add_edge(0, 1, 0.5)
        return graph
    if kind == "triangle_free_path":
        for u in range(5):
            graph.add_edge(u, u + 1, 0.9)
        return graph
    if kind == "two_triangles_shared_edge":
        for u, v, p in [(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.7), (1, 3, 0.6), (2, 3, 0.5)]:
            graph.add_edge(u, v, p)
        return graph
    if kind == "certain_five_clique":
        return clique_graph(5, probability=1.0)
    if kind == "near_zero_probabilities":
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            graph.add_edge(u, v, 1e-9)
        return graph
    raise ValueError(f"unknown pathological graph kind {kind!r}")


def assert_same_triangle_index(actual, expected, context=None) -> None:
    """Field-by-field equality (dtype, shape, bytes) of two ``CSRTriangleIndex``."""
    for field in dataclasses.fields(expected):
        got, want = getattr(actual, field.name), getattr(expected, field.name)
        assert got.dtype == want.dtype, (context, field.name, got.dtype, want.dtype)
        assert got.shape == want.shape, (context, field.name, got.shape, want.shape)
        assert got.tobytes() == want.tobytes(), (context, field.name)
