"""Probabilistic-graph substrate: data structure, I/O, generators, possible worlds."""

from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, Vertex, canonical_edge
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.possible_worlds import expected_edge_count, sample_world, world_probability
from repro.graph.io import (
    attach_probabilities,
    attach_uniform_probabilities,
    read_edge_list,
    write_edge_list,
)
from repro.graph.generators import (
    GeneratorSpec,
    assign_jaccard_probabilities,
    beta_probability,
    clique_graph,
    collaboration_probability,
    complete_probabilistic_graph,
    confidence_probability,
    erdos_renyi_graph,
    overlapping_community_graph,
    planted_nucleus_graph,
    power_law_cluster_graph,
    uniform_probability,
)
from repro.graph.statistics import GraphStatistics, format_statistics_table, graph_statistics

__all__ = [
    "ProbabilisticGraph",
    "CSRProbabilisticGraph",
    "Vertex",
    "Edge",
    "canonical_edge",
    "expected_edge_count",
    "sample_world",
    "world_probability",
    "read_edge_list",
    "write_edge_list",
    "attach_probabilities",
    "attach_uniform_probabilities",
    "GeneratorSpec",
    "assign_jaccard_probabilities",
    "beta_probability",
    "clique_graph",
    "collaboration_probability",
    "complete_probabilistic_graph",
    "confidence_probability",
    "erdos_renyi_graph",
    "overlapping_community_graph",
    "planted_nucleus_graph",
    "power_law_cluster_graph",
    "uniform_probability",
    "GraphStatistics",
    "format_statistics_table",
    "graph_statistics",
]
