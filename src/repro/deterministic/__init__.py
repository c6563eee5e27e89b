"""Deterministic graph machinery: cliques, cores, trusses, and (3,4)-nuclei."""

from repro.deterministic.cliques import (
    FourClique,
    Triangle,
    canonical_four_clique,
    canonical_triangle,
    count_triangles,
    enumerate_four_cliques,
    enumerate_triangles,
    triangle_clique_index,
    triangle_connected_components,
    triangles_of_clique,
)
from repro.deterministic.connectivity import connected_components, is_connected, largest_component
from repro.deterministic.kcore import core_decomposition, degeneracy, k_core_subgraph
from repro.deterministic.ktruss import (
    edge_supports,
    k_truss_subgraph,
    max_truss_number,
    truss_decomposition,
)
from repro.deterministic.nucleus import (
    is_k_nucleus,
    k_nucleus_subgraphs,
    k_nucleus_triangle_groups,
    max_nucleus_number,
    nucleus_decomposition,
    triangles_to_edge_subgraph,
)

__all__ = [
    "Triangle",
    "FourClique",
    "canonical_triangle",
    "canonical_four_clique",
    "count_triangles",
    "enumerate_triangles",
    "enumerate_four_cliques",
    "triangle_clique_index",
    "triangle_connected_components",
    "triangles_of_clique",
    "connected_components",
    "is_connected",
    "largest_component",
    "core_decomposition",
    "degeneracy",
    "k_core_subgraph",
    "edge_supports",
    "k_truss_subgraph",
    "max_truss_number",
    "truss_decomposition",
    "is_k_nucleus",
    "k_nucleus_subgraphs",
    "k_nucleus_triangle_groups",
    "max_nucleus_number",
    "nucleus_decomposition",
    "triangles_to_edge_subgraph",
]
