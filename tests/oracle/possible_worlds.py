"""Dict-engine oracle of possible-world enumeration (Equation 1).

:func:`enumerate_worlds` builds every one of the ``2^m`` possible worlds as
a :class:`~repro.graph.probabilistic_graph.ProbabilisticGraph`, one at a
time, with its probability.  The library enumerates worlds only as blocks
of world-matrix rows (:func:`repro.sampling.verification.exact_probabilities`,
:func:`repro.sampling.reliability.exact_reliability`); the tests sum the
dict predicates over this enumeration as their reference.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from repro.graph.possible_worlds import (
    MAX_ENUMERABLE_EDGES,
    _check_enumerable,
    _world_from_edges,
)
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph


def enumerate_worlds(
    graph: ProbabilisticGraph,
    max_edges: int = MAX_ENUMERABLE_EDGES,
) -> Iterator[tuple[ProbabilisticGraph, float]]:
    """Yield every possible world of ``graph`` together with its probability.

    Each world is a deterministic graph (every edge probability 1) on the
    full vertex set of ``graph``.  More than ``max_edges`` edges raise the
    library's enumeration error before any world is built.
    """
    _check_enumerable(graph.num_edges, max_edges)
    edge_list = [(u, v) for u, v, _ in graph.edges()]
    probabilities = [graph.edge_probability(u, v) for u, v in edge_list]
    for mask in itertools.product((False, True), repeat=len(edge_list)):
        probability = 1.0
        present: list[Edge] = []
        for include, edge, p in zip(mask, edge_list, probabilities):
            if include:
                probability *= p
                present.append(edge)
            else:
                probability *= 1.0 - p
        yield _world_from_edges(graph, present), probability
