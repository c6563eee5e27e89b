"""Dict-engine oracle of network reliability (Definition 6).

The seed-era exact evaluator: every one of the ``2^m`` possible worlds is
built as a :class:`~repro.graph.probabilistic_graph.ProbabilisticGraph` by
:func:`oracle.possible_worlds.enumerate_worlds` and tested with
:func:`~repro.deterministic.connectivity.is_connected`.  The batched
evaluator :func:`repro.sampling.reliability.exact_reliability` is pinned to
it.
"""

from __future__ import annotations

from oracle.possible_worlds import enumerate_worlds
from repro.deterministic.connectivity import is_connected
from repro.graph.probabilistic_graph import ProbabilisticGraph


def exact_reliability(graph: ProbabilisticGraph, max_edges: int = 20) -> float:
    """Sum the probabilities of the connected worlds, one dict world at a time.

    The empty graph has reliability 0; more than ``max_edges`` edges are
    refused before any world is built.
    """
    if graph.num_vertices == 0:
        return 0.0
    total = 0.0
    for world, probability in enumerate_worlds(graph, max_edges=max_edges):
        if is_connected(world):
            total += probability
    return min(1.0, total)
