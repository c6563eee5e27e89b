"""Possible-world semantics for probabilistic graphs.

A *possible world* of a probabilistic graph ``G = (V, E, p)`` is a
deterministic graph on the same vertex set containing a subset of the edges.
Its probability is the product over present edges of ``p(e)`` times the
product over absent edges of ``1 - p(e)`` (Equation 1 of the paper).

This module provides:

* :func:`world_probability` — the probability of a specific world,
* :func:`sample_world` — one world drawn by an independent coin per edge,
* :func:`expected_edge_count` — the expected number of edges.

A world is a :class:`~repro.graph.probabilistic_graph.ProbabilisticGraph`
whose edges all have probability 1, so the deterministic algorithms in
:mod:`repro.deterministic` can consume it directly.  The decompositions and
the exact evaluators do not build worlds one at a time: they sample and
enumerate them as rows of a boolean world matrix (:mod:`repro.sampling`),
refusing to enumerate more than :data:`MAX_ENUMERABLE_EDGES` edges by
default.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from repro.exceptions import InvalidParameterError
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, canonical_edge

__all__ = [
    "world_probability",
    "sample_world",
    "expected_edge_count",
    "MAX_ENUMERABLE_EDGES",
]

#: Enumeration of possible worlds is refused above this many edges because the
#: number of worlds is ``2**num_edges``.
MAX_ENUMERABLE_EDGES = 25


def world_probability(graph: ProbabilisticGraph, present_edges: Iterable[Edge]) -> float:
    """Return the probability of the possible world containing exactly ``present_edges``.

    Implements Equation 1 of the paper.  Edges listed in ``present_edges``
    must exist in ``graph``; the remaining edges of ``graph`` are treated as
    absent.

    Parameters
    ----------
    graph:
        The probabilistic graph.
    present_edges:
        The edges that exist in the world (any iterable of ``(u, v)`` pairs).
    """
    present = {canonical_edge(u, v) for u, v in present_edges}
    probability = 1.0
    for u, v, p in graph.edges():
        if (u, v) in present:
            probability *= p
        else:
            probability *= 1.0 - p
    return probability


def _world_from_edges(graph: ProbabilisticGraph, edges: Iterable[Edge]) -> ProbabilisticGraph:
    world = ProbabilisticGraph()
    for v in graph.vertices():
        world.add_vertex(v)
    for u, v in edges:
        world.add_edge(u, v, 1.0)
    return world


def _check_enumerable(num_edges: int, max_edges: int) -> None:
    """Refuse to enumerate the ``2**num_edges`` worlds of more than ``max_edges`` edges."""
    if num_edges > max_edges:
        raise InvalidParameterError(
            f"refusing to enumerate 2**{num_edges} possible worlds "
            f"(limit is 2**{max_edges}); use sampling instead"
        )


def sample_world(
    graph: ProbabilisticGraph,
    rng: random.Random | None = None,
    seed: int | None = None,
) -> ProbabilisticGraph:
    """Sample one possible world by flipping an independent coin per edge.

    Parameters
    ----------
    graph:
        The probabilistic graph to sample from.
    rng:
        Optional :class:`random.Random` instance.  Takes precedence over
        ``seed``.
    seed:
        Optional seed used to create a fresh RNG when ``rng`` is not given.
    """
    if rng is None:
        rng = random.Random(seed)
    present = [(u, v) for u, v, p in graph.edges() if rng.random() < p]
    return _world_from_edges(graph, present)


def expected_edge_count(graph: ProbabilisticGraph) -> float:
    """Return the expected number of edges across possible worlds."""
    return sum(p for _, _, p in graph.edges())
