"""Possible-world semantics for probabilistic graphs.

A *possible world* of a probabilistic graph ``G = (V, E, p)`` is a
deterministic graph on the same vertex set containing a subset of the edges.
Its probability is the product over present edges of ``p(e)`` times the
product over absent edges of ``1 - p(e)`` (Equation 1 of the paper).

This module provides:

* :func:`world_probability` — the probability of a specific world,
* :func:`enumerate_worlds` — exhaustive enumeration (exponential; only for
  small graphs, used by tests and by the exact baselines that the hardness
  section reasons about),
* :func:`sample_world` / :func:`sample_worlds` — Monte-Carlo sampling used by
  the global and weakly-global algorithms,
* :func:`expected_edge_count` — the expected number of edges.

Worlds are represented as :class:`~repro.graph.probabilistic_graph.ProbabilisticGraph`
instances whose edges all have probability 1, so the deterministic algorithms
in :mod:`repro.deterministic` can consume them directly.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator

from repro.exceptions import InvalidParameterError, _require_positive_int
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, canonical_edge

__all__ = [
    "world_probability",
    "enumerate_worlds",
    "sample_world",
    "sample_worlds",
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


def enumerate_worlds(
    graph: ProbabilisticGraph,
    max_edges: int = MAX_ENUMERABLE_EDGES,
) -> Iterator[tuple[ProbabilisticGraph, float]]:
    """Yield every possible world of ``graph`` together with its probability.

    The number of worlds is ``2**graph.num_edges``; enumeration is refused
    when the graph has more than ``max_edges`` edges.

    Yields
    ------
    (world, probability):
        ``world`` is a deterministic :class:`ProbabilisticGraph` (all edge
        probabilities equal to 1) on the full vertex set of ``graph``.
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


def sample_worlds(
    graph: ProbabilisticGraph,
    n_samples: int,
    rng: random.Random | None = None,
    seed: int | None = None,
) -> list[ProbabilisticGraph]:
    """Sample ``n_samples`` independent possible worlds.

    Raises
    ------
    InvalidParameterError
        If ``n_samples`` is not a positive integer (numpy integers pass).
    """
    n_samples = _require_positive_int("n_samples", n_samples)
    if rng is None:
        rng = random.Random(seed)
    return [sample_world(graph, rng=rng) for _ in range(n_samples)]


def expected_edge_count(graph: ProbabilisticGraph) -> float:
    """Return the expected number of edges across possible worlds."""
    return sum(p for _, _, p in graph.edges())
