"""Network reliability of probabilistic graphs.

The reliability of a probabilistic graph is the probability that a sampled
possible world is connected (Definition 6 of the paper, after Valiant).  The
paper uses the #P-hardness of (the decision version of) reliability to prove
that the global nucleus decomposition is #P-hard, via the reduction of
Lemma 2.

This module provides an exact evaluator (world enumeration; exponential, for
small graphs and tests) and a Monte-Carlo estimator, plus the binary-search
argument of Lemma 1 expressed as a reusable helper.  Both walk the world
matrix in row blocks, like
:func:`~repro.sampling.verification.exact_probabilities`: the evaluator
enumerates its rows, the estimator samples them, and each decides the
connectivity of all worlds of a block at once.  The reduction itself is
constructed in :mod:`repro.hardness.reductions`.
"""

from __future__ import annotations

import random
from collections.abc import Callable

import numpy as np

from repro.exceptions import (
    InvalidParameterError,
    _require_finite,
    _require_positive_int,
    check_theta,
)
from repro.graph.possible_worlds import _check_enumerable
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.sampling.monte_carlo import (
    MonteCarloEstimate,
    hoeffding_error_bound,
    hoeffding_sample_size,
)
from repro.sampling.verification import block_rows
from repro.sampling.world_matrix import CandidateWorldIndex, as_numpy_generator

__all__ = [
    "exact_reliability",
    "estimate_reliability",
    "reliability_decision",
    "binary_search_reliability",
]


def exact_reliability(graph: ProbabilisticGraph, max_edges: int = 20) -> float:
    """Return the exact reliability by enumerating all possible worlds.

    Only vertices that appear in the graph are considered; the empty graph
    has reliability 0 (there is nothing to connect), a single vertex 1, and
    a graph with an isolated vertex 0.  Enumeration is refused for graphs
    with more than ``max_edges`` edges, before anything else.  World
    ``c`` of the ``2^m`` holds edge ``j`` iff bit ``j`` of ``c`` is
    set; the worlds are enumerated in
    :func:`~repro.sampling.verification.block_rows` blocks, and each connected
    world adds its probability (Equation 1).
    """
    if graph.num_vertices == 0:
        return 0.0
    _check_enumerable(graph.num_edges, max_edges)
    index = CandidateWorldIndex.from_graph(graph)
    p = index.edge_probabilities[:, None]
    bits = np.arange(p.size)[:, None]
    n_worlds = 2**p.size
    rows = block_rows(index)
    total = 0.0
    for start in range(0, n_worlds, rows):
        codes = np.arange(start, min(start + rows, n_worlds))
        worlds = (codes >> bits) & 1 == 1  # one column per world
        weights = np.where(worlds, p, 1.0 - p).prod(axis=0)
        total += float(weights @ _connected_worlds(index, worlds))
    return min(1.0, total)


def _connected_worlds(index: CandidateWorldIndex, worlds: np.ndarray) -> np.ndarray:
    """Per world column of ``worlds``, whether its present edges connect every vertex.

    Reachability from vertex 0, for all worlds at once: each sweep over the
    edges marks both ends of every present edge that touches a reached
    vertex, until a sweep reaches nothing new.  A world is connected iff it
    reaches every vertex.
    """
    reached = np.zeros((len(index.labels), worlds.shape[1]), dtype=bool)
    reached[0] = True
    ends = list(zip(index.edge_u.tolist(), index.edge_v.tolist()))
    while True:
        before = reached.copy()
        for present, (u, v) in zip(worlds, ends):
            touching = (reached[u] | reached[v]) & present
            reached[u] |= touching
            reached[v] |= touching
        if np.array_equal(before, reached):
            return reached.all(axis=0)


def estimate_reliability(
    graph: ProbabilisticGraph,
    epsilon: float = 0.1,
    delta: float = 0.1,
    n_samples: int | None = None,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> MonteCarloEstimate:
    """Estimate the reliability by Monte-Carlo sampling of possible worlds.

    Draws ``n_samples`` worlds (by default the Hoeffding budget of
    ``epsilon`` and ``delta``) with
    :meth:`~repro.sampling.world_matrix.CandidateWorldIndex.sample`, in
    :func:`~repro.sampling.verification.block_rows` blocks, and counts the
    connected ones as :func:`exact_reliability` decides them.  The estimate
    carries its sample size and the Hoeffding error at ``delta``; the empty
    graph, which has nothing to connect, estimates 0.
    """
    if n_samples is None:
        n_samples = hoeffding_sample_size(epsilon, delta)
    n_samples = _require_positive_int("n_samples", n_samples)
    epsilon = hoeffding_error_bound(n_samples, delta)
    if graph.num_vertices == 0:
        return MonteCarloEstimate(0.0, n_samples, epsilon)
    generator = as_numpy_generator(rng, seed)
    index = CandidateWorldIndex.from_graph(graph)
    rows = block_rows(index)
    connected = 0
    for start in range(0, n_samples, rows):
        worlds = index.sample(min(rows, n_samples - start), rng=generator)
        connected += int(_connected_worlds(index, worlds.T).sum())
    return MonteCarloEstimate(connected / n_samples, n_samples, epsilon)


def reliability_decision(
    graph: ProbabilisticGraph,
    theta: float,
    max_edges: int = 20,
) -> bool:
    """Decision version of reliability (Definition 7): is reliability ≥ θ?

    Computed exactly via enumeration; intended for the small instances used
    in the hardness-reduction demonstrations and tests.
    """
    check_theta(theta)
    return exact_reliability(graph, max_edges=max_edges) >= theta


def binary_search_reliability(
    decision_oracle: Callable[[float], bool],
    precision: float = 1e-6,
) -> float:
    """Recover a reliability value from a decision oracle by binary search.

    This is the constructive content of Lemma 1: polynomially many calls to
    the decision version pin down the reliability to machine precision,
    which is why the decision version inherits #P-hardness.

    Parameters
    ----------
    decision_oracle:
        Function mapping a threshold θ to "reliability ≥ θ?".
    precision:
        Width of the final interval: a finite positive number.
    """
    if _require_finite("precision", precision) <= 0.0:
        raise InvalidParameterError(f"precision must be positive, got {precision!r}")
    low, high = 0.0, 1.0
    # Invariant: reliability >= low, and (high < reliability) is false,
    # i.e. reliability lies in [low, high].
    while high - low > precision:
        mid = (low + high) / 2.0
        if decision_oracle(mid):
            low = mid
        else:
            high = mid
    return (low + high) / 2.0
