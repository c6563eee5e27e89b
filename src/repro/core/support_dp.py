"""Exact probabilistic support of a triangle via dynamic programming.

Section 5.1 of the paper: for a triangle ``△ = (u, v, w)`` with common
neighbors ``z_1, …, z_c``, let ``E_i`` be the indicator that the three edges
connecting ``z_i`` to the triangle all exist.  The ``E_i`` are independent
Bernoulli variables with success probability
``Pr(E_i) = p(u, z_i) · p(v, z_i) · p(w, z_i)``, so the number of 4-cliques
containing ``△`` (conditioned on ``△`` existing) is a *Poisson-binomial*
random variable ``ζ = Σ E_i``.

Equation 7 of the paper is the textbook Poisson-binomial recurrence

.. math::

    X(S_△, k, j) = \\Pr(E_j)·X(S_△, k-1, j-1) + (1-\\Pr(E_j))·X(S_△, k, j-1)

and the quantity the peeling algorithm needs is the largest ``k`` such that
``Pr(△) · Pr(ζ ≥ k) ≥ θ``.

This module implements the recurrence, its tail probabilities, and the
``max k`` search.  It is the exact ("DP") support oracle; the statistical
approximations of :mod:`repro.core.approximations` estimate the same tail in
``O(c_△)`` time.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import InvalidParameterError, check_theta

__all__ = [
    "poisson_binomial_pmf",
    "tail_from_pmf",
    "support_tail_probabilities",
    "max_k_at_threshold",
    "NO_VALID_K",
]

#: Sentinel returned by :func:`max_k_at_threshold` when not even ``k = 0``
#: satisfies the threshold, i.e. the triangle itself exists with probability
#: below ``θ`` and therefore belongs to no ℓ-(k, θ)-nucleus.
NO_VALID_K = -1


def _validate_probabilities(probabilities: Sequence[float], what: str) -> None:
    for p in probabilities:
        if not 0.0 <= p <= 1.0:
            raise InvalidParameterError(f"{what} must be within [0, 1], got {p}")


def poisson_binomial_pmf(probabilities: Sequence[float]) -> list[float]:
    """Return the pmf of a sum of independent Bernoulli variables.

    Implements the dynamic program of Equation 7 iteratively: processing the
    ``j``-th variable updates the distribution of the partial sum in place.
    The returned list has length ``len(probabilities) + 1``; entry ``k`` is
    ``Pr[ζ = k]``.

    Complexity: ``O(c²)`` time and ``O(c)`` space for ``c`` variables.
    """
    _validate_probabilities(probabilities, "Bernoulli success probability")
    pmf = [1.0]
    for p in probabilities:
        q = 1.0 - p
        next_pmf = [0.0] * (len(pmf) + 1)
        for k, mass in enumerate(pmf):
            if mass == 0.0:
                continue
            next_pmf[k] += mass * q
            next_pmf[k + 1] += mass * p
        pmf = next_pmf
    return pmf


def tail_from_pmf(pmf: Sequence[float]) -> list[float]:
    """Return tail probabilities ``Pr[ζ ≥ k]`` for ``k = 0 … len(pmf) - 1``.

    Computed as a reverse cumulative sum, clamped into ``[0, 1]`` to guard
    against floating-point drift.
    """
    tails = [0.0] * len(pmf)
    running = 0.0
    for k in range(len(pmf) - 1, -1, -1):
        running += pmf[k]
        tails[k] = min(1.0, max(0.0, running))
    return tails


def support_tail_probabilities(clique_probabilities: Sequence[float]) -> list[float]:
    """Return ``Pr[ζ ≥ k]`` for ``k = 0 … c_△`` given the per-clique probabilities.

    ``clique_probabilities[i]`` is ``Pr(E_i)``, the probability that the
    ``i``-th completing vertex forms a 4-clique with the triangle.
    """
    return tail_from_pmf(poisson_binomial_pmf(clique_probabilities))


def max_k_at_threshold(
    triangle_probability: float,
    clique_probabilities: Sequence[float],
    theta: float,
) -> int:
    """Return the largest ``k`` with ``Pr(△) · Pr[ζ ≥ k] ≥ θ``.

    This is the initial κ-score of a triangle in Algorithm 1 (line 3) and is
    also used whenever the peeling loop has to recompute a score after
    removing 4-cliques.

    Parameters
    ----------
    triangle_probability:
        ``Pr(△)``, the product of the triangle's three edge probabilities.
    clique_probabilities:
        ``Pr(E_i)`` for each 4-clique containing the triangle.
    theta:
        The threshold ``θ`` of the decomposition, in ``[0, 1]``.

    Returns
    -------
    int
        The largest qualifying ``k`` (between 0 and ``c_△``), or
        :data:`NO_VALID_K` when even ``k = 0`` fails — i.e. the triangle's own
        existence probability is already below ``θ``.
    """
    check_theta(theta)
    if not 0.0 <= triangle_probability <= 1.0:
        raise InvalidParameterError(
            f"triangle probability must be in [0, 1], got {triangle_probability}"
        )
    tails = support_tail_probabilities(clique_probabilities)
    best = NO_VALID_K
    for k, tail in enumerate(tails):
        if triangle_probability * tail >= theta:
            best = k
        else:
            # tails are non-increasing in k, so no larger k can qualify
            break
    return best
