"""Statistical approximations of the probabilistic triangle support (§5.3).

The exact support oracle (:mod:`repro.core.support_dp`) costs ``O(c_△²)`` per
triangle.  The paper speeds this up by approximating the Poisson-binomial
tail ``Pr[ζ ≥ k]`` with one of four classical distributions, each computable
in ``O(c_△)`` total time:

* **Poisson** — justified by Le Cam's theorem; accurate when the individual
  clique probabilities ``Pr(E_i)`` are small.
* **Translated Poisson** — a Poisson shifted by ``⌊λ − σ²⌋`` so its variance
  matches the true variance to within 1; accurate when ``Σ Pr(E_i)²`` is
  large.
* **Normal (Lyapunov CLT)** — accurate when ``c_△`` (and hence the variance)
  is large.
* **Binomial** — the sum of c_△ i.i.d. Bernoullis with matched mean; accurate
  when the ``Pr(E_i)`` are close to each other (variance ratio close to 1).

Every estimator exposes the same two methods:

``tail_probabilities(clique_probabilities)``
    ``Pr[ζ ≥ k]`` for ``k = 0 … c_△``.

``max_k(triangle_probability, clique_probabilities, theta)``
    the largest ``k`` with ``Pr(△)·Pr[ζ ≥ k] ≥ θ`` (the κ-score used by the
    peeling algorithm), or :data:`~repro.core.support_dp.NO_VALID_K`.

The hybrid selection rules of §5.3 live in :mod:`repro.core.hybrid`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.core.support_dp import (
    NO_VALID_K,
    max_k_at_threshold,
    support_tail_probabilities,
)
from repro.exceptions import InvalidParameterError, check_theta

__all__ = [
    "SupportEstimator",
    "DynamicProgrammingEstimator",
    "PoissonEstimator",
    "TranslatedPoissonEstimator",
    "NormalEstimator",
    "BinomialEstimator",
    "le_cam_error_bound",
    "poisson_tail_probabilities",
]


def _validate(clique_probabilities: Sequence[float]) -> None:
    for p in clique_probabilities:
        if not 0.0 <= p <= 1.0:
            raise InvalidParameterError(
                f"clique probability must be in [0, 1], got {p}"
            )


def le_cam_error_bound(clique_probabilities: Sequence[float]) -> float:
    """Return Le Cam's bound ``2·Σ Pr(E_i)²`` on the Poisson approximation error (Eq. 9)."""
    return 2.0 * sum(p * p for p in clique_probabilities)


def _poisson_pmf_sequence(lam: float, count: int) -> list[float]:
    """Return Poisson(λ) pmf values for ``k = 0 … count`` using the stable recurrence."""
    if lam < 0:
        raise InvalidParameterError(f"Poisson rate must be non-negative, got {lam}")
    pmf = [0.0] * (count + 1)
    pmf[0] = math.exp(-lam)
    for k in range(1, count + 1):
        pmf[k] = pmf[k - 1] * lam / k
    return pmf


def poisson_tail_probabilities(lam: float, count: int) -> list[float]:
    """Return ``Pr[Poisson(λ) ≥ k]`` for ``k = 0 … count`` (Equation 10)."""
    pmf = _poisson_pmf_sequence(lam, count)
    below = 1.0 - sum(pmf)  # mass strictly above `count`
    tails = [0.0] * (count + 1)
    running = max(0.0, below)
    for k in range(count, -1, -1):
        running += pmf[k]
        tails[k] = min(1.0, max(0.0, running))
    return tails


class SupportEstimator(ABC):
    """Interface shared by the exact DP oracle and all approximations."""

    #: Short identifier used in experiment tables and ablation reports.
    name: str = "abstract"

    @abstractmethod
    def tail_probabilities(self, clique_probabilities: Sequence[float]) -> list[float]:
        """Return ``Pr[ζ ≥ k]`` for ``k = 0 … len(clique_probabilities)``."""

    def max_k(
        self,
        triangle_probability: float,
        clique_probabilities: Sequence[float],
        theta: float,
    ) -> int:
        """Return the largest ``k`` with ``Pr(△)·Pr[ζ ≥ k] ≥ θ``.

        Mirrors :func:`repro.core.support_dp.max_k_at_threshold` but uses this
        estimator's tail.  Returns :data:`NO_VALID_K` when no ``k`` qualifies.
        """
        check_theta(theta)
        if not 0.0 <= triangle_probability <= 1.0:
            raise InvalidParameterError(
                f"triangle probability must be in [0, 1], got {triangle_probability}"
            )
        tails = self.tail_probabilities(clique_probabilities)
        best = NO_VALID_K
        for k, tail in enumerate(tails):
            if triangle_probability * tail >= theta:
                best = k
            else:
                break
        return best

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DynamicProgrammingEstimator(SupportEstimator):
    """Exact Poisson-binomial tail via the Equation-7 dynamic program."""

    name = "dp"

    def tail_probabilities(self, clique_probabilities: Sequence[float]) -> list[float]:
        return support_tail_probabilities(clique_probabilities)

    def max_k(
        self,
        triangle_probability: float,
        clique_probabilities: Sequence[float],
        theta: float,
    ) -> int:
        return max_k_at_threshold(triangle_probability, clique_probabilities, theta)


class PoissonEstimator(SupportEstimator):
    """Poisson approximation with rate ``λ = Σ Pr(E_i)`` (Le Cam)."""

    name = "poisson"

    def tail_probabilities(self, clique_probabilities: Sequence[float]) -> list[float]:
        _validate(clique_probabilities)
        lam = sum(clique_probabilities)
        return poisson_tail_probabilities(lam, len(clique_probabilities))


class TranslatedPoissonEstimator(SupportEstimator):
    """Translated-Poisson approximation (Röllin).

    The distribution is ``⌊λ₂⌋ + Poisson(λ − ⌊λ₂⌋)`` with ``λ₂ = λ − σ²``,
    which matches the true mean exactly and the true variance to within one.
    """

    name = "translated_poisson"

    def tail_probabilities(self, clique_probabilities: Sequence[float]) -> list[float]:
        _validate(clique_probabilities)
        count = len(clique_probabilities)
        lam = sum(clique_probabilities)
        variance = sum(p * (1.0 - p) for p in clique_probabilities)
        shift = math.floor(lam - variance)
        shift = max(0, min(shift, count))
        rate = max(0.0, lam - shift)
        # Tail of the shifted variable: Pr[shift + Π ≥ k] = Pr[Π ≥ k - shift].
        poisson_tails = poisson_tail_probabilities(rate, count)
        tails = []
        for k in range(count + 1):
            offset = k - shift
            if offset <= 0:
                tails.append(1.0)
            else:
                tails.append(poisson_tails[min(offset, count)])
        return tails


class NormalEstimator(SupportEstimator):
    """Normal approximation justified by Lyapunov's central limit theorem.

    ``Pr[ζ ≥ k] ≈ Q((k − μ) / σ)`` where ``Q`` is the standard normal
    survival function.  When the variance is zero the distribution is a point
    mass at ``μ`` and the tail degenerates accordingly.
    """

    name = "clt"

    def tail_probabilities(self, clique_probabilities: Sequence[float]) -> list[float]:
        _validate(clique_probabilities)
        count = len(clique_probabilities)
        mean = sum(clique_probabilities)
        variance = sum(p * (1.0 - p) for p in clique_probabilities)
        if variance <= 0.0:
            return [1.0 if k <= mean + 1e-12 else 0.0 for k in range(count + 1)]
        sigma = math.sqrt(variance)
        tails = []
        for k in range(count + 1):
            z = (k - mean) / sigma
            tails.append(0.5 * math.erfc(z / math.sqrt(2.0)))
        return tails


class BinomialEstimator(SupportEstimator):
    """Binomial approximation with ``n = c_△`` and ``n·p = Σ Pr(E_i)`` (Ehm)."""

    name = "binomial"

    def tail_probabilities(self, clique_probabilities: Sequence[float]) -> list[float]:
        _validate(clique_probabilities)
        n = len(clique_probabilities)
        if n == 0:
            return [1.0]
        p = sum(clique_probabilities) / n
        p = min(1.0, max(0.0, p))
        pmf = [0.0] * (n + 1)
        if p == 0.0:
            pmf[0] = 1.0
        elif p == 1.0:
            pmf[n] = 1.0
        else:
            pmf[0] = (1.0 - p) ** n
            for k in range(1, n + 1):
                pmf[k] = pmf[k - 1] * (n - k + 1) * p / (k * (1.0 - p))
        tails = [0.0] * (n + 1)
        running = 0.0
        for k in range(n, -1, -1):
            running += pmf[k]
            tails[k] = min(1.0, max(0.0, running))
        return tails
