"""Monte-Carlo estimation utilities (Section 6 of the paper).

The global and weakly-global decompositions need the probability that a
sampled possible world satisfies a structural predicate (being a
deterministic k-nucleus, or containing one).  Exact computation requires
summing over ``2^{|E|}`` worlds, so the paper estimates these probabilities by
sampling and appeals to Hoeffding's inequality (Lemma 4) for the sample size
``n ≥ ⌈ln(2/δ) / (2ε²)⌉`` that guarantees the estimate is within ``ε`` of the
truth with probability ``1 − δ``.
"""

from __future__ import annotations

import math

from repro.exceptions import InvalidParameterError, _require_finite, _require_positive_int

__all__ = [
    "hoeffding_sample_size",
    "hoeffding_error_bound",
    "MonteCarloEstimate",
]


def hoeffding_sample_size(epsilon: float, delta: float) -> int:
    """Return the number of samples required by Lemma 4.

    Parameters
    ----------
    epsilon:
        Additive error bound ``ε ∈ (0, 1]``.
    delta:
        Failure probability ``δ ∈ (0, 1]``.

    Returns
    -------
    int
        ``⌈ln(2/δ) / (2ε²)⌉``.  For the paper's settings (ε = δ = 0.1) this is
        150; the paper rounds up to 200 samples.

    A ``bool``, a string or a non-finite value raises
    :class:`~repro.exceptions.InvalidParameterError` naming the knob.
    """
    epsilon = _require_finite("epsilon", epsilon)
    if not 0.0 < epsilon <= 1.0:
        raise InvalidParameterError(f"epsilon must be in (0, 1], got {epsilon}")
    delta = _require_finite("delta", delta)
    if not 0.0 < delta <= 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1], got {delta}")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def hoeffding_error_bound(n_samples: int, delta: float) -> float:
    """Return the ε guaranteed by ``n_samples`` at confidence ``1 − δ`` (inverse of Lemma 4).

    ``n_samples`` must be a positive integer (numpy integers included) and
    ``delta`` a finite number in ``(0, 1]``; anything else raises
    :class:`~repro.exceptions.InvalidParameterError` naming the knob.
    """
    n_samples = _require_positive_int("n_samples", n_samples)
    delta = _require_finite("delta", delta)
    if not 0.0 < delta <= 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1], got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


class MonteCarloEstimate(float):
    """A float subclass carrying the sample size and Hoeffding error of an estimate."""

    def __new__(cls, value: float, n_samples: int, epsilon: float):
        instance = super().__new__(cls, value)
        instance.n_samples = n_samples
        instance.epsilon = epsilon
        return instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MonteCarloEstimate({float(self):.4f}, n_samples={self.n_samples}, "
            f"epsilon={self.epsilon:.4f})"
        )
