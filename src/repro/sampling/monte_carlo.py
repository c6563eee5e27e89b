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
import random
from collections.abc import Callable, Sequence

from repro.exceptions import InvalidParameterError, _require_finite
from repro.graph.possible_worlds import sample_world
from repro.graph.probabilistic_graph import ProbabilisticGraph

__all__ = [
    "hoeffding_sample_size",
    "hoeffding_error_bound",
    "estimate_world_probability",
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
    if not 0.0 < _require_finite("epsilon", epsilon) <= 1.0:
        raise InvalidParameterError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < _require_finite("delta", delta) <= 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1], got {delta}")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def hoeffding_error_bound(n_samples: int, delta: float) -> float:
    """Return the ε guaranteed by ``n_samples`` at confidence ``1 − δ`` (inverse of Lemma 4)."""
    if n_samples <= 0:
        raise InvalidParameterError(f"n_samples must be positive, got {n_samples}")
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


def estimate_world_probability(
    graph: ProbabilisticGraph,
    predicate: Callable[[ProbabilisticGraph], bool],
    epsilon: float = 0.1,
    delta: float = 0.1,
    n_samples: int | None = None,
    rng: random.Random | None = None,
    seed: int | None = None,
    worlds: Sequence[ProbabilisticGraph] | None = None,
) -> MonteCarloEstimate:
    """Estimate ``Pr[predicate(world)]`` over the possible worlds of ``graph``.

    Parameters
    ----------
    graph:
        The probabilistic graph whose worlds are sampled.
    predicate:
        Boolean function of a (deterministic) possible world.
    epsilon, delta:
        Hoeffding accuracy parameters; used to derive the sample size when
        ``n_samples`` is not given, and reported on the returned estimate.
    n_samples:
        Explicit number of samples (overrides the Hoeffding-derived size).
    rng, seed:
        Source of randomness.
    worlds:
        Pre-sampled worlds to reuse; when given, no new sampling happens and
        ``n_samples`` defaults to ``len(worlds)``.
    """
    if worlds is None:
        if n_samples is None:
            n_samples = hoeffding_sample_size(epsilon, delta)
        if rng is None:
            rng = random.Random(seed)
        worlds = [sample_world(graph, rng=rng) for _ in range(n_samples)]
    else:
        n_samples = len(worlds)
        if n_samples == 0:
            raise InvalidParameterError("worlds must be non-empty")
    hits = sum(1 for world in worlds if predicate(world))
    achieved_epsilon = hoeffding_error_bound(n_samples, delta)
    return MonteCarloEstimate(hits / n_samples, n_samples, achieved_epsilon)
