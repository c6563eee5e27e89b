"""Adaptive Monte-Carlo sampling: confidence-driven early stopping.

The fixed-``n`` Monte-Carlo verification of Algorithms 2 and 3 draws the same
``n_worlds`` (200 in the paper's experiments) for *every* candidate, but the
per-candidate decision — "is every triangle's estimated probability at least
θ?" — is usually statistically settled long before that: a candidate whose
probabilities sit far from the threshold resolves within a few dozen worlds,
while a genuinely borderline candidate deserves *more* than the fixed budget.

This module turns the world-matrix engine of
:mod:`repro.sampling.world_matrix` into a sequential test:

1. worlds are drawn in **geometric chunks** (:func:`chunk_schedule`, default
   16 → 32 → 64 → … capped at ``n_worlds_max``) through the existing
   :meth:`~repro.sampling.world_matrix.CandidateWorldIndex.sample` /
   :func:`~repro.sampling.world_matrix.global_triangle_counts` /
   :func:`~repro.sampling.world_matrix.weak_membership_counts` machinery —
   each chunk optionally sharded across a
   :class:`~repro.sampling.world_matrix.WorldShardPool` exactly like a fixed
   batch would be;
2. after each chunk, **anytime-valid confidence radii** are computed for the
   per-triangle estimates: the tighter of a Hoeffding radius
   (:func:`hoeffding_radius`) and an empirical-Bernstein radius
   (:func:`empirical_bernstein_radius`, which shrinks like
   ``√(p(1−p)/n)`` and therefore wins away from ``p = ½`` — precisely the
   easy candidates).  Stage ``t`` of the sequence spends error budget
   ``δ/(t(t+1))`` (:func:`stage_delta`, a convergent series summing to δ),
   split evenly between the two bound families, so the *whole adaptive
   trajectory* errs with probability at most ``δ = 1 − confidence``;
3. sampling **stops per candidate** as soon as the θ-threshold decision is
   settled for every triangle — all lower bounds clear θ (accept) or, in the
   global model, any upper bound falls below θ (reject) — and otherwise
   continues until the ``n_worlds_max`` cap, where the point estimate decides
   exactly like the fixed-``n`` path.

Determinism mirrors the fixed engine: chunks are drawn sequentially from one
numpy generator in the parent process, and ``n_jobs`` sharding splits each
chunk *after* it is sampled, so results are bit-identical for every
``n_jobs`` at a fixed seed.  The fixed-``n`` path is untouched and remains
the parity oracle (``sampling="fixed"``).

Every candidate records its world consumption into the
``repro_sampling_worlds_per_candidate`` histogram and bumps
``repro_sampling_early_stops_total`` / ``repro_sampling_exhausted_total``
(see ``docs/OBSERVABILITY.md``); the per-chunk verification batches reuse the
``sampling.verify`` spans of the world-matrix engine, so traces show one span
per chunk.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.sampling.sharding import (
    _require_finite,
    _require_positive_int,
    chunk_schedule,
)
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    WorldShardPool,
    as_numpy_generator,
    global_triangle_counts,
    weak_membership_counts,
)

__all__ = [
    "SAMPLING_MODES",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_CHUNK_INITIAL",
    "DEFAULT_CHUNK_GROWTH",
    "AdaptiveSettings",
    "AdaptiveOutcome",
    "resolve_adaptive_settings",
    "chunk_schedule",
    "stage_delta",
    "hoeffding_radius",
    "empirical_bernstein_radius",
    "decision_radius",
    "adaptive_global_verify",
    "adaptive_weak_scores",
]

#: The two sampling strategies of the Monte-Carlo drivers.
SAMPLING_MODES = ("fixed", "adaptive")

#: Default decision confidence ``1 − δ`` of the sequential test.
DEFAULT_CONFIDENCE = 0.95

#: Default size of the first world chunk (re-exported from
#: :mod:`repro.sampling.sharding`, the shared split-planning module).
DEFAULT_CHUNK_INITIAL = 16

#: Default geometric growth factor between consecutive chunks.
DEFAULT_CHUNK_GROWTH = 2.0

#: Power-of-two buckets for the worlds-per-candidate histogram (1 … 16384).
WORLD_COUNT_BUCKETS: tuple[float, ...] = tuple(float(2**i) for i in range(15))


@dataclass(frozen=True)
class AdaptiveSettings:
    """Validated knobs of the sequential sampling engine.

    Attributes
    ----------
    confidence:
        Probability that the *entire* adaptive trajectory of one candidate
        decides the θ threshold correctly (``δ = 1 − confidence`` is spent
        across chunks via :func:`stage_delta`).  Must be a finite value in
        the open interval (0, 1).
    n_worlds_max:
        Hard cap on worlds drawn per candidate.  At the cap the point
        estimate decides, exactly like the fixed-``n`` path.
    chunk_initial / chunk_growth:
        First chunk size and the geometric factor between chunks.
    """

    confidence: float = DEFAULT_CONFIDENCE
    n_worlds_max: int = 400
    chunk_initial: int = DEFAULT_CHUNK_INITIAL
    chunk_growth: float = DEFAULT_CHUNK_GROWTH

    def __post_init__(self) -> None:
        confidence = _require_finite("confidence", self.confidence)
        if not 0.0 < confidence < 1.0:
            raise InvalidParameterError(
                f"confidence must be a finite value in (0, 1), got {self.confidence!r}"
            )
        _require_positive_int("n_worlds_max", self.n_worlds_max)
        _require_positive_int("chunk_initial", self.chunk_initial)
        growth = _require_finite("chunk_growth", self.chunk_growth)
        if growth < 1.0:
            raise InvalidParameterError(
                f"chunk_growth must be a finite value >= 1, got {self.chunk_growth!r}"
            )

    @property
    def delta(self) -> float:
        """The total error budget ``1 − confidence`` of one candidate."""
        return 1.0 - self.confidence

    def schedule(self) -> tuple[int, ...]:
        """The chunk sizes this candidate may draw (see :func:`chunk_schedule`)."""
        return chunk_schedule(self.n_worlds_max, self.chunk_initial, self.chunk_growth)


@dataclass(frozen=True)
class AdaptiveOutcome:
    """How one candidate's sequential test ended."""

    #: Worlds actually drawn (``≤ n_worlds_max``).
    worlds: int
    #: Chunks drawn (``= len(schedule)`` when the cap was exhausted).
    chunks: int
    #: ``True`` when the confidence bounds settled the decision before the
    #: cap; ``False`` when the point estimate decided at ``n_worlds_max``.
    early_stop: bool


def resolve_adaptive_settings(
    sampling: str = "fixed",
    confidence: float = DEFAULT_CONFIDENCE,
    n_worlds_max: int | None = None,
    chunk_initial: int = DEFAULT_CHUNK_INITIAL,
    chunk_growth: float = DEFAULT_CHUNK_GROWTH,
    n_samples: int | None = None,
) -> AdaptiveSettings | None:
    """Validate the sampling-strategy knobs; ``None`` means fixed-``n``.

    ``n_worlds_max`` defaults to twice the fixed budget ``n_samples`` (hard
    borderline candidates may spend *more* than the fixed path would), or
    ``2 × 200`` when no fixed budget is known.  Raises
    :class:`~repro.exceptions.InvalidParameterError` for an unknown
    ``sampling`` mode or any non-finite / out-of-range knob, so bad values
    fail here instead of deep inside the world-matrix engine.
    """
    if sampling not in SAMPLING_MODES:
        raise InvalidParameterError(
            f"sampling must be one of {SAMPLING_MODES}, got {sampling!r}"
        )
    if n_worlds_max is None:
        n_worlds_max = 2 * (n_samples if n_samples is not None else 200)
    settings = AdaptiveSettings(
        confidence=confidence,
        n_worlds_max=n_worlds_max,
        chunk_initial=chunk_initial,
        chunk_growth=chunk_growth,
    )
    return settings if sampling == "adaptive" else None


def stage_delta(delta: float, stage: int) -> float:
    """Error budget spent by stage ``stage`` (1-based) of the sequence.

    The spending schedule ``δ_t = δ / (t(t+1))`` telescopes to δ over all
    stages, so the union bound over every chunk the candidate might draw
    stays within the configured budget — the radii are *anytime valid*.
    """
    if stage < 1:
        raise InvalidParameterError(f"stage must be >= 1, got {stage}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return delta / (stage * (stage + 1))


def hoeffding_radius(n: int, delta: float) -> float:
    """Two-sided Hoeffding radius: ``|p̂ − p| ≤ √(ln(2/δ)/2n)`` w.p. ``1 − δ``."""
    _require_positive_int("n", n)
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def empirical_bernstein_radius(
    n: int, means: "np.ndarray | float", delta: float
) -> "np.ndarray | float":
    """Empirical-Bernstein radius of Audibert et al. for [0, 1] samples.

    ``√(2 V̂ ln(3/δ)/n) + 3 ln(3/δ)/n`` where ``V̂`` is the (bias-corrected)
    empirical variance — for Bernoulli hit counts ``p̂(1 − p̂) · n/(n−1)``.
    Vectorizes over an array of per-triangle means.  Much tighter than
    Hoeffding once ``p̂`` sits near 0 or 1, which is exactly where easy
    candidates live.
    """
    _require_positive_int("n", n)
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    log_term = math.log(3.0 / delta)
    variance = np.multiply(means, np.subtract(1.0, means))
    if n > 1:
        variance = variance * (n / (n - 1.0))
    return np.sqrt(2.0 * variance * log_term / n) + 3.0 * log_term / n


def decision_radius(n: int, means: "np.ndarray | float", delta: float) -> "np.ndarray | float":
    """The tighter of the Hoeffding and empirical-Bernstein radii.

    Each family receives ``δ/2`` so their elementwise minimum is a valid
    two-sided radius at level ``δ``.
    """
    return np.minimum(
        hoeffding_radius(n, delta / 2.0),
        empirical_bernstein_radius(n, means, delta / 2.0),
    )


def _record_outcome(model: str, outcome: AdaptiveOutcome) -> None:
    """Feed the per-candidate telemetry (no-op while telemetry is off)."""
    if not obs_config._ENABLED:
        return
    obs_registry.histogram(
        "repro_sampling_worlds_per_candidate",
        "Worlds drawn per candidate by the adaptive sampling engine.",
        buckets=WORLD_COUNT_BUCKETS,
        model=model,
    ).observe(outcome.worlds)
    if outcome.early_stop:
        obs_registry.counter(
            "repro_sampling_early_stops_total",
            "Candidates whose theta decision settled before n_worlds_max.",
            model=model,
        ).inc()
    else:
        obs_registry.counter(
            "repro_sampling_exhausted_total",
            "Candidates that exhausted n_worlds_max and fell back to the "
            "point estimate.",
            model=model,
        ).inc()


def adaptive_global_verify(
    index: CandidateWorldIndex,
    k: int,
    theta: float,
    settings: AdaptiveSettings,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
    pool: "WorldShardPool | None" = None,
) -> tuple[bool, AdaptiveOutcome]:
    """Sequentially decide the global-model verification of one candidate.

    The fixed-``n`` decision this replaces is "every triangle's estimated
    probability of (world is a k-nucleus ∧ world contains the triangle)
    reaches θ".  The sequential version stops as soon as the confidence
    radii settle it: **reject** once any triangle's upper bound falls below
    θ (one hopeless triangle sinks the candidate), **accept** once every
    triangle's lower bound reaches θ.  At the ``n_worlds_max`` cap the point
    estimates decide, mirroring the fixed path.

    Returns ``(passes, outcome)``.
    """
    if index.num_triangles == 0:
        return False, AdaptiveOutcome(worlds=0, chunks=0, early_stop=True)
    generator = as_numpy_generator(rng, seed)
    counts = np.zeros(index.num_triangles, dtype=np.int64)
    drawn = 0
    stage = 0
    decided: bool | None = None
    for stage, chunk in enumerate(settings.schedule(), start=1):
        worlds = index.sample(chunk, rng=generator)
        counts += global_triangle_counts(index, worlds, k, pool=pool)
        drawn += chunk
        means = counts / drawn
        radius = decision_radius(drawn, means, stage_delta(settings.delta, stage))
        if bool(np.any(means + radius < theta)):
            decided = False
            break
        if bool(np.all(means - radius >= theta)):
            decided = True
            break
    if decided is None:
        passes = bool(np.all(counts / drawn >= theta))
        outcome = AdaptiveOutcome(worlds=drawn, chunks=stage, early_stop=False)
    else:
        passes = decided
        outcome = AdaptiveOutcome(worlds=drawn, chunks=stage, early_stop=True)
    _record_outcome("global", outcome)
    return passes, outcome


def adaptive_weak_scores(
    index: CandidateWorldIndex,
    k: int,
    theta: float,
    settings: AdaptiveSettings,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
    pool: "WorldShardPool | None" = None,
) -> tuple[np.ndarray, np.ndarray, AdaptiveOutcome]:
    """Sequentially decide, per triangle, whether its weak score reaches θ.

    Every chunk still scores *all* triangles of the candidate (the weak
    fixed point is shared work), so the candidate keeps sampling until
    **every** triangle's decision is settled — a triangle is settled once
    its lower bound reaches θ (qualifies) or its upper bound falls below θ
    (does not).  Undecided triangles at the ``n_worlds_max`` cap fall back
    to their point estimates, mirroring the fixed path.

    Returns ``(estimates, qualifying, outcome)`` where ``estimates`` is the
    final per-triangle mean (row order of ``index``) and ``qualifying`` the
    boolean θ-decision per triangle.
    """
    num_triangles = index.num_triangles
    if num_triangles == 0:
        empty = np.zeros(0, dtype=np.float64)
        outcome = AdaptiveOutcome(worlds=0, chunks=0, early_stop=True)
        return empty, np.zeros(0, dtype=bool), outcome
    generator = as_numpy_generator(rng, seed)
    counts = np.zeros(num_triangles, dtype=np.int64)
    qualifying = np.zeros(num_triangles, dtype=bool)
    settled = np.zeros(num_triangles, dtype=bool)
    drawn = 0
    stage = 0
    early = False
    means = np.zeros(num_triangles, dtype=np.float64)
    for stage, chunk in enumerate(settings.schedule(), start=1):
        worlds = index.sample(chunk, rng=generator)
        counts += weak_membership_counts(index, worlds, k, pool=pool)
        drawn += chunk
        means = counts / drawn
        radius = decision_radius(drawn, means, stage_delta(settings.delta, stage))
        passes = means - radius >= theta
        fails = means + radius < theta
        qualifying |= ~settled & passes
        settled |= passes | fails
        if bool(settled.all()):
            early = True
            break
    if not early:
        qualifying[~settled] = means[~settled] >= theta
    outcome = AdaptiveOutcome(worlds=drawn, chunks=stage, early_stop=early)
    _record_outcome("weak", outcome)
    return means, qualifying, outcome
