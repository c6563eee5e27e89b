"""Sequential Monte-Carlo verification: the one loop of Algorithms 2 and 3.

Every candidate of the global and weakly-global decompositions is verified
by the loop of this module, for both sampling modes.  The per-candidate
decision — "is every triangle's estimated probability at least θ?" — is
estimated from possible worlds drawn through
:meth:`~repro.sampling.world_matrix.CandidateWorldIndex.sample` and counted by
:func:`~repro.sampling.world_matrix.global_triangle_counts` /
:func:`~repro.sampling.world_matrix.weak_membership_counts`:

1. **Schedules.** Worlds are drawn in the chunks of
   :meth:`AdaptiveSettings.schedule`.  ``sampling="fixed"`` is the one-chunk
   schedule ``(n_samples,)``: the paper's fixed-``n`` estimator.
   ``sampling="adaptive"`` draws **geometric chunks**
   (:func:`chunk_schedule`, default 16 → 32 → 64 → … capped at
   ``n_worlds_max``), because the decision is usually settled long before
   the fixed budget, while a borderline candidate deserves *more*.
2. **Bounds.** After every chunk but the last, **anytime-valid confidence
   radii** are computed for the per-triangle estimates: the tighter of a
   Hoeffding radius (:func:`hoeffding_radius`) and an empirical-Bernstein
   radius (:func:`empirical_bernstein_radius`, which shrinks like
   ``√(p(1−p)/n)`` and therefore wins away from ``p = ½`` — precisely the
   easy candidates).  Stage ``t`` spends error budget ``δ/(t(t+1))``
   (:func:`stage_delta`, a convergent series summing to δ), split evenly
   between the two bound families, so the *whole trajectory* errs with
   probability at most ``δ = 1 − confidence``.  Sampling **stops per
   candidate** as soon as the θ decision is settled for every triangle —
   all lower bounds clear θ (accept) or, in the global model, any upper
   bound falls below θ (reject).  At the last chunk the point estimate
   decides; a radius is never negative, so a bound that settles there
   would agree with it anyway, and the one-chunk fixed schedule computes no
   radius at all.
3. **Blocks.** Each chunk is drawn and counted in consecutive row blocks of
   at most :func:`block_rows` worlds (:func:`blocked_counts`), sized from
   the candidate's edges and 4-cliques under the byte budget
   :data:`WORLD_BLOCK_BYTES`, and the block counts are summed.  The counts
   are sums over worlds, and numpy's generator draws ``(a, m)`` then
   ``(b, m)`` exactly as one ``(a + b, m)`` draw, so blocks change neither
   the stream nor the answer; they bound peak memory for every candidate.
4. **Exact evaluation.** On small graphs :func:`exact_probabilities`
   enumerates every world in the same row blocks, for the hardness
   reductions (:mod:`repro.hardness`) and the sampling ablation.

Determinism: chunks and blocks are drawn and counted in order from one
numpy generator, so results are bit-identical for a fixed seed.

Every candidate records its world consumption into the
``repro_sampling_worlds_per_candidate`` histogram and bumps
``repro_sampling_early_stops_total`` (bounds settled before the last chunk)
or ``repro_sampling_exhausted_total`` (the point estimate decided) — see
``docs/OBSERVABILITY.md``; each block's verification batch reuses the
``sampling.verify`` span of the world-matrix engine.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import InvalidParameterError, _require_finite, _require_positive_int
from repro.graph.possible_worlds import MAX_ENUMERABLE_EDGES, _check_enumerable
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
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
    "WORLD_BLOCK_BYTES",
    "block_rows",
    "blocked_counts",
    "exact_probabilities",
    "adaptive_global_verify",
    "adaptive_weak_scores",
]

#: The two sampling strategies of the Monte-Carlo drivers.
SAMPLING_MODES = ("fixed", "adaptive")

#: Default decision confidence ``1 − δ`` of the sequential test.
DEFAULT_CONFIDENCE = 0.95

#: Default size of the first world chunk.
DEFAULT_CHUNK_INITIAL = 16

#: Default geometric growth factor between consecutive chunks.
DEFAULT_CHUNK_GROWTH = 2.0

#: Power-of-two buckets for the worlds-per-candidate histogram (1 … 16384).
WORLD_COUNT_BUCKETS: tuple[float, ...] = tuple(float(2**i) for i in range(15))

#: Byte budget of one world block.  A block of ``r`` worlds peaks at about
#: ``r · (8 · num_edges + 64 · num_cliques)`` bytes: the float64 uniform
#: draw per edge, and per present 4-clique the int64 (world, clique) and
#: edge-column indices of the edge-coverage scatter.
WORLD_BLOCK_BYTES = 16 * 2**20


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
        Hard cap on worlds drawn per candidate.  At the cap (the last chunk)
        the point estimate decides.
    chunk_initial / chunk_growth:
        First chunk size and the geometric factor between chunks.  With
        ``chunk_initial == n_worlds_max`` the schedule is one chunk: the
        fixed-``n`` estimator.
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
        # Keep the Python numbers the checks return, numpy scalars included.
        object.__setattr__(self, "confidence", confidence)
        for name, check in (
            ("n_worlds_max", _require_positive_int),
            ("chunk_initial", _require_positive_int),
            ("chunk_growth", _require_finite),
        ):
            object.__setattr__(self, name, check(name, getattr(self, name)))
        self.schedule()  # validates the chunk shape

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
    #: last chunk; ``False`` when the point estimate decided at the last
    #: chunk — always so for the one-chunk fixed schedule.
    early_stop: bool


def resolve_adaptive_settings(
    sampling: str = "fixed",
    confidence: float = DEFAULT_CONFIDENCE,
    n_worlds_max: int | None = None,
    chunk_initial: int = DEFAULT_CHUNK_INITIAL,
    chunk_growth: float = DEFAULT_CHUNK_GROWTH,
    n_samples: int | None = None,
) -> AdaptiveSettings:
    """Validate the sampling-strategy knobs and return the loop's settings.

    ``sampling="fixed"`` returns the one-chunk schedule ``(n_samples,)``.
    ``sampling="adaptive"`` returns the geometric schedule, whose cap
    ``n_worlds_max`` defaults to twice the fixed budget (hard borderline
    candidates may spend *more* than the fixed path would).  Without a known
    ``n_samples`` the fixed budget is 200.  Every knob is validated in both
    modes: an unknown ``sampling`` mode or any non-finite / out-of-range
    knob raises :class:`~repro.exceptions.InvalidParameterError` here
    instead of deep inside the world-matrix engine.  ``n_samples`` is
    checked by name before the cap is derived from it, so the error names
    the knob the caller passed.
    """
    if sampling not in SAMPLING_MODES:
        raise InvalidParameterError(
            f"sampling must be one of {SAMPLING_MODES}, got {sampling!r}"
        )
    budget = 200 if n_samples is None else _require_positive_int("n_samples", n_samples)
    settings = AdaptiveSettings(
        confidence=confidence,
        n_worlds_max=2 * budget if n_worlds_max is None else n_worlds_max,
        chunk_initial=chunk_initial,
        chunk_growth=chunk_growth,
    )
    if sampling == "fixed":
        return replace(settings, n_worlds_max=budget, chunk_initial=budget)
    return settings


def chunk_schedule(
    n_worlds_max: int,
    chunk_initial: int = DEFAULT_CHUNK_INITIAL,
    chunk_growth: float = DEFAULT_CHUNK_GROWTH,
) -> tuple[int, ...]:
    """The geometric chunk sizes summing exactly to ``n_worlds_max``.

    The nominal size starts at ``chunk_initial`` and multiplies by
    ``chunk_growth`` after every chunk; the final chunk is truncated so the
    cumulative draw never exceeds the cap.

    >>> chunk_schedule(400, 16, 2.0)
    (16, 32, 64, 128, 160)
    >>> chunk_schedule(10, 16, 2.0)
    (10,)
    """
    _require_positive_int("n_worlds_max", n_worlds_max)
    _require_positive_int("chunk_initial", chunk_initial)
    growth = _require_finite("chunk_growth", chunk_growth)
    if growth < 1.0:
        raise InvalidParameterError(
            f"chunk_growth must be a finite value >= 1, got {chunk_growth!r}"
        )
    sizes: list[int] = []
    total = 0
    nominal = float(chunk_initial)
    while total < n_worlds_max:
        step = min(max(1, int(nominal)), n_worlds_max - total)
        sizes.append(step)
        total += step
        nominal *= growth
    return tuple(sizes)


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
        "Worlds drawn per candidate by the Monte-Carlo verification loop.",
        buckets=WORLD_COUNT_BUCKETS,
        model=model,
    ).observe(outcome.worlds)
    if outcome.early_stop:
        obs_registry.counter(
            "repro_sampling_early_stops_total",
            "Candidates whose theta decision settled before their last chunk.",
            model=model,
        ).inc()
    else:
        obs_registry.counter(
            "repro_sampling_exhausted_total",
            "Candidates whose point estimate decided at their last chunk.",
            model=model,
        ).inc()


def block_rows(index: CandidateWorldIndex) -> int:
    """Worlds per block of ``index`` under :data:`WORLD_BLOCK_BYTES` (at least one)."""
    row_bytes = 8 * index.num_edges + 64 * index.num_cliques
    return max(1, WORLD_BLOCK_BYTES // max(1, row_bytes))


def blocked_counts(
    count: Callable[..., np.ndarray],
    index: CandidateWorldIndex,
    n_worlds: int,
    k: int,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> np.ndarray:
    """Draw ``n_worlds`` worlds in consecutive row blocks and sum their counts.

    ``count`` is :func:`~repro.sampling.world_matrix.global_triangle_counts`
    or :func:`~repro.sampling.world_matrix.weak_membership_counts`.  Each
    block holds at most :func:`block_rows` worlds; the result and the
    generator's final state equal one ``index.sample(n_worlds)`` draw counted
    in one call.
    """
    generator = as_numpy_generator(rng, seed)
    rows = block_rows(index)
    counts = np.zeros(index.num_triangles, dtype=np.int64)
    for start in range(0, n_worlds, rows):
        worlds = index.sample(min(rows, n_worlds - start), rng=generator)
        counts += count(index, worlds, k)
    return counts


def exact_probabilities(
    membership: Callable[..., np.ndarray],
    index: CandidateWorldIndex,
    k: int,
    max_edges: int = MAX_ENUMERABLE_EDGES,
) -> np.ndarray:
    """Exact ``Pr(X_{H,△,g} ≥ k)`` or ``Pr(X_{H,△,w} ≥ k)`` of every triangle row.

    ``membership`` is :func:`~repro.sampling.world_matrix.global_membership`
    or :func:`~repro.sampling.world_matrix.weak_membership`.  World ``c`` of
    the ``2^m`` holds edge column ``j`` iff bit ``j`` of ``c`` is set; the
    worlds are enumerated in :func:`block_rows` blocks, and each world's
    probability (Equation 1) is added to the triangles it holds.  More than
    ``max_edges`` edges raise the error of
    :func:`~repro.graph.possible_worlds.enumerate_worlds`, before any world.
    """
    _check_enumerable(index.num_edges, max_edges)
    p = index.edge_probabilities
    bits = np.arange(p.size)
    n_worlds = 2**p.size
    rows = block_rows(index)
    probabilities = np.zeros(index.num_triangles)
    for start in range(0, n_worlds, rows):
        codes = np.arange(start, min(start + rows, n_worlds))
        worlds = (codes[:, None] >> bits) & 1 == 1
        weights = np.where(worlds, p, 1.0 - p).prod(axis=1)
        probabilities += weights @ membership(index, worlds, k)
    return np.minimum(probabilities, 1.0)


def adaptive_global_verify(
    index: CandidateWorldIndex,
    k: int,
    theta: float,
    settings: AdaptiveSettings,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> tuple[bool, AdaptiveOutcome]:
    """Decide the global-model verification of one candidate.

    The decision is "every triangle's estimated probability of (world is a
    k-nucleus ∧ world contains the triangle) reaches θ".  Before the last
    chunk of ``settings.schedule()`` the confidence radii may settle it:
    **reject** once any triangle's upper bound falls below θ (one hopeless
    triangle sinks the candidate), **accept** once every triangle's lower
    bound reaches θ.  At the last chunk the point estimates decide.

    Returns ``(passes, outcome)``.
    """
    if index.num_triangles == 0:
        return False, AdaptiveOutcome(worlds=0, chunks=0, early_stop=True)
    generator = as_numpy_generator(rng, seed)
    schedule = settings.schedule()
    counts = np.zeros(index.num_triangles, dtype=np.int64)
    drawn = 0
    decided: bool | None = None
    for stage, chunk in enumerate(schedule, start=1):
        counts += blocked_counts(global_triangle_counts, index, chunk, k, rng=generator)
        drawn += chunk
        means = counts / drawn
        if stage == len(schedule):
            break
        radius = decision_radius(drawn, means, stage_delta(settings.delta, stage))
        if bool(np.any(means + radius < theta)):
            decided = False
            break
        if bool(np.all(means - radius >= theta)):
            decided = True
            break
    early = decided is not None
    passes = decided if early else bool(np.all(means >= theta))
    outcome = AdaptiveOutcome(worlds=drawn, chunks=stage, early_stop=early)
    _record_outcome("global", outcome)
    return passes, outcome


def adaptive_weak_scores(
    index: CandidateWorldIndex,
    k: int,
    theta: float,
    settings: AdaptiveSettings,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray, AdaptiveOutcome]:
    """Decide, per triangle, whether its weak score reaches θ.

    Every chunk still scores *all* triangles of the candidate (the weak
    fixed point is shared work), so before the last chunk the candidate
    keeps sampling until **every** triangle's decision is settled — a
    triangle is settled once its lower bound reaches θ (qualifies) or its
    upper bound falls below θ (does not).  Triangles still undecided at the
    last chunk fall back to their point estimates.

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
    schedule = settings.schedule()
    counts = np.zeros(num_triangles, dtype=np.int64)
    qualifying = np.zeros(num_triangles, dtype=bool)
    settled = np.zeros(num_triangles, dtype=bool)
    drawn = 0
    early = False
    for stage, chunk in enumerate(schedule, start=1):
        counts += blocked_counts(weak_membership_counts, index, chunk, k, rng=generator)
        drawn += chunk
        means = counts / drawn
        if stage == len(schedule):
            break
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
