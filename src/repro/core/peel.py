"""Array-native peeling engine shared by the CSR decomposition paths.

Algorithm 1's peel loop — "repeatedly remove an unprocessed triangle of
minimum κ, kill every 4-clique through it, repair the κ-scores of the
affected triangles" — historically ran over per-triangle dataclasses holding
dicts of canonical 4-clique tuples, rebuilt from the CSR arrays after the
vectorized initialization.  This module keeps the whole loop in flat-array
space instead:

* the triangle ⇄ 4-clique incidence is the postings structure of
  :class:`repro.core.batch.CSRTriangleIndex` — integer ids and parallel
  float arrays, no ``Triangle``/``FourClique`` tuples, no per-triangle
  dicts or dataclasses anywhere in the loop;
* for *monotone* repairs the priority queue is a **bucket queue** over
  κ-values (the structure used by deterministic k-core peeling,
  Batagelj–Zaveršnik): an ``order`` array partitioned into buckets with
  O(1) re-keying by swap, replacing the lazy min-heap and its stale-entry
  churn, with exact repairs deferred to the queue front via the unit-drop
  lower bound (see :attr:`KappaRepair.unit_drop`); non-monotone repairs
  instead replay the reference loop's lazy-heap trajectory over integer
  rows, because their scores depend on the exact repair schedule;
* score repair is pluggable through :class:`KappaRepair`:
  :class:`EstimatorKappaRepair` wraps any
  :class:`~repro.core.approximations.SupportEstimator` (exact DP and every
  §5.3 approximation), and :class:`MonteCarloKappaRepair` estimates the
  support tail by sampling — so exact, approximate, and Monte-Carlo
  recomputation all plug into the same loop.

The engine produces exactly the scores of the dict-backed reference loop:
for the exact oracle the peel value of a triangle is the generalized-core
number of a monotone local score function, independent of the order in
which minimum triangles are peeled; for the approximations the trajectory
itself is replicated.  The surviving extension probabilities are summed in
canonical completing-vertex order.  ``tests/test_peel_engine.py`` and
``tests/test_backend_parity.py`` pin the parity against the dict oracle on
every fixture, estimator, and a randomized graph sweep.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.core.batch import CSRTriangleIndex
from repro.core.support_dp import NO_VALID_K
from repro.exceptions import InvalidParameterError
from repro.kernels import record_dispatch, resolve_kernel
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.spans import span
from repro.peeling import LazyMinHeap

__all__ = [
    "KappaRepair",
    "EstimatorKappaRepair",
    "MonteCarloKappaRepair",
    "peel_kappa_scores",
    "repair_kappa_scores",
]


class KappaRepair(ABC):
    """Strategy recomputing a triangle's κ-score from its surviving cliques.

    The peel loop calls :meth:`recompute` whenever a 4-clique through an
    unprocessed triangle dies (or, for unit-drop repairs, when the triangle
    reaches the queue front); implementations see only the triangle's row id
    and the extension probabilities of its surviving 4-cliques (in completing-
    vertex order), and return the repaired κ — the largest ``k`` for which the
    triangle still satisfies the threshold condition, or
    :data:`~repro.core.support_dp.NO_VALID_K`.
    """

    #: Short identifier used in logs and benchmark reports.
    name: str = "abstract"

    #: Whether one clique death can lower this repair's κ by at most one.
    #: For the *exact* Poisson-binomial tail this always holds — dropping one
    #: Bernoulli variable ``E`` satisfies ``Pr[ζ − E ≥ k] ≥ Pr[ζ ≥ k + 1]``,
    #: so the qualifying ``k`` shrinks by at most one — and the peel engine
    #: then defers exact recomputation until the triangle reaches the queue
    #: front, tracking a cheap lower bound in between.  The §5.3
    #: approximations do *not* guarantee the property (e.g. the Poisson tail
    #: at rate ``λ − 1`` can undercut the exact unit-drop bound), so they
    #: leave this ``False`` and are repaired eagerly on every death.
    unit_drop: bool = False

    @abstractmethod
    def recompute(self, triangle: int, surviving_probabilities: Sequence[float]) -> int:
        """Return the repaired κ-score of triangle row ``triangle``."""


class EstimatorKappaRepair(KappaRepair):
    """Repair κ with a :class:`SupportEstimator` (exact DP or any §5.3 approximation).

    This is the hook the decomposition entry points install: it evaluates the
    same ``max_k`` the dict reference loop calls during its repairs, so the
    two score identically.
    """

    def __init__(
        self,
        estimator: SupportEstimator,
        triangle_probabilities: np.ndarray,
        theta: float,
    ) -> None:
        self.estimator = estimator
        self.theta = theta
        self.name = estimator.name
        # Only the unmodified exact oracle is known to satisfy unit-drop;
        # subclasses may override max_k arbitrarily, so match the type
        # exactly rather than with isinstance.
        self.unit_drop = type(estimator) is DynamicProgrammingEstimator
        self._triangle_probabilities = triangle_probabilities.tolist()

    def recompute(self, triangle: int, surviving_probabilities: Sequence[float]) -> int:
        return self.estimator.max_k(
            self._triangle_probabilities[triangle], surviving_probabilities, self.theta
        )


class MonteCarloKappaRepair(KappaRepair):
    """Repair κ by Monte-Carlo estimation of the support tail.

    Samples ``n_samples`` joint realisations of the surviving extension
    indicators and uses the empirical tail ``#{samples with ≥ k successes}/n``
    in place of the exact Poisson-binomial tail.  With all-certain extension
    probabilities the estimate is exact; otherwise it concentrates around the
    DP answer at the usual Hoeffding rate.  Deterministic for a fixed seed.
    """

    name = "monte-carlo"

    def __init__(
        self,
        triangle_probabilities: np.ndarray,
        theta: float,
        n_samples: int = 200,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> None:
        if n_samples <= 0:
            raise InvalidParameterError(f"n_samples must be positive, got {n_samples}")
        self.theta = theta
        self.n_samples = n_samples
        self._triangle_probabilities = triangle_probabilities.tolist()
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    def recompute(self, triangle: int, surviving_probabilities: Sequence[float]) -> int:
        probability = self._triangle_probabilities[triangle]
        count = len(surviving_probabilities)
        if count == 0:
            return 0 if probability >= self.theta else NO_VALID_K
        draws = self._rng.random((self.n_samples, count)) < np.asarray(
            surviving_probabilities
        )
        successes = np.bincount(draws.sum(axis=1), minlength=count + 1)
        tails = np.cumsum(successes[::-1])[::-1] / self.n_samples
        best = NO_VALID_K
        for k in range(count + 1):
            if probability * float(tails[k]) >= self.theta:
                best = k
            else:
                break
        return best


def repair_kappa_scores(
    index: CSRTriangleIndex,
    base_scores: np.ndarray,
    seeds: np.ndarray,
    repair: KappaRepair,
) -> np.ndarray:
    """Repair nucleus scores after a localized change instead of re-peeling.

    ``base_scores`` are the scores of a previous :func:`peel_kappa_scores`
    run mapped onto the rows of (the possibly rebuilt) ``index``; ``seeds``
    are the rows whose κ-inputs changed — newborn triangles, and surviving
    triangles whose triangle probability or 4-clique postings differ from
    the run that produced ``base_scores`` (their ``base_scores`` entries are
    ignored).  Returns the exact score array ``peel_kappa_scores(index,
    initial_kappas, repair)`` would produce, touching only the affected
    region.

    Only *unit-drop* repairs (the exact DP oracle) are supported: their peel
    output is order-independent — triangle ``t``'s score is the largest
    ``k`` such that ``t`` survives in the maximal set ``S_k`` where every
    member's recomputed κ over the cliques staying inside ``S_k`` is ≥ k, a
    greatest fixed point that localized repair can converge to from any
    pointwise upper bound.  The repair runs in two phases:

    1. **Increase closure** — a clean triangle's score can only grow through
       a chain of score increases rooted at a seed: if ``ν_new(t) = k >
       ν_old(t)`` with ``t``'s own inputs unchanged, some 4-clique of ``t``
       has every other member at ``ν_new ≥ k`` and at least one of them is
       a seed or has itself increased past ``k`` (otherwise the same clique
       already certified ``t`` at ``k`` before the change).  The closure
       therefore grows from the seeds along 4-cliques, admitting a member
       ``m`` when ``min`` of the members' initial κ (a static upper bound
       on any new score) exceeds ``base_scores[m]`` — triangles that fail
       that test cannot increase, so everything outside the closure keeps
       ``base_scores`` as a valid upper bound.
    2. **Downward fixed point** — starting from the upper bound ``ν̂`` =
       initial κ on the closure / ``base_scores`` elsewhere, repeatedly
       re-evaluate ``f(t) = max {k ≤ ν̂(t) :`` recompute over the cliques
       whose other members all have ``ν̂ ≥ k`` is ``≥ k}``, lowering ``ν̂``
       and re-queueing affected co-members until nothing moves.  Survivor
       probabilities are gathered in posting-slice order, the same order the
       peel engine sums them, so the floating-point comparisons agree
       bit-for-bit.  The evaluation steps ``k`` down one level at a time —
       the survivor set grows as ``k`` falls, so a failed level cannot be
       skipped — except that once every posting survives, lowering ``k``
       further cannot change the recompute and the result is taken
       directly.

    ``tests/test_incremental.py`` pins equality with the full peel on
    randomized graphs and update batches.
    """
    if not repair.unit_drop:
        raise InvalidParameterError(
            "repair_kappa_scores requires a unit-drop repair (the exact DP "
            f"oracle); got {repair.name!r}, whose scores depend on the full "
            "peel trajectory"
        )
    num_triangles = index.num_triangles
    base_scores = np.asarray(base_scores, dtype=np.int64)
    if base_scores.shape != (num_triangles,):
        raise InvalidParameterError(
            "base_scores must be parallel to index.triangles "
            f"(expected shape ({num_triangles},), got {base_scores.shape})"
        )
    scores = base_scores.copy()
    seeds = np.unique(np.asarray(seeds, dtype=np.int64).reshape(-1))
    if seeds.size == 0:
        return scores
    if seeds[0] < 0 or seeds[-1] >= num_triangles:
        raise InvalidParameterError(
            f"seed rows must lie in [0, {num_triangles}), got "
            f"[{int(seeds[0])}, {int(seeds[-1])}]"
        )

    nu: list[int] = scores.tolist()
    base: list[int] = base_scores.tolist()
    indptr: list[int] = index.tri_clique_indptr.tolist()
    ext: list[float] = index.tri_extension_probabilities.tolist()
    pair_cliques: list[int] = index.tri_cliques.tolist()
    clique_members: list[list[int]] = index.clique_triangles.tolist()
    recompute = repair.recompute

    kappa_init: dict[int, int] = {}

    def init_of(t: int) -> int:
        value = kappa_init.get(t)
        if value is None:
            value = recompute(t, ext[indptr[t]:indptr[t + 1]])
            kappa_init[t] = value
        return value

    # --- phase 1: closure of triangles whose score may have increased ----- #
    in_closure = [False] * num_triangles
    joined: list[int] = []
    for s in seeds.tolist():
        in_closure[s] = True
        joined.append(s)
    stack = list(joined)
    while stack:
        t = stack.pop()
        for p in range(indptr[t], indptr[t + 1]):
            members = clique_members[pair_cliques[p]]
            # min κ_init over all four members bounds the level any member
            # could rise to through this clique.
            bound = min(init_of(x) for x in members)
            for m in members:
                if in_closure[m] or bound <= base[m]:
                    continue
                in_closure[m] = True
                joined.append(m)
                stack.append(m)

    # --- phase 2: greatest fixed point from the upper bound --------------- #
    for t in joined:
        nu[t] = init_of(t)
    in_queue = [False] * num_triangles
    work: deque[int] = deque()

    def enqueue(m: int) -> None:
        if not in_queue[m]:
            in_queue[m] = True
            work.append(m)

    for t in joined:
        enqueue(t)
        for p in range(indptr[t], indptr[t + 1]):
            for m in clique_members[pair_cliques[p]]:
                enqueue(m)

    fixed_point_repairs = 0
    while work:
        t = work.popleft()
        in_queue[t] = False
        k = nu[t]
        if k <= NO_VALID_K:
            continue
        start, stop = indptr[t], indptr[t + 1]
        total = stop - start
        while True:
            survivors = []
            for p in range(start, stop):
                for m in clique_members[pair_cliques[p]]:
                    if m != t and nu[m] < k:
                        break
                else:
                    survivors.append(ext[p])
            fixed_point_repairs += 1
            result = recompute(t, survivors)
            if result >= k:
                break
            if len(survivors) == total:
                # Lowering k cannot add survivors: the recompute is final.
                k = result
                break
            k -= 1
        if k < nu[t]:
            nu[t] = k
            for p in range(start, stop):
                for m in clique_members[pair_cliques[p]]:
                    if m != t and nu[m] > k:
                        enqueue(m)

    scores[:] = nu
    if obs_config._ENABLED:
        counter = obs_registry.counter
        counter(
            "repro_peel_localized_seeds_total",
            "Seed rows handed to repair_kappa_scores (incremental repairs).",
        ).inc(int(seeds.size))
        counter(
            "repro_peel_localized_repairs_total",
            "Repair-hook invocations during localized (incremental) repair.",
        ).inc(len(kappa_init) + fixed_point_repairs)
    return scores


def peel_kappa_scores(
    index: CSRTriangleIndex,
    initial_kappas: np.ndarray,
    repair: KappaRepair,
    kernel: str = "numpy",
) -> np.ndarray:
    """Peel every triangle of ``index`` and return its nucleus score ν.

    ``kernel="numba"`` dispatches to the compiled loops of
    :mod:`repro.kernels.peel` when the repair supports them: the unit-drop
    (exact-DP) bucket queue — bit-identical, the Poisson-binomial repair
    stays in Python behind a batched callback — and the fully-jitted
    Monte-Carlo lazy heap (distribution-identical; numba draws its own
    variate stream).  Other repairs — the §5.3 approximated tails, whose
    scores are trajectory-sensitive — always run the reference numpy loop,
    as does everything when numba is not installed.

    When observability is on (``REPRO_OBS``), the run is wrapped in a
    ``"peel"`` span (carrying the resolved ``kernel``) and feeds the
    ``repro_peel_*`` counters — queue pops, repair-hook invocations, and
    unit-drop lazy-bound deferrals — with the counts accumulated in
    loop-local integers so the disabled-mode overhead stays within the
    CI-gated 3% of the uninstrumented loop (see ``docs/OBSERVABILITY.md``).
    """
    engine = resolve_kernel(kernel)
    if engine == "numba" and not (
        repair.unit_drop or isinstance(repair, MonteCarloKappaRepair)
    ):
        engine = "numpy"
    with span(
        "peel",
        triangles=index.num_triangles,
        repair=repair.name,
        queue="bucket" if repair.unit_drop else "heap",
        kernel=engine,
    ):
        record_dispatch("peel", engine)
        if engine == "numba":
            return _peel_kappa_scores_kernel(index, initial_kappas, repair)
        return _peel_kappa_scores(index, initial_kappas, repair)


def _peel_kappa_scores_kernel(
    index: CSRTriangleIndex,
    initial_kappas: np.ndarray,
    repair: KappaRepair,
) -> np.ndarray:
    """Drive the compiled peel loops of :mod:`repro.kernels.peel`."""
    num_triangles = index.num_triangles
    if initial_kappas.shape != (num_triangles,):
        raise InvalidParameterError(
            "initial_kappas must be parallel to index.triangles "
            f"(expected shape ({num_triangles},), got {initial_kappas.shape})"
        )
    if num_triangles == 0:
        return np.full(0, NO_VALID_K, dtype=np.int64)
    from repro.kernels import peel as kernel_peel

    if repair.unit_drop:
        scores, repairs, deferrals = kernel_peel.peel_unit_drop(
            index, initial_kappas, repair
        )
    else:
        scores, repairs, deferrals = kernel_peel.peel_monte_carlo(
            index, initial_kappas, repair
        )
    if obs_config._ENABLED:
        _record_peel_metrics(repair, num_triangles, repairs, deferrals)
    return scores


def _record_peel_metrics(repair: KappaRepair, pops: int, repairs: int, deferrals: int) -> None:
    """Fold one peel run's loop-local counts into the metrics registry."""
    counter = obs_registry.counter
    counter(
        "repro_peel_pops_total",
        "Triangles popped from the peel queue (bucket or lazy heap).",
    ).inc(pops)
    counter(
        "repro_peel_repairs_total",
        "Repair-hook (KappaRepair.recompute) invocations during peeling.",
        repair=repair.name,
    ).inc(repairs)
    counter(
        "repro_peel_deferrals_total",
        "Unit-drop bucket steps taken in place of an eager exact repair.",
    ).inc(deferrals)


def _peel_kappa_scores(
    index: CSRTriangleIndex,
    initial_kappas: np.ndarray,
    repair: KappaRepair,
) -> np.ndarray:
    """The peel loop itself (see :func:`peel_kappa_scores`).

    Runs Algorithm 1's loop entirely over the flat incidence arrays of
    ``index``: triangles are integer rows, 4-cliques are integer rows, and
    liveness is a pair of boolean lists — the loop allocates no per-triangle
    Python objects (no tuples, dicts, or dataclasses), only the transient
    surviving-probability buffer each :class:`KappaRepair` call consumes.

    Two queue disciplines drive the loop, selected by the repair's
    :attr:`~KappaRepair.unit_drop` capability:

    * **Bucket queue** (unit-drop repairs, i.e. the exact DP oracle) — a
      bucket queue over κ-values offset by one (the ``-1`` sentinel of
      below-θ triangles occupies bucket 0 and is peeled first): ``order``
      holds the triangle rows partitioned by bucket, ``position`` inverts
      it, and ``bucket_start[b]`` marks where bucket ``b`` begins.  A
      clique death just steps the affected triangles one bucket down — an
      O(1) swap, valid as a lower bound precisely because of unit-drop —
      and the exact repair is deferred until the triangle reaches the
      queue front.  Scores of a monotone repair are peel-order
      independent, so this reproduces the reference loop's output exactly
      while skipping most of its intermediate repairs.
    * **Lazy min-heap** (everything else) — the §5.3 approximated tails
      are not monotone under clique removal (a death can *raise* κ), which
      makes the final scores sensitive to the exact pop/repair schedule.
      The engine therefore replays the reference loop's trajectory
      verbatim: a :class:`~repro.peeling.LazyMinHeap` over
      ``(κ, triangle row)`` entries with per-death repairs and re-pushes —
      row order coincides with canonical triangle order under the CSR
      relabelling, so ties break exactly as in the dict reference loop.

    Returns the ``int64`` score array parallel to ``index.triangles``; the
    assigned scores are clamped to the running peel level exactly like the
    reference loop, so levels are monotone along the peel order.
    """
    num_triangles = index.num_triangles
    if initial_kappas.shape != (num_triangles,):
        raise InvalidParameterError(
            "initial_kappas must be parallel to index.triangles "
            f"(expected shape ({num_triangles},), got {initial_kappas.shape})"
        )
    scores = np.full(num_triangles, NO_VALID_K, dtype=np.int64)
    if num_triangles == 0:
        return scores

    kappa: list[int] = initial_kappas.tolist()
    indptr: list[int] = index.tri_clique_indptr.tolist()
    pair_probabilities: list[float] = index.tri_extension_probabilities.tolist()
    pair_alive: list[bool] = [True] * len(pair_probabilities)
    clique_members: list[list[int]] = index.clique_triangles.tolist()
    clique_positions: list[list[int]] = index.clique_pair_positions.tolist()
    pair_cliques: list[int] = index.tri_cliques.tolist()

    def surviving_of(m: int) -> list[float]:
        return [
            pair_probabilities[p]
            for p in range(indptr[m], indptr[m + 1])
            if pair_alive[p]
        ]

    out: list[int] = [NO_VALID_K] * num_triangles
    recompute = repair.recompute

    repairs = 0

    if not repair.unit_drop:
        # --- lazy min-heap: replay the reference trajectory exactly ------- #
        heap = LazyMinHeap((kappa[t], t) for t in range(num_triangles))
        processed = [False] * num_triangles

        def current(m: int) -> int | None:
            return None if processed[m] else kappa[m]

        level = NO_VALID_K
        while (entry := heap.pop(current)) is not None:
            _, t = entry
            if kappa[t] > level:
                level = kappa[t]
            out[t] = level
            processed[t] = True
            for j in range(indptr[t], indptr[t + 1]):
                if not pair_alive[j]:
                    continue
                c = pair_cliques[j]
                for pair_position in clique_positions[c]:
                    pair_alive[pair_position] = False
                for m in clique_members[c]:
                    if m == t or processed[m]:
                        continue
                    if kappa[m] > level:
                        repairs += 1
                        new = recompute(m, surviving_of(m))
                        if new < level:
                            new = level
                        kappa[m] = new
                        heap.push(new, m)
        scores[:] = out
        if obs_config._ENABLED:
            _record_peel_metrics(repair, num_triangles, repairs, 0)
        return scores

    # --- bucket queue ----------------------------------------------------- #
    # Bucket of a triangle = κ + 1; repairs can push κ up to the largest
    # support size, so size the bucket table for max(initial κ, max support).
    max_support = max(indptr[i + 1] - indptr[i] for i in range(num_triangles))
    num_buckets = max(max(kappa), max_support) + 2
    counts = [0] * num_buckets
    for value in kappa:
        counts[value + 1] += 1
    bucket_start = [0] * (num_buckets + 1)
    for b in range(num_buckets):
        bucket_start[b + 1] = bucket_start[b] + counts[b]
    fill = list(bucket_start)
    order = [0] * num_triangles
    position = [0] * num_triangles
    for t in range(num_triangles):
        p = fill[kappa[t] + 1]
        order[p] = t
        position[t] = p
        fill[kappa[t] + 1] = p + 1

    def move(m: int, old: int, new: int) -> None:
        """Re-key triangle ``m`` from bucket ``old + 1`` to ``new + 1``."""
        if new < old:
            for b in range(old + 1, new + 1, -1):
                start = bucket_start[b]
                displaced = order[start]
                where = position[m]
                order[where] = displaced
                order[start] = m
                position[displaced] = where
                position[m] = start
                bucket_start[b] = start + 1
        else:
            for b in range(old + 2, new + 2):
                last = bucket_start[b] - 1
                displaced = order[last]
                where = position[m]
                order[where] = displaced
                order[last] = m
                position[displaced] = where
                position[m] = last
                bucket_start[b] = last

    level = NO_VALID_K
    deferrals = 0
    dirty = [False] * num_triangles
    for i in range(num_triangles):
        # The queue holds lower bounds; settle the front before peeling: a
        # dirty front triangle is recomputed exactly, and if its true κ
        # exceeds the bound it moves right, pulling the next candidate into
        # position ``i``.
        t = order[i]
        while dirty[t]:
            dirty[t] = False
            repairs += 1
            exact = recompute(t, surviving_of(t))
            if exact < level:
                exact = level
            if exact <= kappa[t]:
                break
            move(t, kappa[t], exact)
            kappa[t] = exact
            t = order[i]
        if kappa[t] > level:
            level = kappa[t]
        out[t] = level

        # Every 4-clique through the peeled triangle dies; each affected
        # triangle steps one bucket down per lost clique (unit-drop keeps
        # the bound valid) and its exact κ is deferred to its own pop.
        for j in range(indptr[t], indptr[t + 1]):
            if not pair_alive[j]:
                continue
            c = pair_cliques[j]
            for pair_position in clique_positions[c]:
                pair_alive[pair_position] = False
            for m in clique_members[c]:
                if m == t or position[m] <= i:
                    continue
                old = kappa[m]
                if old <= level:
                    continue
                deferrals += 1
                move(m, old, old - 1)
                kappa[m] = old - 1
                dirty[m] = True

    scores[:] = out
    if obs_config._ENABLED:
        _record_peel_metrics(repair, num_triangles, repairs, deferrals)
    return scores
