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
* for *monotone* repairs (the exact DP oracle) the loop runs in
  **level-synchronous rounds**: every triangle at the current level is
  peeled at once, every 4-clique through them dies at once, and the exact
  repairs of a round are one batched call of the κ-init DP kernel, deferred
  until a triangle's unit-drop lower bound reaches the level (see
  :attr:`KappaRepair.unit_drop`) — the synchronous peel of Sarıyüce,
  Seshadhri and Pinar (VLDB 2018); non-monotone repairs instead replay the
  reference loop's lazy-heap trajectory over integer rows, because their
  scores depend on the exact repair schedule;
* score repair is pluggable through :class:`KappaRepair`:
  :class:`EstimatorKappaRepair` wraps any
  :class:`~repro.core.approximations.SupportEstimator`, so the exact DP
  and every §5.3 approximation plug into the same loop.

The engine produces exactly the scores of the dict-backed reference loop:
for the exact oracle the peel value of a triangle is the generalized-core
number of a monotone local score function, independent of the order in
which minimum triangles are peeled and of how many are peeled together;
for the approximations the trajectory itself is replicated.  The surviving
extension probabilities are summed in canonical completing-vertex order.
``tests/test_peel_engine.py`` and ``tests/test_backend_parity.py`` pin the
parity against the dict oracle on every fixture, estimator, and a
randomized graph sweep.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.core.batch import CSRTriangleIndex, _dp_tails, _max_k_from_tails, _postings_of
from repro.core.support_dp import NO_VALID_K
from repro.exceptions import InvalidParameterError, check_theta
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.spans import span
from repro.peeling import LazyMinHeap

__all__ = [
    "KappaRepair",
    "EstimatorKappaRepair",
    "peel_kappa_scores",
    "repair_kappa_scores",
]


class KappaRepair(ABC):
    """Strategy recomputing a triangle's κ-score from its surviving cliques.

    The peel loop calls :meth:`recompute` whenever a 4-clique through an
    unprocessed triangle dies (for unit-drop repairs, :meth:`recompute_rows`
    once per round, when the triangles' bounds reach the peel level);
    implementations see only the triangle's row id and the extension
    probabilities of its surviving 4-cliques (in completing-vertex order),
    and return the repaired κ — the largest ``k`` for which the triangle
    still satisfies the threshold condition, or
    :data:`~repro.core.support_dp.NO_VALID_K`.
    """

    #: Short identifier used in logs and benchmark reports.
    name: str = "abstract"

    #: Whether one clique death can lower this repair's κ by at most one.
    #: For the *exact* Poisson-binomial tail this always holds — dropping one
    #: Bernoulli variable ``E`` satisfies ``Pr[ζ − E ≥ k] ≥ Pr[ζ ≥ k + 1]``,
    #: so the qualifying ``k`` shrinks by at most one — and the peel engine
    #: then defers exact recomputation until that bound reaches the peel
    #: level, tracking a cheap lower bound in between.  The localized
    #: :func:`repair_kappa_scores` also needs κ non-decreasing in each input
    #: probability (``Pr(△)`` and every posting's) and in the set of live
    #: postings, so that a row whose inputs only fell keeps its old score as
    #: an upper bound; the exact DP has both, and its float evaluation too
    #: unless some ``Pr(△)`` lies on θ (:func:`_on_theta`).  The §5.3
    #: approximations do *not* guarantee the property (e.g. the Poisson tail
    #: at rate ``λ − 1`` can undercut the exact unit-drop bound), so they
    #: leave this ``False`` and are repaired eagerly on every death.
    unit_drop: bool = False

    @abstractmethod
    def recompute(self, triangle: int, surviving_probabilities: Sequence[float]) -> int:
        """Return the repaired κ-score of triangle row ``triangle``."""

    def recompute_rows(
        self, index: CSRTriangleIndex, rows: np.ndarray, live: np.ndarray
    ) -> np.ndarray:
        """Return the repaired κ-scores of the triangle rows ``rows`` (``int64``).

        ``live`` flags the postings of ``index`` (positions in its pair
        arrays) whose 4-clique survives; a row's surviving probabilities are
        its live postings in posting order.  The level-synchronous peel makes
        one call per round, :func:`repair_kappa_scores` one per closure round
        and fixed-point step.  This default runs :meth:`recompute` row by
        row.
        """
        starts = index.tri_clique_indptr[rows].tolist()
        stops = index.tri_clique_indptr[rows + 1].tolist()
        probabilities = index.tri_extension_probabilities
        kappas = np.empty(rows.size, dtype=np.int64)
        for i, (t, start, stop) in enumerate(zip(rows.tolist(), starts, stops)):
            kappas[i] = self.recompute(t, probabilities[start:stop][live[start:stop]].tolist())
        return kappas


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
        check_theta(theta)
        self.estimator = estimator
        self.theta = theta
        self.name = estimator.name
        # Only the unmodified exact oracle is known to satisfy unit-drop;
        # subclasses may override max_k arbitrarily, so match the type
        # exactly rather than with isinstance.
        self.unit_drop = type(estimator) is DynamicProgrammingEstimator
        self._probability_array = np.asarray(triangle_probabilities, dtype=np.float64)
        self._triangle_probabilities = self._probability_array.tolist()

    def recompute(self, triangle: int, surviving_probabilities: Sequence[float]) -> int:
        return self.estimator.max_k(
            self._triangle_probabilities[triangle], surviving_probabilities, self.theta
        )

    def recompute_rows(
        self, index: CSRTriangleIndex, rows: np.ndarray, live: np.ndarray
    ) -> np.ndarray:
        """The exact DP of a whole batch through the κ-init kernel.

        Rows are padded within power-of-two posting-count classes, so a row
        pads to less than twice its posting count, and each class is one
        :func:`~repro.core.batch._dp_tails` matrix.  The kernel holds the
        class's pmf levels × rows and updates it in place, one posting
        column per step over only the levels reachable so far.  A dead
        posting enters as ``p = 0``, an exact identity of the recurrence
        (``x·1.0 + y·0.0 = x``), and the trailing padding only appends zero
        mass above the row's postings, so every tail a row reads is
        bit-identical to the scalar DP over its live postings.  The max-k is
        capped at the live count: at θ = 0 the zero tails above it would
        qualify too.  Other estimators fall back to the scalar loop.
        """
        if not self.unit_drop:
            return super().recompute_rows(index, rows, live)
        indptr = index.tri_clique_indptr
        probabilities = index.tri_extension_probabilities
        starts = indptr[rows]
        sizes = indptr[rows + 1] - starts
        kappas = np.empty(rows.size, dtype=np.int64)
        # frexp's exponent is the bit length: class c holds sizes in
        # [2^(c-1), 2^c), class 0 the rows without postings.
        size_classes = np.frexp(sizes.astype(np.float64))[1]
        for size_class in np.unique(size_classes).tolist():
            members = np.flatnonzero(size_classes == size_class)
            columns = np.arange(int(sizes[members].max()))
            inside = columns < sizes[members, None]
            positions = np.where(inside, starts[members, None] + columns, 0)
            present = inside & live[positions]
            tails = _dp_tails(np.where(present, probabilities[positions], 0.0))
            best = _max_k_from_tails(self._probability_array[rows[members]], tails, self.theta)
            kappas[members] = np.minimum(best, present.sum(axis=1))
        return kappas


def _checked_scores(name: str, values, num_triangles: int) -> np.ndarray:
    """``values`` as an array, checked as per-triangle κ or ν values.

    Raises :class:`InvalidParameterError` naming ``name`` unless the array
    is parallel to the triangle rows, of an integer dtype (``bool`` is not),
    and ≥ :data:`~repro.core.support_dp.NO_VALID_K` throughout.
    """
    values = np.asarray(values)
    if values.shape != (num_triangles,):
        raise InvalidParameterError(
            f"{name} must be parallel to index.triangles "
            f"(expected shape ({num_triangles},), got {values.shape})"
        )
    if not np.issubdtype(values.dtype, np.integer):
        raise InvalidParameterError(
            f"{name} must be an integer array, got dtype {values.dtype}"
        )
    if num_triangles and int(values.min()) < NO_VALID_K:
        raise InvalidParameterError(
            f"{name} must be >= {NO_VALID_K} (NO_VALID_K), got {int(values.min())}"
        )
    return values


def _checked_rows(name: str, rows, num_triangles: int) -> np.ndarray:
    """``rows`` as an ascending, duplicate-free ``int64`` array of triangle rows.

    Raises :class:`InvalidParameterError` naming ``name`` unless every entry
    is an integer (``bool`` is not) in ``[0, num_triangles)``.
    """
    rows = np.asarray(rows)
    if rows.size and not np.issubdtype(rows.dtype, np.integer):
        raise InvalidParameterError(
            f"{name} must be an integer array of triangle rows, got dtype {rows.dtype}"
        )
    rows = np.unique(rows.astype(np.int64).reshape(-1))
    if rows.size and (rows[0] < 0 or rows[-1] >= num_triangles):
        raise InvalidParameterError(
            f"{name} must lie in [0, {num_triangles}), got "
            f"[{int(rows[0])}, {int(rows[-1])}]"
        )
    return rows


#: Relative width of the band above θ in which :func:`_on_theta` finds a
#: ``Pr(△)``; the float tail's error at a level where the exact tail is 1 is
#: a few units in the last place per posting, far below it.
_THETA_BAND = 1e-9


def _on_theta(triangle_probabilities: np.ndarray, theta: float) -> bool:
    """Whether some ``Pr(△)`` lies on θ, where the float κ is not monotone.

    The exact tail is 1 at every level up to the count of certain postings
    (``k = 0`` at least), but its float value is a sum that rounds to 1 for
    some posting sets and just below it for others.  So a triangle with
    ``θ ≤ Pr(△) < θ·(1 + _THETA_BAND)`` can qualify at a level on fewer
    postings and fail there on more: its κ can rise when a posting dies or
    its probability falls.  Every other ``Pr(△)`` decides those levels as
    exact arithmetic does.  A tie at a tail below 1 needs ``Pr(△)·tail`` to
    equal θ exactly, which takes probabilities with few significant bits,
    and the DP adds those exactly while its sums fit in a double's 53 bits.
    """
    probabilities = np.asarray(triangle_probabilities)
    return bool(
        np.any((probabilities >= theta) & (probabilities < theta * (1.0 + _THETA_BAND)))
    )


def repair_kappa_scores(
    index: CSRTriangleIndex,
    base_scores: np.ndarray,
    seeds: np.ndarray,
    repair: KappaRepair,
    *,
    lowered=(),
) -> np.ndarray:
    """Repair nucleus scores after a localized change instead of re-peeling.

    ``base_scores`` are the scores of a previous :func:`peel_kappa_scores`
    run mapped onto the rows of (the possibly rebuilt) ``index``: an integer
    array parallel to ``index.triangles`` with values ≥
    :data:`~repro.core.support_dp.NO_VALID_K`.  ``seeds`` are the integer
    rows whose κ-inputs changed — newborn triangles, and surviving triangles
    whose triangle probability or 4-clique postings differ from the run that
    produced ``base_scores``.  ``lowered`` are the seeds whose inputs only
    fell: they lost postings, or their ``Pr(△)`` or posting probabilities
    went down, and nothing of theirs rose.  The ``base_scores`` entries of
    the other seeds are ignored.  All three are checked up front, naming
    the argument.  Returns the exact score array
    ``peel_kappa_scores(index, initial_kappas, repair)`` would produce,
    touching only the affected region.  Pass ``lowered`` only where the
    float DP is monotone: not when some ``Pr(△)`` of ``index`` lies on θ
    (:func:`_on_theta`).

    Only *unit-drop* repairs (the exact DP oracle) are supported: their peel
    output is order-independent — triangle ``t``'s score is the largest
    ``k`` such that ``t`` survives in the maximal set ``S_k`` where every
    member's recomputed κ over the cliques staying inside ``S_k`` is ≥ k, a
    greatest fixed point that localized repair can converge to from any
    pointwise upper bound.  The repair runs in two phases of synchronous
    rounds (the local algorithm of Sarıyüce, Seshadhri and Pinar, VLDB
    2018), and every recomputation of a round is one
    :meth:`KappaRepair.recompute_rows` batch — the κ-init kernel for the
    exact DP:

    1. **Increase closure** — it is rooted at the *rising* seeds, those
       outside ``lowered``.  A triangle whose inputs did not rise (a clean
       row or a lowered one) can only gain score through a chain of score
       increases rooted at a rising seed: if ``ν_new(t) = k > ν_old(t)``,
       some 4-clique of ``t`` has every other member at ``ν_new ≥ k`` and
       at least one of them is a rising seed or has itself increased past
       ``k`` (otherwise the same clique, with inputs at least as high,
       already certified ``t`` at ``k`` before the change).  Each frontier
       round takes the 4-cliques of the rows that just joined, each clique
       once, computes the missing initial κ of their members in one batch,
       and admits every member ``m`` with ``base_scores[m]`` below the
       clique's least initial κ (a static upper bound on any new score).
       Admission depends on the clique alone, not on the visit order, and
       triangles that fail it cannot increase, so everything outside the
       closure keeps ``base_scores`` as a valid upper bound.  A batch
       without rising seeds (a delete, a re-price that lowers ``p``) runs
       no closure round.
    2. **Downward fixed point** — starting from the upper bound ``ν̂`` =
       initial κ on the closure / ``base_scores`` elsewhere, with the
       closure, every member of its cliques and the ``lowered`` rows
       queued, each round evaluates
       ``f(t) = max {k ≤ ν̂(t) :`` recompute over the postings alive at
       ``k`` is ``≥ k}`` for every queued row against the ``ν̂`` of the
       round's start (Jacobi rounds), where a posting is alive at ``k``
       when the least ``ν̂`` of its clique's other three members is ``≥
       k``.  The rows step ``k`` down together, one batch per step; a row
       whose recompute falls short jumps straight to its next survival
       threshold, since no level in between adds a posting, and a row
       whose recompute reaches that threshold settles at the recompute.
       Rows whose ``ν̂`` fell are written after the round, and their
       co-members whose ``ν̂`` lies above such a row's new value are the
       next round's queue.  Survivor probabilities enter in posting order, dead
       postings as ``p = 0``, so each recompute is bit-identical to the
       scalar DP over the survivors.

    The synchronous rounds reach the same scores as one-row-at-a-time
    evaluation: the exact tail never rises when a posting dies or a
    probability falls (the :attr:`KappaRepair.unit_drop` contract), so ``f``
    is monotone in the other rows' ``ν̂``.  Every iterate therefore stays
    above every fixed point below the start, and the rounds stop only at a
    fixed point (a row leaves the queue only while its inputs hold still),
    which is then the greatest one — the peel's scores.  The float DP keeps
    the contract wherever no ``Pr(△)·tail`` meets θ to the last bit, and
    :func:`_on_theta` finds the ties that matter.  At them a ``lowered``
    row's old score may no longer bound its new one, and the fixed point
    can settle a tied row on fewer postings than the peel, which starts it
    at its initial κ.

    ``tests/test_incremental.py`` and ``tests/test_peel_engine.py`` pin
    equality with the full peel on randomized graphs and update batches.
    When observability is on, the repair runs in a ``"peel.repair"`` span
    (``seeds``, ``closure`` size and ``rounds`` of both phases) and feeds the
    ``repro_peel_localized_*`` counters.  Without ``lowered`` every seed roots
    the closure.
    """
    if not repair.unit_drop:
        raise InvalidParameterError(
            "repair_kappa_scores requires a unit-drop repair (the exact DP "
            f"oracle); got {repair.name!r}, whose scores depend on the full "
            "peel trajectory"
        )
    num_triangles = index.num_triangles
    base_scores = _checked_scores("base_scores", base_scores, num_triangles)
    seeds = _checked_rows("seeds", seeds, num_triangles)
    lowered = _checked_rows("lowered", lowered, num_triangles)
    with span("peel.repair", seeds=int(seeds.size)) as active:
        scores, closure, rounds, repairs = _repair_rounds(
            index, base_scores, seeds, lowered, repair
        )
        active.annotate(closure=closure, rounds=rounds)
    if obs_config._ENABLED:
        counter = obs_registry.counter
        counter(
            "repro_peel_localized_seeds_total",
            "Seed rows handed to repair_kappa_scores (incremental repairs).",
        ).inc(int(seeds.size))
        counter(
            "repro_peel_localized_repairs_total",
            "Triangle rows recomputed during localized (incremental) repair.",
        ).inc(repairs)
        counter(
            "repro_peel_localized_rounds_total",
            "Closure and fixed-point rounds of localized (incremental) repair.",
        ).inc(rounds)
    return scores


def _repair_rounds(
    index: CSRTriangleIndex,
    base: np.ndarray,
    seeds: np.ndarray,
    lowered: np.ndarray,
    repair: KappaRepair,
) -> tuple[np.ndarray, int, int, int]:
    """The two phases of :func:`repair_kappa_scores`.

    Returns ``(scores, closure size, rounds, rows recomputed)``.
    """
    num_triangles = index.num_triangles
    indptr = index.tri_clique_indptr
    pair_cliques = index.tri_cliques
    clique_triangles = index.clique_triangles
    live = np.ones(pair_cliques.size, dtype=bool)
    rounds = repairs = 0

    # --- phase 1: closure of the rows whose score may have increased ----- #
    frontier = np.setdiff1d(seeds, lowered, assume_unique=True)
    closure = np.zeros(num_triangles, dtype=bool)
    closure[frontier] = True
    seen = np.zeros(index.num_cliques, dtype=bool)
    known = np.zeros(num_triangles, dtype=bool)
    kappa_init = np.empty(num_triangles, dtype=np.int64)
    while frontier.size:
        rounds += 1
        cliques = np.unique(pair_cliques[_postings_of(indptr, frontier)[0]])
        cliques = cliques[~seen[cliques]]
        seen[cliques] = True
        members = clique_triangles[cliques]
        fresh = np.union1d(frontier, members)
        fresh = fresh[~known[fresh]]
        if fresh.size:
            repairs += fresh.size
            known[fresh] = True
            kappa_init[fresh] = repair.recompute_rows(index, fresh, live)
        # The least initial κ of a clique bounds the level any member could
        # rise to through it.
        bound = kappa_init[members].min(axis=1)
        frontier = np.unique(members[(bound[:, None] > base[members]) & ~closure[members]])
        closure[frontier] = True

    # --- phase 2: greatest fixed point from the upper bound --------------- #
    nu = base.astype(np.int64)
    joined = np.flatnonzero(closure)
    nu[joined] = kappa_init[joined]
    queue = np.union1d(np.union1d(joined, clique_triangles[seen]), lowered)
    while (rows := queue[nu[queue] > NO_VALID_K]).size:
        rounds += 1
        postings, sizes = _postings_of(indptr, rows)
        owner = np.repeat(np.arange(rows.size), sizes)
        members = clique_triangles[pair_cliques[postings]]
        # A posting stays alive up to the least ν̂ of its clique's other
        # members; the row's own ν̂ never binds, no level exceeds it.
        support = nu[members].min(axis=1)
        level = nu[rows]
        open_rows = np.ones(rows.size, dtype=bool)
        while (step := np.flatnonzero(open_rows)).size:
            on = open_rows[owner]
            at, alive = owner[on], support[on]
            live[postings[on]] = alive >= level[at]
            repairs += step.size
            result = repair.recompute_rows(index, rows[step], live)
            # The next survival threshold below each level; NO_VALID_K - 1
            # when every posting already survives.
            below = alive < level[at]
            threshold = np.full(rows.size, NO_VALID_K - 1, dtype=np.int64)
            np.maximum.at(threshold, at[below], alive[below])
            threshold = threshold[step]
            settled = result >= threshold
            level[step] = np.where(settled, np.minimum(level[step], result), threshold)
            open_rows[step[settled]] = False
        fell = level < nu[rows]
        nu[rows[fell]] = level[fell]
        hit = fell[owner]
        touched = members[hit]
        queue = np.unique(touched[nu[touched] > level[owner[hit], None]])
    return nu, int(joined.size), rounds, repairs


def peel_kappa_scores(
    index: CSRTriangleIndex,
    initial_kappas: np.ndarray,
    repair: KappaRepair,
) -> np.ndarray:
    """Peel every triangle of ``index`` and return its nucleus score ν.

    ``initial_kappas`` must be an integer array parallel to
    ``index.triangles`` with values ≥ :data:`~repro.core.support_dp.NO_VALID_K`
    (checked up front, naming ``initial_kappas``).

    The repair picks the loop: unit-drop (exact-DP) repairs run the
    level-synchronous rounds, every other repair — the §5.3 approximated
    tails, whose scores are trajectory-sensitive — the lazy heap.

    When observability is on (``REPRO_OBS``), the run is wrapped in a
    ``"peel"`` span (carrying the ``queue`` discipline: ``rounds`` or
    ``heap``) and feeds the ``repro_peel_*`` counters — triangles peeled,
    exact recomputations, unit-drop bound steps and level-synchronous
    rounds — with the counts accumulated in loop-local integers so the
    disabled-mode overhead stays within the CI-gated 3% of the
    uninstrumented loop (see ``docs/OBSERVABILITY.md``).
    """
    num_triangles = index.num_triangles
    initial_kappas = _checked_scores("initial_kappas", initial_kappas, num_triangles)
    with span(
        "peel",
        triangles=num_triangles,
        repair=repair.name,
        queue="rounds" if repair.unit_drop else "heap",
    ):
        return _peel_kappa_scores(index, initial_kappas, repair)


def _record_peel_metrics(
    repair: KappaRepair,
    pops: int,
    repairs: int,
    deferrals: int,
    rounds: int | None = None,
) -> None:
    """Fold one peel run's loop-local counts into the metrics registry."""
    counter = obs_registry.counter
    counter(
        "repro_peel_pops_total",
        "Triangles peeled (level-synchronous rounds or lazy heap).",
    ).inc(pops)
    counter(
        "repro_peel_repairs_total",
        "Triangle rows recomputed by the repair hook during peeling.",
        repair=repair.name,
    ).inc(repairs)
    counter(
        "repro_peel_deferrals_total",
        "Unit-drop bound steps taken in place of an eager exact repair.",
    ).inc(deferrals)
    if rounds is not None:
        counter(
            "repro_peel_rounds_total",
            "Level-synchronous peel rounds (unit-drop repairs).",
        ).inc(rounds)


def _peel_kappa_scores(
    index: CSRTriangleIndex,
    initial_kappas: np.ndarray,
    repair: KappaRepair,
) -> np.ndarray:
    """The two peel loops (see :func:`peel_kappa_scores`).

    Runs Algorithm 1's loop entirely over the flat incidence arrays of
    ``index``: triangles are integer rows and 4-cliques are integer rows —
    the loops allocate no per-triangle Python objects (no tuples, dicts, or
    dataclasses).  Two disciplines drive them, selected by the repair's
    :attr:`~KappaRepair.unit_drop` capability:

    * **Level-synchronous rounds** (unit-drop repairs, i.e. the exact DP
      oracle) — :func:`_peel_rounds`.
    * **Lazy min-heap** (everything else) — the §5.3 approximated tails
      are not monotone under clique removal (a death can *raise* κ), which
      makes the final scores sensitive to the exact pop/repair schedule.
      The engine therefore replays the reference loop's trajectory
      verbatim: a :class:`~repro.peeling.LazyMinHeap` over
      ``(κ, triangle row)`` entries with per-death repairs and re-pushes —
      row order coincides with canonical triangle order under the CSR
      relabelling, so ties break exactly as in the dict reference loop.
      Liveness is a pair of boolean lists and each repair consumes a
      transient surviving-probability buffer.

    Returns the ``int64`` score array parallel to ``index.triangles``; the
    assigned scores are clamped to the running peel level exactly like the
    reference loop, so levels are monotone along the peel order.
    """
    num_triangles = index.num_triangles
    scores = np.full(num_triangles, NO_VALID_K, dtype=np.int64)
    if num_triangles == 0:
        return scores
    if repair.unit_drop:
        return _peel_rounds(index, initial_kappas, repair)

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

    # --- lazy min-heap: replay the reference trajectory exactly ----------- #
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


#: Bound of a peeled triangle: above every live bound, so ``bound.min()`` is
#: the next level and no peeled row is ever at or below the level again.
_PEELED = np.iinfo(np.int64).max


def _peel_rounds(
    index: CSRTriangleIndex,
    initial_kappas: np.ndarray,
    repair: KappaRepair,
) -> np.ndarray:
    """Level-synchronous peel for unit-drop repairs (the exact DP oracle).

    ``bound[t]`` is a lower bound on live triangle ``t``'s κ, exact unless
    ``dirty[t]``, and ``ready`` holds the live rows whose bound is at the
    current level (every other live bound lies above it).  Each round:

    1. recompute every dirty ready row in one
       :meth:`KappaRepair.recompute_rows` batch; rows whose exact κ
       exceeds the level leave ``ready``;
    2. peel every ready row at once — its score is the level;
    3. kill the live 4-cliques of the peeled rows;
    4. lower each hit row's bound by the number of cliques it lost (a
       valid lower bound by unit-drop), clamp it at the level and mark it
       dirty; the rows now at the level are the next round's ``ready``.

    When no row is ready the level rises to the smallest live bound.  The
    exact κ never rises when a 4-clique dies, so each peel value is a
    generalized-core number: it does not depend on which minimum triangles
    are peeled first or how many are peeled together, and the rounds return
    exactly the scores of the one-at-a-time reference loop.  Outside the
    level scans each round costs time in its own rows, postings and
    cliques only.
    """
    num_triangles = index.num_triangles
    indptr = index.tri_clique_indptr
    pair_cliques = index.tri_cliques
    clique_triangles = index.clique_triangles
    clique_positions = index.clique_pair_positions
    bound = initial_kappas.astype(np.int64)
    scores = np.empty(num_triangles, dtype=np.int64)
    dirty = np.zeros(num_triangles, dtype=bool)
    live = np.ones(pair_cliques.size, dtype=bool)
    ready = np.empty(0, dtype=np.int64)
    level = NO_VALID_K
    remaining = num_triangles
    rounds = repairs = deferrals = 0
    while remaining:
        if ready.size == 0:
            level = int(bound.min())
            ready = np.flatnonzero(bound <= level)
        rounds += 1
        stale = ready[dirty[ready]]
        if stale.size:
            repairs += stale.size
            dirty[stale] = False
            bound[stale] = repair.recompute_rows(index, stale, live)
            ready = ready[bound[ready] <= level]
        scores[ready] = level
        bound[ready] = _PEELED
        remaining -= ready.size

        # Every live 4-clique through a peeled row dies.
        postings = _postings_of(indptr, ready)[0]
        dead = np.unique(pair_cliques[postings[live[postings]]])
        live[clique_positions[dead]] = False

        # Each surviving member steps its bound down once per lost clique.
        members = clique_triangles[dead].ravel()
        hit, lost = np.unique(members[bound[members] != _PEELED], return_counts=True)
        old = bound[hit]
        new = np.maximum(old - lost, level)
        deferrals += int((old - new).sum())
        bound[hit] = new
        dirty[hit] = True
        ready = hit[new <= level]

    if obs_config._ENABLED:
        _record_peel_metrics(repair, num_triangles, repairs, deferrals, rounds)
    return scores
