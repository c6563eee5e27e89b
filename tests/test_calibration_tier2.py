"""Tier-2 calibration sweep of the fixed-``n`` verification loop.

At ε = δ = 0.1 the loop draws ``n = hoeffding_sample_size(0.1, 0.1) = 150``
worlds per candidate, and Hoeffding promises ``|estimate − p| ≤ ε`` with
probability at least ``1 − δ`` for each triangle.  So a decision on the
wrong side of θ is an error only when the exact ``p`` lies outside the band
``[θ − ε, θ + ε]``.  The sweep takes every triangle's exact ``p`` from
:func:`~repro.sampling.verification.exact_probabilities`, in both the global and
the weak model, samples its estimate from
:func:`~repro.sampling.verification.blocked_counts` at 50 seeds, and decides it
the way the loop does (``counts / n ≥ θ``).  Among the (triangle, seed)
pairs outside the band, the share decided on the wrong side must stay at
most δ, and so must each triangle's own share over the seeds, up to the
one-sided Hoeffding margin of 50 seeds at level 1e-4: a sampler biased
across θ for a few triangles fails there while the pooled share stays low.

A candidate's decision combines all its triangles, so a union bound can
push the candidate-level error rate above δ; the sweep reports it in the
assertion message without gating it.  Every world stream is seeded, so a
failure replays exactly.

Hoeffding's band at n = 150 leaves room for a biased sampler, so the same
draws are also tested against the exact law they follow.  A correct sampler
draws a candidate's worlds iid, so each triangle's count over ``n`` worlds
is Binomial(n, p) and the 50 seeds give 50 independent counts.  In every
(graph, k, model, triangle) cell with 0.02 < p < 0.98, the mean count must
lie within 5 standard errors of ``n·p``, and the counts' sample variance
over the seeds, divided by ``n·p(1 − p)`` (about χ²₄₉ / 49 under
a correct sampler), must lie in [0.35, 2.5].  Edges drawn at p^1.2 fail the
first check, and 15 worlds counted ten times over fail the second.

The real-workload audit runs Algorithm 2 itself on the benchmark's
verify-global graph and scores every candidate of at most 16 edges exactly:
no sampled decision may differ from the exact one unless the weakest
triangle's exact ``p`` lies inside the ε-band.

Run with ``pytest -m tier2``; tier 1 deselects this module via the default
marker expression in ``pyproject.toml``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from graph_factories import (
    figure3a_graph,
    perfbench_graph,
    small_er_graph,
    two_cliques_sharing_an_edge,
)

import repro.core.global_nucleus
from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.local import local_nucleus_decomposition
from repro.graph.generators import clique_graph
from repro.sampling.verification import blocked_counts, exact_probabilities, global_decisions
from repro.sampling.monte_carlo import hoeffding_sample_size
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    global_membership,
    global_triangle_counts,
    weak_membership,
    weak_membership_counts,
)

pytestmark = pytest.mark.tier2

EPSILON = DELTA = 0.1
N_SAMPLES = hoeffding_sample_size(EPSILON, DELTA)
SEEDS = range(50)
LEVELS = (1, 2)
THETAS = (0.3, 0.5)

#: How far one triangle's error share over the seeds may exceed δ.
TRIANGLE_SLACK = math.sqrt(math.log(1e4) / (2 * len(SEEDS)))

#: The graph factories of at most 16 edges; every ER seed holds a 4-clique.
GRAPHS = {
    "K4-p0.5": lambda: clique_graph(4, probability=0.5),
    "K4-p0.9": lambda: clique_graph(4, probability=0.9),
    "K5-p0.5": lambda: clique_graph(5, probability=0.5),
    "K5-p0.9": lambda: clique_graph(5, probability=0.9),
    "figure3a": figure3a_graph,
    "two-cliques": two_cliques_sharing_an_edge,
    **{
        f"er7-seed{seed}": (lambda seed=seed: small_er_graph(7, 0.55, seed=seed))
        for seed in (1, 2, 6, 8, 11)
    },
}

#: Each model's exact membership and its sampled counts.
MODELS = {
    "global": (global_membership, global_triangle_counts),
    "weak": (weak_membership, weak_membership_counts),
}

#: The binomial-law checks: cells with p inside this range, the largest
#: |z| of a mean count, and the range of the variance ratio.
LAW_P_RANGE = (0.02, 0.98)
MAX_ABS_Z = 5.0
VARIANCE_RATIO_RANGE = (0.35, 2.5)


@functools.lru_cache(maxsize=None)
def _sweep(model: str) -> tuple[tuple[str, int, np.ndarray, np.ndarray], ...]:
    """``(graph, k, exact p, counts)`` of every cell of ``model``'s sweep.

    ``counts[s]`` holds each triangle's count over the ``N_SAMPLES`` worlds
    drawn at seed ``SEEDS[s]``; the checks below share these draws.
    """
    membership, count = MODELS[model]
    cells = []
    for name, make_graph in GRAPHS.items():
        index = CandidateWorldIndex.from_graph(make_graph())
        for k in LEVELS:
            exact = exact_probabilities(membership, index, k)
            counts = np.array(
                [blocked_counts(count, index, N_SAMPLES, k, seed=seed) for seed in SEEDS]
            )
            cells.append((name, k, exact, counts))
    return tuple(cells)


def test_graphs_are_enumerable():
    for name, make_graph in GRAPHS.items():
        index = CandidateWorldIndex.from_graph(make_graph())
        assert index.num_edges <= 16 and index.num_cliques >= 1, name


@pytest.mark.parametrize("model", sorted(MODELS))
def test_decisions_outside_the_band_err_at_most_delta(model):
    pairs = errors = candidates = candidate_errors = 0
    worst: dict[tuple, int] = {}
    for name, k, exact, counts in _sweep(model):
        estimates = counts / N_SAMPLES
        for theta in THETAS:
            outside = np.abs(exact - theta) > EPSILON
            truth = exact >= theta
            wrong = np.array([(estimate >= theta) != truth for estimate in estimates])
            pairs += int(outside.sum()) * len(SEEDS)
            errors += int(wrong[:, outside].sum())
            for row in np.flatnonzero(outside).tolist():
                worst[name, k, theta, row] = int(wrong[:, row].sum())
            if outside.all():
                # Global accepts a candidate when every triangle passes;
                # weak decides each triangle's membership.
                if model == "global":
                    flips = [
                        bool(np.all(estimate >= theta)) != bool(truth.all())
                        for estimate in estimates
                    ]
                else:
                    flips = wrong.any(axis=1).tolist()
                candidates += len(SEEDS)
                candidate_errors += sum(flips)
    assert pairs > 0 and candidates > 0
    rate = errors / pairs
    worst_cell, worst_count = max(worst.items(), key=lambda item: item[1])
    assert rate <= DELTA, (
        f"{model}: {errors}/{pairs} = {rate:.4f} of the (triangle, seed) pairs outside "
        f"the ε-band were decided on the wrong side of θ (budget δ = {DELTA}); "
        f"candidate-level: {candidate_errors}/{candidates} "
        f"= {candidate_errors / candidates:.4f}; worst (graph, k, θ, triangle row): "
        f"{worst_cell} with {worst_count}/{len(SEEDS)} seeds"
    )
    assert worst_count <= (DELTA + TRIANGLE_SLACK) * len(SEEDS), (
        f"{model}: triangle {worst_cell} (graph, k, θ, row) was decided on the wrong "
        f"side of θ at {worst_count}/{len(SEEDS)} seeds"
    )


def _binomial_cells(model: str) -> tuple[dict[tuple, float], dict[tuple, float]]:
    """The z-score of the mean count and the variance ratio of every cell of
    ``model`` with p inside :data:`LAW_P_RANGE`, keyed by (graph, k, row)."""
    low, high = LAW_P_RANGE
    z_scores, ratios = {}, {}
    for name, k, exact, counts in _sweep(model):
        for row in np.flatnonzero((exact > low) & (exact < high)).tolist():
            p, cell = float(exact[row]), counts[:, row]
            spread = N_SAMPLES * p * (1.0 - p)
            z_scores[name, k, row] = (cell.mean() - N_SAMPLES * p) / math.sqrt(
                spread / len(SEEDS)
            )
            ratios[name, k, row] = cell.var(ddof=1) / spread
    assert z_scores, f"{model}: no cell with {low} < p < {high}"
    return z_scores, ratios


@pytest.mark.parametrize("model", sorted(MODELS))
def test_mean_counts_follow_the_exact_binomial_law(model):
    z_scores, _ = _binomial_cells(model)
    worst = max(z_scores, key=lambda cell: abs(z_scores[cell]))
    print(f"{model}: {len(z_scores)} cells, max |z| {abs(z_scores[worst]):.2f} at {worst}")
    assert abs(z_scores[worst]) <= MAX_ABS_Z, (
        f"{model}: the mean count of cell {worst} (graph, k, triangle row) lies "
        f"{z_scores[worst]:.2f} standard errors from n·p"
    )


@pytest.mark.parametrize("model", sorted(MODELS))
def test_count_spread_follows_the_exact_binomial_law(model):
    _, ratios = _binomial_cells(model)
    low, high = VARIANCE_RATIO_RANGE
    print(f"{model}: variance ratios {min(ratios.values()):.2f}–{max(ratios.values()):.2f}")
    outside = {cell: round(ratio, 2) for cell, ratio in ratios.items() if not low <= ratio <= high}
    assert not outside, (
        f"{model}: count variance / n·p(1 − p) outside [{low}, {high}] in cells "
        f"(graph, k, triangle row): {outside}"
    )


def test_real_workload_decisions_outside_the_band_match_exact(monkeypatch):
    # Global k = 1 at θ = 0.3 on the verify-global graph, seeds 1–3: each run
    # verifies 1,047 candidates, 121 of them with at most 16 edges.
    graph, k, theta = perfbench_graph("perfbench-flickr"), 1, 0.3
    local = local_nucleus_decomposition(graph, theta)
    decisions = []

    def recording_decisions(index, closures, *args, **kwargs):
        passes = global_decisions(index, closures, *args, **kwargs)
        for cliques, decision in zip(closures, passes.tolist()):
            mask = np.zeros(index.num_edges, dtype=bool)
            mask[index.clique_edges[cliques]] = True
            decisions.append((index.restrict(mask), decision))
        return passes

    monkeypatch.setattr(repro.core.global_nucleus, "global_decisions", recording_decisions)
    outside, inside = [], {}
    for seed in (1, 2, 3):
        decisions.clear()
        global_nucleus_decomposition(graph, k, theta, seed=seed, local_result=local)
        small = [(index, decision) for index, decision in decisions if index.num_edges <= 16]
        assert (len(decisions), len(small)) == (1047, 121), seed
        inside[seed] = []
        for index, decision in small:
            weakest = float(exact_probabilities(global_membership, index, k).min())
            if decision != (weakest >= theta):
                band = inside[seed] if abs(weakest - theta) <= EPSILON else outside
                band.append(round(weakest, 3))
    report = {seed: (len(flips), flips) for seed, flips in inside.items()}
    print(f"sampled decisions that differ from exact inside the ε-band, per seed: {report}")
    assert not outside, (
        f"weakest exact p of the candidates decided on the wrong side of θ = {theta} "
        f"outside the ε-band: {outside}; inside it, per seed: {report}"
    )
