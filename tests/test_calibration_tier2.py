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

The real-workload audit runs Algorithm 2 itself on the benchmark's
verify-global graph and scores every candidate of at most 16 edges exactly:
no sampled decision may differ from the exact one unless the weakest
triangle's exact ``p`` lies inside the ε-band.

Run with ``pytest -m tier2``; tier 1 deselects this module via the default
marker expression in ``pyproject.toml``.
"""

from __future__ import annotations

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


def test_graphs_are_enumerable():
    for name, make_graph in GRAPHS.items():
        index = CandidateWorldIndex.from_graph(make_graph())
        assert index.num_edges <= 16 and index.num_cliques >= 1, name


@pytest.mark.parametrize("model", sorted(MODELS))
def test_decisions_outside_the_band_err_at_most_delta(model):
    membership, count = MODELS[model]
    pairs = errors = candidates = candidate_errors = 0
    worst: dict[tuple, int] = {}
    for name, make_graph in GRAPHS.items():
        index = CandidateWorldIndex.from_graph(make_graph())
        for k in LEVELS:
            exact = exact_probabilities(membership, index, k)
            estimates = [
                blocked_counts(count, index, N_SAMPLES, k, seed=seed) / N_SAMPLES
                for seed in SEEDS
            ]
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
