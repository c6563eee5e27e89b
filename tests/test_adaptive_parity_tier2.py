"""Tier-2 statistical-parity sweep for adaptive Monte-Carlo sampling.

The acceptance gate of the adaptive engine: across randomized dense
Erdős–Rényi graphs, thresholds, and world seeds, the confidence-driven
early-stopping path (``sampling="adaptive"``) must be *as accurate as* the
fixed ``n = 200``-world baseline it replaces.  Strict per-cell equality is
the wrong notion on these graphs — their candidate probabilities are
deliberately borderline, where the fixed-``n`` answer is itself a coin
flip — so the sweep scores both strategies against a high-precision
reference run (fixed ``n = 3000``) and asserts:

1. adaptive disagrees with the reference in at most as many cells as the
   fixed baseline does, up to a small slack (no systematic accuracy loss);
2. adaptive and fixed agree with each other on a clear majority of cells;
3. on deterministic graphs (every probability 1) the two paths are exactly
   identical — no sampling noise to hide behind.

Every recorded disagreement carries ``(algorithm, graph, theta, seed)`` so a
failure pins the exact cell; re-running with those values replays the
identical world stream (both engines are seeded by the cell alone).

Run with ``pytest -m tier2``; tier 1 deselects this module via the default
marker expression in ``pyproject.toml``.
"""

from __future__ import annotations

import pytest
from graph_factories import small_er_graph

from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.local import local_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.graph.generators import clique_graph

pytestmark = pytest.mark.tier2

#: Dense seeded graphs whose triangle probabilities straddle the thresholds.
SWEEP_GRAPHS = {
    "er16_dense": lambda: small_er_graph(16, 0.6, seed=0, probabilities=(0.5, 1.0)),
    "er14_dense": lambda: small_er_graph(14, 0.7, seed=1, probabilities=(0.6, 1.0)),
    "er12_hot": lambda: small_er_graph(12, 0.8, seed=2, probabilities=(0.7, 1.0)),
}
THETAS = (0.3, 0.4)
WORLD_SEEDS = (0, 1, 2)
N_SAMPLES = 200
REFERENCE_N_SAMPLES = 3000
REFERENCE_SEED = 777

#: Adaptive may miss the reference in at most this many more cells than the
#: fixed baseline does (observed gap on the pinned seeds: global 0, weak 2).
ACCURACY_SLACK = 4

#: Minimum fraction of cells where adaptive and fixed report identical
#: nuclei outright (observed on the pinned seeds: ~0.8).
MIN_DIRECT_AGREEMENT = 2 / 3

ALGORITHMS = {
    "global": global_nucleus_decomposition,
    "weak": weak_nucleus_decomposition,
}


def nuclei_key(nuclei):
    """Canonical edge-set signature of a decomposition result."""

    def edge_set(nucleus):
        return sorted((u, v) for u, v, _ in nucleus.subgraph.edges())

    return sorted(edge_set(nucleus) for nucleus in nuclei)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_adaptive_matches_fixed_accuracy_against_reference(algorithm):
    """Adaptive errs (vs a 3000-world reference) no more than fixed-200 does."""
    run = ALGORITHMS[algorithm]
    fixed_misses, adaptive_misses, disagreements = [], [], []
    total = 0
    for theta in THETAS:
        for graph_name, factory in SWEEP_GRAPHS.items():
            graph = factory()
            local = local_nucleus_decomposition(graph, theta)
            k = max(1, local.max_score)
            shared = dict(k=k, theta=theta, local_result=local)
            reference = nuclei_key(
                run(graph, n_samples=REFERENCE_N_SAMPLES, seed=REFERENCE_SEED, **shared)
            )
            for seed in WORLD_SEEDS:
                total += 1
                context = (algorithm, graph_name, theta, seed)
                fixed = nuclei_key(run(graph, n_samples=N_SAMPLES, seed=seed, **shared))
                adaptive = nuclei_key(
                    run(graph, n_samples=N_SAMPLES, seed=seed, sampling="adaptive", **shared)
                )
                if fixed != reference:
                    fixed_misses.append(context)
                if adaptive != reference:
                    adaptive_misses.append(context)
                if adaptive != fixed:
                    disagreements.append(context)

    assert len(adaptive_misses) <= len(fixed_misses) + ACCURACY_SLACK, (
        f"adaptive missed the reference in {len(adaptive_misses)}/{total} cells vs "
        f"{len(fixed_misses)}/{total} for fixed-{N_SAMPLES}: adaptive misses at "
        f"{adaptive_misses}, fixed misses at {fixed_misses}"
    )
    agreement = 1.0 - len(disagreements) / total
    assert agreement >= MIN_DIRECT_AGREEMENT, (
        f"adaptive agreed with fixed-{N_SAMPLES} on only {agreement:.0%} of {total} "
        f"cells (budget {MIN_DIRECT_AGREEMENT:.0%}); disagreements at {disagreements}"
    )


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("size", [4, 5, 6])
def test_deterministic_graphs_have_exact_parity(algorithm, size):
    """With every probability 1 there is no sampling noise: exact equality."""
    run = ALGORITHMS[algorithm]
    graph = clique_graph(size, probability=1.0)
    for theta in THETAS:
        for seed in WORLD_SEEDS:
            context = (algorithm, size, theta, seed)
            kwargs = dict(k=1, theta=theta, n_samples=N_SAMPLES, seed=seed)
            fixed = nuclei_key(run(graph, **kwargs))
            adaptive = nuclei_key(run(graph, sampling="adaptive", **kwargs))
            assert fixed == adaptive, f"exact parity broken at {context}"
            assert fixed, f"expected a nucleus on the certain clique at {context}"
