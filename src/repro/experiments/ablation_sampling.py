"""Ablation B — Monte-Carlo sample size vs estimation error.

The global and weakly-global algorithms estimate per-triangle probabilities
from ``n`` sampled worlds, with ``n`` chosen from Hoeffding's inequality
(Lemma 4).  This ablation validates the bound empirically on graphs small
enough for exact possible-world enumeration: for a range of sample sizes it
measures the maximum absolute deviation between the Monte-Carlo estimate of
``Pr(X_{H,△,g} ≥ k)`` and its exact value, and compares the observed error
with the ε that Hoeffding guarantees at δ = 0.1.

The sample sizes share one sequential RNG stream (size 50 continues the
stream of size 25), so the pipeline grid is a single cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.deterministic.cliques import enumerate_triangles
from repro.deterministic.nucleus import is_k_nucleus
from repro.experiments.formatting import Column
from repro.experiments.pipeline import DecompositionCache, ExperimentSpec, RunConfig
from repro.graph.generators import complete_probabilistic_graph, uniform_probability
from repro.graph.possible_worlds import sample_world
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.hardness.reductions import global_indicator_probability
from repro.sampling.monte_carlo import hoeffding_error_bound

__all__ = ["SPEC", "AblationSamplingRow"]


@dataclass(frozen=True)
class AblationSamplingRow:
    """Observed vs guaranteed Monte-Carlo error for one sample size."""

    n_samples: int
    max_observed_error: float
    mean_observed_error: float
    hoeffding_epsilon: float


COLUMNS = (
    Column("n", 5, key="n_samples"),
    Column("max |err|", 9, ".4f", key="max_observed_error"),
    Column("mean |err|", 10, ".4f", key="mean_observed_error"),
    Column("Hoeffding eps", 13, ".4f", key="hoeffding_epsilon"),
)


def _default_graph(seed: int) -> ProbabilisticGraph:
    """A complete graph on 6 vertices: 15 edges, small enough to enumerate exactly."""
    return complete_probabilistic_graph(
        6, uniform_probability(0.4, 0.95), seed=seed
    )


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    cell = {
        "sample_sizes": list(overrides.get("sample_sizes", (25, 50, 100, 200, 400))),
        "k": overrides.get("k", 1),
        "delta": overrides.get("delta", 0.1),
        "seed": overrides.get("seed", config.seed),
    }
    if overrides.get("graph") is not None:
        cell["graph"] = overrides["graph"]  # test-only injection; serial path
    return [cell]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[AblationSamplingRow]:
    graph = params.get("graph")
    seed = params["seed"]
    if graph is None:
        graph = _default_graph(seed)
    k, delta = params["k"], params["delta"]
    triangles = list(enumerate_triangles(graph))
    exact = {
        t: global_indicator_probability(graph, t, k) for t in triangles
    }

    rows: list[AblationSamplingRow] = []
    rng = random.Random(seed)
    for n in params["sample_sizes"]:
        worlds = [sample_world(graph, rng=rng) for _ in range(n)]
        nucleus_flags = [is_k_nucleus(world, k) for world in worlds]
        errors = []
        for t in triangles:
            u, v, w = t
            hits = sum(
                1
                for world, is_nucleus in zip(worlds, nucleus_flags)
                if is_nucleus
                and world.has_edge(u, v)
                and world.has_edge(u, w)
                and world.has_edge(v, w)
            )
            errors.append(abs(hits / n - exact[t]))
        rows.append(
            AblationSamplingRow(
                n_samples=n,
                max_observed_error=max(errors) if errors else 0.0,
                mean_observed_error=(sum(errors) / len(errors)) if errors else 0.0,
                hoeffding_epsilon=hoeffding_error_bound(n, delta),
            )
        )
    return rows


SPEC = ExperimentSpec(
    name="ablation_sampling",
    title="Monte-Carlo sample size vs estimation error (Hoeffding check)",
    paper_reference="Ablation B (beyond the paper)",
    row_type=AblationSamplingRow,
    grid=_grid,
    run_cell=_run_cell,
    columns=COLUMNS,
    cacheable=False,
)
