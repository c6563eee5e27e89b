"""Experiment: Figure 5 — running time of the global (FG) and weakly-global (WG) algorithms.

Figure 5 of the paper reports, per dataset, the wall-clock time of the fully
global decomposition (Algorithm 2, "FG") and of the weakly-global
decomposition (Algorithm 3, "WG") at θ = 0.001, using ε = δ = 0.1 and
n = 200 Monte-Carlo samples.  The main observation is that WG is generally
faster than FG because WG decomposes a fixed number of sampled worlds per
candidate whereas FG re-verifies every candidate closure it builds.

The reproduction runs both algorithms on each dataset analogue at the same
θ and a per-dataset ``k`` chosen as the largest score of the local
decomposition (so the candidate set is non-trivial but small).  The local
decomposition is *excluded* from the reported times (the paper frames FG/WG
as post-processing), which is exactly why its snapshot can come from the
pipeline's decomposition cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.experiments.datasets import DATASET_NAMES, load_dataset
from repro.experiments.formatting import Column
from repro.experiments.pipeline import DecompositionCache, ExperimentSpec, RunConfig
from repro.obs.timing import timer

__all__ = ["SPEC", "Figure5Row"]


@dataclass(frozen=True)
class Figure5Row:
    """One dataset bar pair of Figure 5."""

    dataset: str
    theta: float
    k: int
    fg_seconds: float
    wg_seconds: float
    fg_nuclei: int
    wg_nuclei: int


COLUMNS = (
    Column("dataset", 10),
    Column("k", 3),
    Column("FG (s)", 9, ".3f", key="fg_seconds"),
    Column("WG (s)", 9, ".3f", key="wg_seconds"),
    Column("#FG", 4, key="fg_nuclei"),
    Column("#WG", 4, key="wg_nuclei"),
)


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    names = overrides.get("names", DATASET_NAMES)
    return [
        {
            "dataset": name,
            "theta": overrides.get("theta", 0.001),
            "n_samples": overrides.get("n_samples", 200),
            "seed": overrides.get("seed", config.seed),
        }
        for name in names
    ]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[Figure5Row]:
    graph = load_dataset(params["dataset"], config.scale)
    theta, n_samples, seed = params["theta"], params["n_samples"], params["seed"]
    local = cache.local(
        graph, theta, dataset=params["dataset"], kernel=config.kernel,
    )
    k = max(1, local.max_score)

    with timer() as fg_timer:
        fg = global_nucleus_decomposition(
            graph, k=k, theta=theta, n_samples=n_samples,
            local_result=local, seed=seed,
            **config.sampling_kwargs(),
        )
    fg_seconds = fg_timer.seconds

    with timer() as wg_timer:
        wg = weak_nucleus_decomposition(
            graph, k=k, theta=theta, n_samples=n_samples,
            local_result=local, seed=seed,
            **config.sampling_kwargs(),
        )
    wg_seconds = wg_timer.seconds

    return [
        Figure5Row(
            dataset=params["dataset"],
            theta=theta,
            k=k,
            fg_seconds=fg_seconds,
            wg_seconds=wg_seconds,
            fg_nuclei=len(fg),
            wg_nuclei=len(wg),
        )
    ]


SPEC = ExperimentSpec(
    name="figure5",
    title="Running time of the global (FG) vs weakly-global (WG) algorithms",
    paper_reference="Figure 5",
    row_type=Figure5Row,
    grid=_grid,
    run_cell=_run_cell,
    columns=COLUMNS,
)
