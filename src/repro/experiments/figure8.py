"""Experiment: Figure 8 — PD and PCC of global vs weakly-global vs local nuclei.

Figure 8 of the paper compares, on krogan, flickr, and dblp with θ = 0.001,
the average probabilistic density and clustering coefficient of the
g-(k, θ)-nuclei, w-(k, θ)-nuclei, and ℓ-(k, θ)-nuclei, averaged over all
values of ``k``.  The expected ordering — and the shape this reproduction
preserves — is ``global ≥ weakly-global ≥ local``: the stricter the model,
the more cohesive the reported subgraphs.

Like Figure 5, the pruning local decomposition at θ = 0.001 comes from the
pipeline's decomposition cache — when Figure 5 ran earlier in the same
invocation, this experiment reloads its snapshots instead of re-peeling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.experiments.datasets import load_dataset
from repro.experiments.formatting import Column
from repro.experiments.pipeline import DecompositionCache, ExperimentSpec, RunConfig
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.metrics.clustering import probabilistic_clustering_coefficient
from repro.metrics.density import probabilistic_density

__all__ = ["SPEC", "Figure8Row", "DEFAULT_DATASETS"]

#: Datasets reported in the paper's Figure 8.
DEFAULT_DATASETS = ("krogan", "flickr", "dblp")


@dataclass(frozen=True)
class Figure8Row:
    """Average PD and PCC of one nucleus mode on one dataset."""

    dataset: str
    mode: str
    average_density: float
    average_clustering: float
    num_nuclei: int


COLUMNS = (
    Column("dataset", 10),
    Column("mode", 14),
    Column("avg PD", 8, ".3f", key="average_density"),
    Column("avg PCC", 8, ".3f", key="average_clustering"),
    Column("#nuclei", 7, key="num_nuclei"),
)


def _average_quality(subgraphs: list[ProbabilisticGraph]) -> tuple[float, float]:
    if not subgraphs:
        return 0.0, 0.0
    densities = [probabilistic_density(s) for s in subgraphs]
    clusterings = [probabilistic_clustering_coefficient(s) for s in subgraphs]
    return sum(densities) / len(densities), sum(clusterings) / len(clusterings)


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    names = overrides.get("names", DEFAULT_DATASETS)
    return [
        {
            "dataset": name,
            "theta": overrides.get("theta", 0.001),
            "n_samples": overrides.get("n_samples", 100),
            "seed": overrides.get("seed", config.seed),
        }
        for name in names
    ]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[Figure8Row]:
    graph = load_dataset(params["dataset"], config.scale)
    theta, n_samples, seed = params["theta"], params["n_samples"], params["seed"]
    local = cache.local(graph, theta, dataset=params["dataset"])
    max_k = max(1, local.max_score)

    local_subgraphs: list[ProbabilisticGraph] = []
    global_subgraphs: list[ProbabilisticGraph] = []
    weak_subgraphs: list[ProbabilisticGraph] = []
    for k in range(1, max_k + 1):
        local_subgraphs.extend(n.subgraph for n in local.nuclei(k))
        global_subgraphs.extend(
            n.subgraph
            for n in global_nucleus_decomposition(
                graph, k=k, theta=theta, n_samples=n_samples,
                local_result=local, seed=seed,
            )
        )
        weak_subgraphs.extend(
            n.subgraph
            for n in weak_nucleus_decomposition(
                graph, k=k, theta=theta, n_samples=n_samples,
                local_result=local, seed=seed,
            )
        )

    rows: list[Figure8Row] = []
    for mode, subgraphs in (
        ("global", global_subgraphs),
        ("weakly-global", weak_subgraphs),
        ("local", local_subgraphs),
    ):
        density, clustering = _average_quality(subgraphs)
        rows.append(
            Figure8Row(
                dataset=params["dataset"],
                mode=mode,
                average_density=density,
                average_clustering=clustering,
                num_nuclei=len(subgraphs),
            )
        )
    return rows


SPEC = ExperimentSpec(
    name="figure8",
    title="PD / PCC of global vs weakly-global vs local nuclei",
    paper_reference="Figure 8",
    row_type=Figure8Row,
    grid=_grid,
    run_cell=_run_cell,
    columns=COLUMNS,
)
