"""Experiment: Figure 7 — ℓ-(k, θ)-nucleus quality as a function of k (flickr, θ = 0.3).

Figure 7 of the paper fixes the flickr dataset and θ = 0.3 and sweeps ``k``
from 1 to the maximum nucleus score, reporting four series:

* the average probabilistic density (PD) of the ℓ-(k, θ)-nuclei,
* the average probabilistic clustering coefficient (PCC),
* the average number of edges per nucleus, and
* the number of nuclei (connected components).

The paper's observations, which this reproduction preserves in shape:
PD and PCC are already high at small ``k`` and increase with ``k``; the
number of nuclei grows as ``k`` decreases (larger, looser components appear),
and the average number of edges per nucleus shrinks as ``k`` grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.datasets import load_dataset
from repro.experiments.formatting import Column
from repro.experiments.pipeline import DecompositionCache, ExperimentSpec, RunConfig
from repro.metrics.clustering import probabilistic_clustering_coefficient
from repro.metrics.density import probabilistic_density

__all__ = ["SPEC", "Figure7Row"]


@dataclass(frozen=True)
class Figure7Row:
    """The four Figure 7 series evaluated at one value of ``k``."""

    k: int
    average_density: float
    average_clustering: float
    average_edges: float
    num_nuclei: int


COLUMNS = (
    Column("k", 3),
    Column("avg PD", 8, ".3f", key="average_density"),
    Column("avg PCC", 8, ".3f", key="average_clustering"),
    Column("avg #edges", 10, ".1f", key="average_edges"),
    Column("#nuclei", 7, key="num_nuclei"),
)


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    cell = {
        "dataset": overrides.get("dataset", "flickr"),
        "theta": overrides.get("theta", 0.3),
    }
    if overrides.get("max_k") is not None:
        cell["max_k"] = overrides["max_k"]
    if overrides.get("graph") is not None:
        cell["graph"] = overrides["graph"]  # test-only injection; serial path
    return [cell]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[Figure7Row]:
    graph = params.get("graph")
    if graph is None:
        graph = load_dataset(params["dataset"], config.scale)
    theta = params["theta"]
    local = cache.local(
        graph, theta, dataset=params.get("dataset"), kernel=config.kernel,
    )
    max_k = params.get("max_k")
    top = local.max_score if max_k is None else min(max_k, local.max_score)
    rows: list[Figure7Row] = []
    for k in range(1, max(top, 0) + 1):
        nuclei = local.nuclei(k)
        if not nuclei:
            rows.append(Figure7Row(k, 0.0, 0.0, 0.0, 0))
            continue
        densities = [probabilistic_density(n.subgraph) for n in nuclei]
        clusterings = [
            probabilistic_clustering_coefficient(n.subgraph) for n in nuclei
        ]
        edges = [n.num_edges for n in nuclei]
        count = len(nuclei)
        rows.append(
            Figure7Row(
                k=k,
                average_density=sum(densities) / count,
                average_clustering=sum(clusterings) / count,
                average_edges=sum(edges) / count,
                num_nuclei=count,
            )
        )
    return rows


SPEC = ExperimentSpec(
    name="figure7",
    title="ℓ-(k, θ)-nucleus quality as a function of k (flickr, θ = 0.3)",
    paper_reference="Figure 7",
    row_type=Figure7Row,
    grid=_grid,
    run_cell=_run_cell,
    columns=COLUMNS,
)
