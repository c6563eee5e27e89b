"""Experiment: Table 3 — cohesiveness of nucleus vs truss vs core subgraphs.

Table 3 of the paper is the quality headline: for dblp, pokec, and biomine
and thresholds θ ∈ {0.1, 0.3}, it compares the densest subgraph found by the
local probabilistic nucleus decomposition against the (k, γ)-truss and
(k, η)-core baselines at their respective maximum scores.  The comparison
covers the number of vertices and edges, the maximum score, the
probabilistic density (PD), and the probabilistic clustering coefficient
(PCC).  The paper's finding — reproduced here in shape — is that the nucleus
achieves markedly higher PD and PCC than the truss, which in turn beats the
core, at the price of a smaller subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.probabilistic_core import (
    k_eta_core_subgraph,
    probabilistic_core_decomposition,
)
from repro.baselines.probabilistic_truss import (
    k_gamma_truss_subgraph,
    probabilistic_truss_decomposition,
)
from repro.core.result import LocalNucleusDecomposition
from repro.deterministic.connectivity import connected_components
from repro.experiments.datasets import load_dataset
from repro.experiments.formatting import Column
from repro.experiments.pipeline import DecompositionCache, ExperimentSpec, RunConfig
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.metrics.cohesiveness import CohesivenessReport, average_cohesiveness

__all__ = ["SPEC", "Table3Row", "decomposition_quality", "DEFAULT_DATASETS", "DEFAULT_THETAS"]

#: Datasets and thresholds reported in the paper's Table 3.
DEFAULT_DATASETS = ("dblp", "pokec", "biomine")
DEFAULT_THETAS = (0.1, 0.3)


@dataclass(frozen=True)
class Table3Row:
    """One (dataset, θ) row with the nucleus / truss / core comparison."""

    dataset: str
    theta: float
    nucleus: CohesivenessReport
    truss: CohesivenessReport
    core: CohesivenessReport


COLUMNS = (
    Column("dataset", 8),
    Column("theta", 5, ".2f"),
    Column(
        "|V| N/T/C", 16,
        key=lambda r: f"{r.nucleus.num_vertices}/{r.truss.num_vertices}/{r.core.num_vertices}",
    ),
    Column(
        "|E| N/T/C", 19,
        key=lambda r: f"{r.nucleus.num_edges}/{r.truss.num_edges}/{r.core.num_edges}",
    ),
    Column(
        "kmax N/T/C", 12,
        key=lambda r: f"{r.nucleus.max_score}/{r.truss.max_score}/{r.core.max_score}",
    ),
    Column(
        "PD N/T/C", 20,
        key=lambda r: (
            f"{r.nucleus.probabilistic_density:.3f}/"
            f"{r.truss.probabilistic_density:.3f}/"
            f"{r.core.probabilistic_density:.3f}"
        ),
    ),
    Column(
        "PCC N/T/C", 20,
        key=lambda r: (
            f"{r.nucleus.probabilistic_clustering_coefficient:.3f}/"
            f"{r.truss.probabilistic_clustering_coefficient:.3f}/"
            f"{r.core.probabilistic_clustering_coefficient:.3f}"
        ),
    ),
)


def _connected_pieces(subgraph: ProbabilisticGraph) -> list[ProbabilisticGraph]:
    """Split a subgraph into its connected components (paper reports per-component averages)."""
    return [subgraph.subgraph(component) for component in connected_components(subgraph)]


def decomposition_quality(
    graph: ProbabilisticGraph,
    theta: float,
    local_result: LocalNucleusDecomposition | None = None,
) -> Table3Row:
    """Compute the nucleus / truss / core cohesiveness comparison for one graph.

    For each decomposition the maximum score level is located, the subgraph
    at that level is split into connected components, and the Table 3
    statistics are averaged over the components (the paper's convention).
    """
    # --- nucleus ----------------------------------------------------------
    if local_result is None:
        local_result = DecompositionCache().local(graph, theta)
    local = local_result
    nucleus_max = max(0, local.max_score)
    nucleus_pieces = [n.subgraph for n in local.nuclei(nucleus_max)] if local.max_score >= 0 else []
    nucleus_report = average_cohesiveness(nucleus_pieces, label="nucleus", max_score=nucleus_max)

    # --- truss ------------------------------------------------------------
    truss_numbers = probabilistic_truss_decomposition(graph, gamma=theta)
    truss_max = max((score for score in truss_numbers.values()), default=0)
    truss_max = max(0, truss_max)
    truss_subgraph = k_gamma_truss_subgraph(graph, truss_max, theta, truss_numbers)
    truss_report = average_cohesiveness(
        _connected_pieces(truss_subgraph), label="truss", max_score=truss_max
    )

    # --- core -------------------------------------------------------------
    core_numbers = probabilistic_core_decomposition(graph, eta=theta)
    core_max = max(core_numbers.values(), default=0)
    core_subgraph = k_eta_core_subgraph(graph, core_max, theta, core_numbers)
    core_report = average_cohesiveness(
        _connected_pieces(core_subgraph), label="core", max_score=core_max
    )

    return Table3Row(
        dataset="", theta=theta, nucleus=nucleus_report, truss=truss_report, core=core_report
    )


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    names = overrides.get("names", DEFAULT_DATASETS)
    thetas = overrides.get("thetas", DEFAULT_THETAS)
    return [
        {"dataset": name, "theta": theta} for name in names for theta in thetas
    ]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[Table3Row]:
    graph = load_dataset(params["dataset"], config.scale)
    theta = params["theta"]
    local = cache.local(
        graph, theta, dataset=params["dataset"], kernel=config.kernel,
    )
    row = decomposition_quality(graph, theta, local_result=local)
    return [
        Table3Row(
            dataset=params["dataset"],
            theta=theta,
            nucleus=row.nucleus,
            truss=row.truss,
            core=row.core,
        )
    ]


SPEC = ExperimentSpec(
    name="table3",
    title="Cohesiveness of nucleus vs truss vs core at the maximum score",
    paper_reference="Table 3",
    row_type=Table3Row,
    grid=_grid,
    run_cell=_run_cell,
    columns=COLUMNS,
)
